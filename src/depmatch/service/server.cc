// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.

#include "depmatch/service/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "depmatch/common/string_util.h"
#include "depmatch/service/protocol.h"

namespace depmatch {
namespace service {

namespace {

// Reads exactly `count` bytes, riding out EINTR and short reads.
// Returns false on EOF or a hard error.
bool ReadFull(int fd, char* data, size_t count) {
  size_t done = 0;
  while (done < count) {
    ssize_t n = read(fd, data + done, count - done);
    if (n > 0) {
      done += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // EOF (n == 0) or error
  }
  return true;
}

// Writes exactly `count` bytes. MSG_NOSIGNAL turns a peer hang-up into
// EPIPE instead of a process-killing SIGPIPE.
bool WriteFull(int fd, const char* data, size_t count) {
  size_t done = 0;
  while (done < count) {
    ssize_t n = send(fd, data + done, count - done, MSG_NOSIGNAL);
    if (n > 0) {
      done += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace

ServiceServer::ServiceServer(std::unique_ptr<MatchService> match_service,
                             ServerOptions options)
    : options_(std::move(options)), match_service_(std::move(match_service)) {}

ServiceServer::~ServiceServer() { Stop(); }

Status ServiceServer::Start() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.empty() ||
      options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return InvalidArgumentError(
        StrFormat("socket path must be 1..%zu bytes, got %zu",
                  sizeof(addr.sun_path) - 1, options_.socket_path.size()));
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) {
      return FailedPreconditionError("server already started");
    }
  }

  int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return InternalError(
        StrFormat("socket() failed: %s", std::strerror(errno)));
  }
  unlink(options_.socket_path.c_str());
  if (bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = InternalError(StrFormat("bind(%s) failed: %s",
                                            options_.socket_path.c_str(),
                                            std::strerror(errno)));
    close(fd);
    return status;
  }
  if (listen(fd, options_.backlog) != 0) {
    Status status = InternalError(
        StrFormat("listen() failed: %s", std::strerror(errno)));
    close(fd);
    return status;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
    stopping_ = false;
    listen_fd_ = fd;
  }
  // depmatch-analyze: allow(raw-thread) — the accept loop blocks in
  // accept(2) for the server's lifetime (see the header).
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return OkStatus();
}

void ServiceServer::Stop() {
  bool was_started = false;
  int listen_fd = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    was_started = started_;
    stopping_ = true;
    listen_fd = listen_fd_;
  }
  if (!was_started) {
    match_service_->Stop();
    return;
  }
  // Unblock accept(2); the accept thread sees stopping_ and exits.
  if (listen_fd >= 0) shutdown(listen_fd, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();

  // With the accept thread gone, no new connections appear. Unblock
  // every reader and join them outside the lock.
  // depmatch-analyze: allow(raw-thread)
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int fd : connection_fds_) shutdown(fd, SHUT_RDWR);
    readers.swap(connection_threads_);
  }
  // depmatch-analyze: allow(raw-thread)
  for (std::thread& reader : readers) {
    if (reader.joinable()) reader.join();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int fd : connection_fds_) close(fd);
    connection_fds_.clear();
    if (listen_fd_ >= 0) {
      close(listen_fd_);
      listen_fd_ = -1;
    }
  }
  unlink(options_.socket_path.c_str());
  match_service_->Stop();
}

void ServiceServer::AcceptLoop() {
  for (;;) {
    int listen_fd = -1;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
      listen_fd = listen_fd_;
    }
    int fd = accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Any other failure (including the Stop() shutdown) ends the
      // loop; Stop() owns cleanup.
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      close(fd);
      return;
    }
    connection_fds_.push_back(fd);
    // depmatch-analyze: allow(raw-thread) — one blocking reader per
    // connection (see the header).
    // depmatch-analyze: allow(lock-discipline) — ServeConnection
    // (EXCLUDES(mu_)) is only named here; it executes on the thread
    // just spawned, never on this one, so the lock is not held when
    // it actually runs. Registering the thread must happen under mu_
    // or Stop() could miss joining it.
    connection_threads_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void ServiceServer::ServeConnection(int fd) {
  std::string header(kFrameHeaderBytes, '\0');
  bool serving = true;
  while (serving) {
    if (!ReadFull(fd, header.data(), header.size())) break;  // EOF/error
    Result<uint64_t> body_bytes =
        DecodeFrameHeader(header, /*expect_request=*/true);
    if (!body_bytes.ok()) {
      // The stream is unframed from here on: answer once, then drop
      // the connection.
      Response error;
      error.status = WireStatus::kInvalidArgument;
      error.message = body_bytes.status().message();
      std::string encoded = EncodeResponse(error);
      WriteFull(fd, encoded.data(), encoded.size());  // best effort
      break;
    }
    std::string frame = header;
    frame.resize(FrameSizeForBody(*body_bytes));
    if (!ReadFull(fd, frame.data() + header.size(),
                  frame.size() - header.size())) {
      break;
    }
    Result<Request> request = DecodeRequest(frame);
    Response response;
    if (!request.ok()) {
      response.status = WireStatus::kInvalidArgument;
      response.message = request.status().message();
      serving = false;  // close after a framing error
    } else {
      response = match_service_->Process(*request);
    }
    std::string encoded = EncodeResponse(response);
    if (!WriteFull(fd, encoded.data(), encoded.size())) break;
  }
  // Drop the connection now rather than at Stop(): close the fd and
  // deregister it so a long-lived daemon does not accumulate one dead
  // fd per departed client. Removal and close happen under mu_, so
  // Stop() (which shuts down every registered fd under the same lock)
  // never touches an already-closed — possibly reused — descriptor.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::find(connection_fds_.begin(), connection_fds_.end(), fd);
  if (it != connection_fds_.end()) {
    connection_fds_.erase(it);
    close(fd);
  }
}

}  // namespace service
}  // namespace depmatch
