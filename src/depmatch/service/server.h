// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// ServiceServer: the socket transport in front of MatchService.
//
// Listens on a local (AF_UNIX) stream socket and serves the framed
// binary protocol of service/protocol.h: each connection carries a
// sequence of DMR1 request frames, answered in order with DMP1
// response frames. One thread per connection reads a frame, calls
// MatchService::Process() (which blocks until a service worker answers),
// and writes the response — so the per-connection socket needs no
// locking, and concurrency across connections is bounded by the
// service's admission queue, not by the transport.
//
// Robustness: the 16-byte frame prefix is validated before the body is
// buffered (oversized or malformed frames are rejected without
// allocation), and a connection that sends an undecodable frame gets
// one best-effort error response and is closed — after a framing error
// the byte stream cannot be trusted to be re-synchronizable.

#ifndef DEPMATCH_SERVICE_SERVER_H_
#define DEPMATCH_SERVICE_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "depmatch/common/status.h"
#include "depmatch/common/thread_annotations.h"
#include "depmatch/service/match_service.h"

namespace depmatch {
namespace service {

struct ServerOptions {
  // Filesystem path of the AF_UNIX socket. A stale file at the path is
  // unlinked at Start(). Must fit sockaddr_un (~100 chars).
  std::string socket_path;
  // listen(2) backlog.
  int backlog = 16;
};

class ServiceServer {
 public:
  // Takes ownership of the service the connections dispatch into.
  ServiceServer(std::unique_ptr<MatchService> match_service,
                ServerOptions options);
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  // Binds, listens, and starts the accept loop. Fails if the path does
  // not fit, cannot be bound, or the server already started.
  Status Start() DEPMATCH_EXCLUDES(mu_);

  // Stops accepting, unblocks every connection, joins all threads, and
  // stops the service. Idempotent; also run by the destructor.
  void Stop() DEPMATCH_EXCLUDES(mu_);

  const std::string& socket_path() const { return options_.socket_path; }

  // The owned service (for stats, snapshots, and test hooks).
  MatchService& match_service() { return *match_service_; }

 private:
  void AcceptLoop() DEPMATCH_EXCLUDES(mu_);
  void ServeConnection(int fd) DEPMATCH_EXCLUDES(mu_);

  const ServerOptions options_;
  // depmatch-analyze: allow(lock-annotation) — MatchService is
  // internally synchronized; the pointer itself is set once in the
  // constructor and never reseated.
  std::unique_ptr<MatchService> match_service_;

  mutable std::mutex mu_;
  bool started_ DEPMATCH_GUARDED_BY(mu_) = false;
  bool stopping_ DEPMATCH_GUARDED_BY(mu_) = false;
  int listen_fd_ DEPMATCH_GUARDED_BY(mu_) = -1;
  // Open connection sockets, shut down on Stop() to unblock their
  // reader threads.
  std::vector<int> connection_fds_ DEPMATCH_GUARDED_BY(mu_);
  // Reader threads, one per connection (Stop() swaps the vector out
  // under the lock and joins outside it).
  // depmatch-analyze: allow(raw-thread) — one blocking reader per
  // connection; pool tasks must not block on socket reads.
  std::vector<std::thread> connection_threads_ DEPMATCH_GUARDED_BY(mu_);
  // depmatch-analyze: allow(lock-annotation) — started by Start(),
  // joined by Stop(); never touched concurrently.
  // depmatch-analyze: allow(raw-thread) — the accept loop blocks in
  // accept(2) for the server's lifetime.
  std::thread accept_thread_;
};

}  // namespace service
}  // namespace depmatch

#endif  // DEPMATCH_SERVICE_SERVER_H_
