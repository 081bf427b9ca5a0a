// ServiceServer contract over a real AF_UNIX socket: framed round
// trips for every request type, request-id echo, a clean error frame
// (not a crash or hang) for corrupt and hostile-length frames, and a
// Stop() that unblocks connected readers.

#include "depmatch/service/server.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "depmatch/common/string_util.h"
#include "depmatch/datagen/graph_corpus.h"
#include "depmatch/service/client.h"
#include "depmatch/service/match_service.h"
#include "depmatch/service/protocol.h"
#include "depmatch/table/table.h"

namespace depmatch {
namespace service {
namespace {

Table MakeSmallTable(uint64_t seed) {
  Result<Schema> schema = Schema::Create({
      {"a", DataType::kInt64},
      {"b", DataType::kInt64},
      {"c", DataType::kInt64},
  });
  EXPECT_TRUE(schema.ok());
  TableBuilder builder(*schema);
  for (size_t r = 0; r < 48; ++r) {
    uint64_t base = (seed + r * 2654435761u) % 8;
    builder.AppendValue(0, Value(static_cast<int64_t>(base)));
    builder.AppendValue(1, Value(static_cast<int64_t>(base / 2)));
    builder.AppendValue(2, Value(static_cast<int64_t>((base + r % 3) % 5)));
  }
  Result<Table> table = std::move(builder).Build();
  EXPECT_TRUE(table.ok());
  return *std::move(table);
}

struct TestServer {
  std::string socket_path;
  std::unique_ptr<ServiceServer> server;
};

TestServer StartTestServer(const char* tag, size_t entries = 3) {
  GraphCatalog catalog;
  GraphCorpusOptions corpus;
  for (size_t i = 0; i < entries; ++i) {
    EXPECT_TRUE(
        catalog.Insert(CorpusEntryName(i), CorpusEntry(corpus, i)).ok());
  }
  ServiceOptions service_options;
  service_options.snapshot_history = 4;
  auto match_service =
      std::make_unique<MatchService>(std::move(catalog), service_options);
  ServerOptions server_options;
  server_options.socket_path =
      StrFormat("%s/depmatch_server_test_%d_%s.sock",
                testing::TempDir().c_str(), getpid(), tag);
  TestServer result;
  result.socket_path = server_options.socket_path;
  result.server = std::make_unique<ServiceServer>(std::move(match_service),
                                                  std::move(server_options));
  Status started = result.server->Start();
  EXPECT_TRUE(started.ok()) << started;
  return result;
}

// Raw connection for sending deliberately malformed bytes.
int RawConnect(const std::string& socket_path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  EXPECT_LT(socket_path.size(), sizeof(addr.sun_path));
  socket_path.copy(addr.sun_path, sizeof(addr.sun_path) - 1);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  return fd;
}

bool RawWrite(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, 0);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Reads one full response frame (header, then body + CRC).
Result<Response> RawReadResponse(int fd) {
  std::string header(kFrameHeaderBytes, '\0');
  size_t got = 0;
  while (got < header.size()) {
    ssize_t n = ::recv(fd, header.data() + got, header.size() - got, 0);
    if (n <= 0) return InternalError("short header read");
    got += static_cast<size_t>(n);
  }
  Result<uint64_t> body_len = DecodeFrameHeader(header, false);
  if (!body_len.ok()) return body_len.status();
  std::string frame = header;
  frame.resize(FrameSizeForBody(*body_len));
  while (got < frame.size()) {
    ssize_t n = ::recv(fd, frame.data() + got, frame.size() - got, 0);
    if (n <= 0) return InternalError("short body read");
    got += static_cast<size_t>(n);
  }
  return DecodeResponse(frame);
}

TEST(ServiceServerTest, AllRequestTypesRoundTripWithIdEcho) {
  TestServer server = StartTestServer("roundtrip");
  Result<ServiceClient> client = ServiceClient::Connect(server.socket_path);
  ASSERT_TRUE(client.ok()) << client.status();

  Result<Response> stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->status, WireStatus::kOk);
  EXPECT_EQ(stats->request_id, 1u);
  EXPECT_EQ(stats->stats.catalog_entries, 3u);

  Result<Response> match =
      client->MatchTables(MakeSmallTable(3), MakeSmallTable(9));
  ASSERT_TRUE(match.ok()) << match.status();
  EXPECT_EQ(match->status, WireStatus::kOk);
  EXPECT_EQ(match->request_id, 2u);
  EXPECT_FALSE(match->match.correspondences.empty());

  Result<Response> search = client->SearchStored(CorpusEntryName(0), 2);
  ASSERT_TRUE(search.ok()) << search.status();
  EXPECT_EQ(search->status, WireStatus::kOk);
  EXPECT_EQ(search->request_id, 3u);
  ASSERT_FALSE(search->search.hits.empty());
  EXPECT_EQ(search->search.hits.front().name, CorpusEntryName(0));

  Result<Response> insert =
      client->InsertTable("wire_entry", MakeSmallTable(17));
  ASSERT_TRUE(insert.ok()) << insert.status();
  EXPECT_EQ(insert->status, WireStatus::kOk);
  EXPECT_EQ(insert->insert.snapshot_version, 2u);

  Result<Response> inline_search = client->SearchTable(MakeSmallTable(17), 1);
  ASSERT_TRUE(inline_search.ok()) << inline_search.status();
  EXPECT_EQ(inline_search->status, WireStatus::kOk);
  ASSERT_FALSE(inline_search->search.hits.empty());
  EXPECT_EQ(inline_search->search.hits.front().name, "wire_entry");

  server.server->Stop();
}

TEST(ServiceServerTest, ServiceLevelErrorsKeepConnectionUsable) {
  TestServer server = StartTestServer("errors");
  Result<ServiceClient> client = ServiceClient::Connect(server.socket_path);
  ASSERT_TRUE(client.ok()) << client.status();

  Result<Response> missing = client->SearchStored("nope", 2);
  ASSERT_TRUE(missing.ok()) << missing.status();
  EXPECT_EQ(missing->status, WireStatus::kNotFound);

  // The connection survives a service-level error.
  Result<Response> stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->status, WireStatus::kOk);

  server.server->Stop();
}

TEST(ServiceServerTest, CorruptFrameGetsErrorResponseThenClose) {
  TestServer server = StartTestServer("corrupt");

  Request request;
  request.type = RequestType::kStats;
  request.request_id = 9;
  std::string frame = EncodeRequest(request);
  // Flip one body byte: the header still parses, the CRC does not.
  frame[kFrameHeaderBytes] =
      static_cast<char>(frame[kFrameHeaderBytes] ^ 0x5A);

  int fd = RawConnect(server.socket_path);
  ASSERT_TRUE(RawWrite(fd, frame));
  Result<Response> response = RawReadResponse(fd);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status, WireStatus::kInvalidArgument);
  // An undecodable request cannot be attributed to an id.
  EXPECT_EQ(response->request_id, 0u);
  // The server closes the connection after a framing error.
  char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);

  server.server->Stop();
}

TEST(ServiceServerTest, HostileLengthHeaderIsRejectedUpFront) {
  TestServer server = StartTestServer("hostile");

  std::string header;
  header += kRequestMagic;
  // The current protocol version (LE), then an absurd body length.
  header.push_back(static_cast<char>(kProtocolVersion));
  header.push_back(0);
  header.push_back(0);
  header.push_back(0);
  for (int i = 0; i < 8; ++i) header.push_back(static_cast<char>(0xFF));

  int fd = RawConnect(server.socket_path);
  ASSERT_TRUE(RawWrite(fd, header));
  Result<Response> response = RawReadResponse(fd);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status, WireStatus::kInvalidArgument);
  char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);

  server.server->Stop();
}

TEST(ServiceServerTest, StopUnblocksConnectedClients) {
  TestServer server = StartTestServer("stop");
  Result<ServiceClient> client = ServiceClient::Connect(server.socket_path);
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(client->Stats().ok());

  server.server->Stop();
  // The socket is gone: calls on the old connection fail as transport
  // errors, and new connections are refused.
  Result<Response> after = client->Stats();
  EXPECT_FALSE(after.ok());
  EXPECT_FALSE(ServiceClient::Connect(server.socket_path).ok());
  // Idempotent.
  server.server->Stop();
}

TEST(ServiceServerTest, OverlongSocketPathFailsToStart) {
  GraphCatalog catalog;
  auto match_service =
      std::make_unique<MatchService>(std::move(catalog), ServiceOptions{});
  ServerOptions options;
  options.socket_path = "/tmp/" + std::string(200, 'x') + ".sock";
  ServiceServer server(std::move(match_service), std::move(options));
  EXPECT_FALSE(server.Start().ok());
  server.Stop();
}

}  // namespace
}  // namespace service
}  // namespace depmatch
