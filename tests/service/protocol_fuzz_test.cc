// Seeded mutation harness for the service wire decoders. Frames of every
// request and response type are mutated or truncated at random, then
// re-sealed (body length and CRC patched) so each mutant reaches the
// field and table checks under a valid checksum rather than being
// stopped by it. Every outcome must be a Status: a crash, a hang, an
// over-read or a sanitizer report fails the run. A mutant that decodes
// must also be canonical, re-encoding to exactly its own bytes, since
// the decoders accept one byte string per value.
//
// Deterministic: a fixed seed and a fixed iteration budget, so a failure
// reproduces with the same binary. The ctest label `fuzz` selects it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "depmatch/common/rng.h"
#include "depmatch/common/string_util.h"
#include "depmatch/graph/dependency_graph.h"
#include "depmatch/graph/graph_io.h"
#include "depmatch/service/protocol.h"
#include "depmatch/table/table.h"

namespace depmatch {
namespace service {
namespace {

constexpr uint64_t kSeed = 0x5eed0f2a;
constexpr size_t kIterations = 50000;

// 300 rows: an int64 column with 300 distinct values (2-byte codes), a
// low-cardinality string column, and doubles with nulls, -0.0 and NaNs.
Table MakeFuzzTable(uint64_t seed) {
  Result<Schema> schema = Schema::Create({
      {"id", DataType::kInt64},
      {"label", DataType::kString},
      {"score", DataType::kDouble},
  });
  EXPECT_TRUE(schema.ok());
  Rng rng(seed);
  TableBuilder builder(*schema);
  for (int64_t r = 0; r < 300; ++r) {
    builder.AppendValue(0, Value(r * 7 - 1000));
    int label = static_cast<int>(rng.NextBounded(6));
    builder.AppendValue(
        1, label == 5 ? Value::Null() : Value(StrFormat("v%d", label)));
    uint64_t pick = rng.NextBounded(20);
    if (pick == 0) {
      builder.AppendValue(2, Value::Null());
    } else if (pick == 1) {
      builder.AppendValue(2, Value(std::numeric_limits<double>::quiet_NaN()));
    } else if (pick == 2) {
      builder.AppendValue(2, Value(-0.0));
    } else {
      builder.AppendValue(2, Value(static_cast<double>(rng.NextBounded(40))));
    }
  }
  Result<Table> table = std::move(builder).Build();
  EXPECT_TRUE(table.ok());
  return *std::move(table);
}

std::vector<Request> MakeRequests() {
  std::vector<Request> requests;
  Request match;
  match.type = RequestType::kMatchTables;
  match.request_id = 1;
  match.deadline_ms = 500;
  match.match.source = MakeFuzzTable(1);
  match.match.target = MakeFuzzTable(2);
  requests.push_back(match);

  Request inline_search;
  inline_search.type = RequestType::kSearch;
  inline_search.request_id = 2;
  inline_search.search.source = SearchSource::kInlineTable;
  inline_search.search.table = MakeFuzzTable(3);
  inline_search.search.k = 5;
  requests.push_back(inline_search);

  Request stored_search;
  stored_search.type = RequestType::kSearch;
  stored_search.request_id = 3;
  stored_search.search.source = SearchSource::kStoredEntry;
  stored_search.search.stored_name = "t000042";
  requests.push_back(stored_search);

  Request insert_table;
  insert_table.type = RequestType::kInsert;
  insert_table.request_id = 4;
  insert_table.insert.name = "fresh";
  insert_table.insert.table = MakeFuzzTable(4);
  requests.push_back(insert_table);

  Request insert_graph;
  insert_graph.type = RequestType::kInsert;
  insert_graph.request_id = 5;
  insert_graph.insert.name = "blob";
  insert_graph.insert.payload = InsertPayload::kGraphBlob;
  auto graph = DependencyGraph::Create({"a", "b"}, {{2.0, 0.5}, {0.5, 1.0}});
  EXPECT_TRUE(graph.ok());
  insert_graph.insert.graph = *std::move(graph);
  insert_graph.insert.replace_existing = false;
  requests.push_back(insert_graph);

  Request append;
  append.type = RequestType::kAppend;
  append.request_id = 6;
  append.append.name = "fresh";
  append.append.table = MakeFuzzTable(5);
  requests.push_back(append);

  Request stats;
  stats.type = RequestType::kStats;
  stats.request_id = 7;
  requests.push_back(stats);
  return requests;
}

std::vector<Response> MakeResponses() {
  std::vector<Response> responses;
  Response match;
  match.request_id = 11;
  match.type = RequestType::kMatchTables;
  match.match.metric_value = 1.5;
  match.match.correspondences = {{0, 2, "a", "x"}, {1, 0, "b", "y"}};
  responses.push_back(match);

  Response search;
  search.request_id = 12;
  search.type = RequestType::kSearch;
  search.search.snapshot_version = 3;
  search.search.entries_total = 10;
  search.search.entries_searched = 4;
  for (uint64_t i = 0; i < 3; ++i) {
    SearchHit hit;
    hit.name = StrFormat("t%06d", static_cast<int>(i));
    hit.entry = i;
    hit.ranking_key = -0.25 * static_cast<double>(i);
    hit.pairs = {{0, i}, {1, 0}};
    search.search.hits.push_back(hit);
  }
  responses.push_back(search);

  Response insert;
  insert.request_id = 13;
  insert.type = RequestType::kInsert;
  insert.insert.snapshot_version = 4;
  insert.insert.replaced = true;
  responses.push_back(insert);

  Response append;
  append.request_id = 14;
  append.type = RequestType::kAppend;
  append.append.rows_total = 5000;
  append.append.generation = 2;
  responses.push_back(append);

  Response stats;
  stats.request_id = 15;
  stats.type = RequestType::kStats;
  stats.stats.accepted_total = 99;
  responses.push_back(stats);

  Response error;
  error.request_id = 16;
  error.status = WireStatus::kOverloaded;
  error.message = "queue full";
  error.type = RequestType::kSearch;
  responses.push_back(error);
  return responses;
}

// Values that land on count, length and code-width boundaries.
uint64_t InterestingValue(Rng& rng, size_t body_size) {
  const uint64_t values[] = {0,     1,     2,         7,          8,
                             255,   256,   65535,     65536,      1u << 31,
                             1ull << 32,   ~0ull >> 1, ~0ull};
  uint64_t pick = rng.NextBounded(std::size(values) + 2);
  if (pick < std::size(values)) return values[pick];
  if (pick == std::size(values)) return body_size;
  return rng.NextBounded(body_size + 1);
}

// Applies one random mutation to `body`.
void Mutate(Rng& rng, std::string* body) {
  size_t size = body->size();
  switch (rng.NextBounded(7)) {
    case 0:  // flip one bit
      if (size > 0) {
        (*body)[rng.NextBounded(size)] ^=
            static_cast<char>(1u << rng.NextBounded(8));
      }
      break;
    case 1:  // set one byte
      if (size > 0) {
        (*body)[rng.NextBounded(size)] =
            static_cast<char>(rng.NextBounded(256));
      }
      break;
    case 2: {  // overwrite a little-endian u64 field
      if (size < 8) break;
      size_t at = rng.NextBounded(size - 7);
      uint64_t value = InterestingValue(rng, size);
      for (size_t b = 0; b < 8; ++b) {
        (*body)[at + b] = static_cast<char>((value >> (8 * b)) & 0xFFu);
      }
      break;
    }
    case 3:  // truncate
      body->resize(rng.NextBounded(size + 1));
      break;
    case 4: {  // delete a short range
      if (size == 0) break;
      size_t at = rng.NextBounded(size);
      body->erase(at, 1 + rng.NextBounded(16));
      break;
    }
    case 5: {  // insert random bytes
      std::string bytes(1 + rng.NextBounded(16), '\0');
      for (char& c : bytes) c = static_cast<char>(rng.NextBounded(256));
      body->insert(rng.NextBounded(size + 1), bytes);
      break;
    }
    default: {  // copy a range over another place
      if (size < 2) break;
      size_t length = 1 + rng.NextBounded(std::min<size_t>(size / 2, 24));
      size_t from = rng.NextBounded(size - length + 1);
      size_t to = rng.NextBounded(size - length + 1);
      body->replace(to, length, body->substr(from, length));
      break;
    }
  }
}

// Mutates the body of `frame` one to three times and re-seals it.
std::string MutateAndReseal(Rng& rng, const std::string& frame) {
  std::string body = frame.substr(
      kFrameHeaderBytes, frame.size() - kFrameHeaderBytes - kFrameTrailerBytes);
  uint64_t rounds = 1 + rng.NextBounded(3);
  for (uint64_t i = 0; i < rounds; ++i) Mutate(rng, &body);
  std::string mutant = frame.substr(0, 8);
  graphio::AppendU64(&mutant, body.size());
  mutant += body;
  graphio::AppendU32(&mutant, graphio::Crc32(mutant));
  return mutant;
}

TEST(ProtocolFuzzTest, MutatedFramesDecodeToStatusOrCanonicalValues) {
  std::vector<std::string> request_frames;
  for (const Request& request : MakeRequests()) {
    request_frames.push_back(EncodeRequest(request));
  }
  std::vector<std::string> response_frames;
  for (const Response& response : MakeResponses()) {
    response_frames.push_back(EncodeResponse(response));
  }
  size_t num_frames = request_frames.size() + response_frames.size();

  Rng rng(kSeed);
  size_t accepted = 0;
  size_t rejected = 0;
  for (size_t i = 0; i < kIterations; ++i) {
    size_t pick = rng.NextBounded(num_frames);
    bool is_request = pick < request_frames.size();
    const std::string& frame =
        is_request ? request_frames[pick]
                   : response_frames[pick - request_frames.size()];
    std::string mutant = MutateAndReseal(rng, frame);
    Status status;
    std::string reencoded;
    if (is_request) {
      Result<Request> decoded = DecodeRequest(mutant);
      status = decoded.status();
      if (decoded.ok()) reencoded = EncodeRequest(*decoded);
    } else {
      Result<Response> decoded = DecodeResponse(mutant);
      status = decoded.status();
      if (decoded.ok()) reencoded = EncodeResponse(*decoded);
    }
    if (status.ok()) {
      ++accepted;
      ASSERT_EQ(reencoded, mutant)
          << "iteration " << i << ": accepted a non-canonical frame";
    } else {
      ++rejected;
      ASSERT_EQ(status.code(), StatusCode::kInvalidArgument)
          << "iteration " << i << ": " << status;
    }
  }
  // Both outcomes occur, so the mutants reach past the checksum and the
  // harness is not rejecting (or accepting) everything.
  EXPECT_GT(accepted, kIterations / 100);
  EXPECT_GT(rejected, kIterations / 2);
}

}  // namespace
}  // namespace service
}  // namespace depmatch
