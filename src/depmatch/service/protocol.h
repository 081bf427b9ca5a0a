// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// Wire protocol for the matching service (service/server.h): versioned,
// CRC-framed binary request/response records exchanged over a local
// stream socket.
//
// Frame layout (all integers little-endian, all doubles raw IEEE-754
// bit patterns — the same conventions as graph/graph_io.h, whose
// graphio:: primitives this module reuses):
//
//   bytes 0..3   magic "DMR1" (request) / "DMP1" (response)
//   u32          protocol version (currently 4; version 2 dropped the
//                two micro-batch counters from the stats payload,
//                version 3 added the two bound-evaluation counters to
//                the search payload, version 4 replaced the per-cell
//                table form with the dictionary-coded one below)
//   u64          body length in bytes
//   body         type-specific payload (below)
//   u32          CRC-32 of every preceding byte (magic included)
//
// The fixed 16-byte prefix (magic + version + body length) lets a
// socket reader validate the frame before buffering the body, and the
// body length is capped at kMaxFrameBytes so a corrupt or hostile
// length field cannot make the server allocate unboundedly. The CRC is
// verified before any body field is interpreted; corruption and
// truncation surface as InvalidArgument Status values, never as
// crashes, hangs, or silently wrong results (exhaustively tested in
// tests/service/protocol_test.cc, mirroring graph_io_test, and under
// seeded mutation in tests/service/protocol_fuzz_test.cc).
//
// Request body:
//   u8   request type (RequestType)
//   u64  request id (echoed verbatim in the response)
//   u64  deadline in milliseconds from admission (0 = none)
//   ...  type-specific fields (see the per-type structs below)
//
// Response body:
//   u64  request id echo
//   u8   wire status (WireStatus; kOverloaded is how the admission
//        queue sheds load — an explicit fast reply, not a timeout)
//   str  status message (empty on success)
//   u8   request type the payload answers
//   ...  type-specific fields, present only when status == kOk
//
// Inline tables cross the wire dictionary-coded, column by column, the
// way Column stores them (values are opaque symbols to the matcher):
//
//   u64  attribute count, then per attribute: str name, u8 DataType
//   u64  row count (0 when there are no attributes)
//   per column:
//     u64  dictionary size d (at most the row count)
//     d    values in first-appearance order: int64 and double as raw
//          little-endian bits, strings as str
//     u8   code width w: 1 if d <= 255, 2 if d <= 65535, else 4
//     rows x w-byte little-endian codes: 0 = null, c + 1 = entry c
//
// Only the canonical form is accepted: the narrowest width, every code
// <= d, entries first appearing in order, none unused, and no value
// that Column interning would merge with an earlier entry (0.0 and
// -0.0, a repeated string). A NaN entry serves exactly one cell, as
// Column::Append interns each NaN cell afresh. The encoder renumbers
// each column into this form, so every table encodes byte-for-byte like
// its cell-by-cell TableBuilder rebuild, and the server decodes exactly
// the Table that Column::Append builds from the same cells: the served
// match is bit-identical to a direct library call on the original — the
// round-trip invariant the service bench gates on.

#ifndef DEPMATCH_SERVICE_PROTOCOL_H_
#define DEPMATCH_SERVICE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "depmatch/common/status.h"
#include "depmatch/graph/dependency_graph.h"
#include "depmatch/match/matching.h"
#include "depmatch/table/table.h"

namespace depmatch {
namespace service {

inline constexpr std::string_view kRequestMagic = "DMR1";
inline constexpr std::string_view kResponseMagic = "DMP1";
inline constexpr uint32_t kProtocolVersion = 4;
// magic (4) + version (4) + body length (8).
inline constexpr size_t kFrameHeaderBytes = 16;
inline constexpr size_t kFrameTrailerBytes = 4;  // CRC-32
// Upper bound on the body of one frame. Oversized frames are rejected
// from the 16-byte prefix alone, before any body bytes are read.
inline constexpr uint64_t kMaxFrameBodyBytes = 64ull << 20;

// The four request kinds of ROADMAP item 1, plus the incremental
// append path (graph/incremental_builder.h).
enum class RequestType : uint8_t {
  kMatchTables = 1,  // match two inline tables
  kSearch = 2,       // top-k catalog search (inline table or stored entry)
  kInsert = 3,       // insert/update a catalog entry (snapshot swap)
  kStats = 4,        // stats & health
  kAppend = 5,       // append rows to a stored entry (O(delta) rebuild)
};

std::string_view RequestTypeToString(RequestType type);

// Status taxonomy on the wire: the library's StatusCode subset plus the
// service-level outcomes that have no library equivalent. kOverloaded
// is the admission queue's explicit load-shedding reply; a client sees
// it within milliseconds instead of queueing unboundedly.
enum class WireStatus : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kFailedPrecondition = 3,
  kAlreadyExists = 4,
  kInternal = 5,
  kUnimplemented = 6,
  kResourceExhausted = 7,
  kOverloaded = 8,         // admission queue full; retry later
  kDeadlineExceeded = 9,   // shed before execution: deadline passed
  kShuttingDown = 10,      // server stopping; request not executed
};

std::string_view WireStatusToString(WireStatus status);
WireStatus WireStatusFromStatusCode(StatusCode code);

// The MatchOptions subset a client may set. Threading is deliberately
// absent: worker placement is server policy (the daemon owns the pool).
struct WireMatchOptions {
  Cardinality cardinality = Cardinality::kOneToOne;
  MetricKind metric = MetricKind::kMutualInfoEuclidean;
  MatchAlgorithm algorithm = MatchAlgorithm::kExhaustive;
  double alpha = 3.0;
  uint64_t candidates_per_attribute = 3;
  uint64_t max_search_nodes = 200'000'000;

  // Expands to full MatchOptions with the server-chosen thread count.
  MatchOptions ToMatchOptions(size_t num_threads) const;
  static WireMatchOptions FromMatchOptions(const MatchOptions& options);
};

struct MatchTablesRequest {
  Table source;
  Table target;
  WireMatchOptions options;
};

enum class SearchSource : uint8_t {
  kInlineTable = 0,  // build the query graph from `table` server-side
  kStoredEntry = 1,  // query with the graph of catalog entry `stored_name`
};

struct SearchRequest {
  SearchSource source = SearchSource::kInlineTable;
  Table table;              // kInlineTable only
  std::string stored_name;  // kStoredEntry only
  uint64_t k = 10;
  WireMatchOptions options;
};

enum class InsertPayload : uint8_t {
  kTable = 0,      // build the entry graph from `table` server-side
  kGraphBlob = 1,  // entry graph shipped directly
};

struct InsertRequest {
  std::string name;
  InsertPayload payload = InsertPayload::kTable;
  Table table;            // kTable only
  DependencyGraph graph;  // kGraphBlob only
  // Replace an existing entry of the same name instead of failing with
  // kAlreadyExists.
  bool replace_existing = true;
};

// Appends the rows of `table` to the stored entry `name` and republishes
// the catalog. The server keeps an incremental builder per table-backed
// entry (graph/incremental_builder.h), so the refreshed entry graph is
// bit-identical to a cold rebuild over all rows ever ingested while
// costing O(delta). Requires the entry to have been inserted with
// InsertPayload::kTable (a graph-blob entry has no count state to extend
// — kFailedPrecondition); the delta's schema must match the original's.
struct AppendRequest {
  std::string name;
  Table table;
};

struct Request {
  RequestType type = RequestType::kStats;
  uint64_t request_id = 0;
  // Milliseconds from admission before the request is shed with
  // kDeadlineExceeded instead of executed. 0 = no deadline.
  uint64_t deadline_ms = 0;
  // Payload for `type` (the others stay default-constructed).
  MatchTablesRequest match;
  SearchRequest search;
  InsertRequest insert;
  AppendRequest append;
};

struct WireCorrespondence {
  uint64_t source_index = 0;
  uint64_t target_index = 0;
  std::string source_name;
  std::string target_name;
};

struct MatchTablesResponse {
  std::vector<WireCorrespondence> correspondences;
  double metric_value = 0.0;
  MetricKind metric = MetricKind::kMutualInfoEuclidean;
};

struct SearchHit {
  std::string name;
  uint64_t entry = 0;
  double ranking_key = 0.0;
  double normalized_score = 0.0;
  double metric_value = 0.0;
  std::vector<MatchPair> pairs;
};

struct SearchResponse {
  std::vector<SearchHit> hits;
  // Version of the immutable snapshot that served this search, so a
  // client (or the stress suite) can verify the result against exactly
  // the catalog state it was computed on.
  uint64_t snapshot_version = 0;
  uint64_t entries_total = 0;
  uint64_t entries_searched = 0;
  uint64_t entries_pruned = 0;
  // How the search got there (CatalogSearchStats): per-entry and
  // tiered-index envelope bound evaluations.
  uint64_t bound_evaluations = 0;
  uint64_t cluster_bound_evaluations = 0;
};

struct InsertResponse {
  uint64_t snapshot_version = 0;  // version holding the new entry
  uint64_t catalog_entries = 0;
  bool replaced = false;
};

struct AppendResponse {
  uint64_t snapshot_version = 0;  // version holding the refreshed entry
  uint64_t catalog_entries = 0;
  // Rows the entry's count state now covers (base + every append).
  uint64_t rows_total = 0;
  // Count-state generation after this ingestion (1 = cold build only).
  uint64_t generation = 0;
};

struct StatsResponse {
  uint64_t snapshot_version = 0;
  uint64_t catalog_entries = 0;
  uint64_t accepted_total = 0;
  uint64_t completed_total = 0;
  uint64_t shed_overload_total = 0;
  uint64_t shed_deadline_total = 0;
  uint64_t inserts_total = 0;
  uint64_t appends_total = 0;
  uint64_t queue_depth = 0;
  uint64_t max_queue_depth_seen = 0;
  uint64_t stat_cache_hits = 0;
  uint64_t stat_cache_misses = 0;
};

struct Response {
  uint64_t request_id = 0;
  WireStatus status = WireStatus::kOk;
  std::string message;
  RequestType type = RequestType::kStats;
  // Payload for `type`, meaningful only when status == kOk.
  MatchTablesResponse match;
  SearchResponse search;
  InsertResponse insert;
  AppendResponse append;
  StatsResponse stats;
};

// Serializes a complete frame (header + body + CRC).
std::string EncodeRequest(const Request& request);
std::string EncodeResponse(const Response& response);

// Parses a complete frame produced by the encoder. Fails with
// InvalidArgument on bad magic, unknown version, oversized or
// mismatched body length, checksum mismatch, truncation, malformed
// payload fields, or trailing garbage.
Result<Request> DecodeRequest(std::string_view frame);
Result<Response> DecodeResponse(std::string_view frame);

// Validates the fixed 16-byte prefix of a frame and returns the body
// length, so socket readers can size their buffer (and reject
// oversized frames) before reading further. `expect_request` selects
// which magic is required.
Result<uint64_t> DecodeFrameHeader(std::string_view header,
                                   bool expect_request);

// Total frame size implied by a validated header value.
inline size_t FrameSizeForBody(uint64_t body_bytes) {
  return kFrameHeaderBytes + static_cast<size_t>(body_bytes) +
         kFrameTrailerBytes;
}

// Dictionary-coded table codec used for inline tables (exposed for the
// protocol tests); the layout is in the comment at the top of this file.
void AppendTable(std::string* out, const Table& table);
Result<Table> ParseTable(std::string_view bytes, size_t* cursor);

}  // namespace service
}  // namespace depmatch

#endif  // DEPMATCH_SERVICE_PROTOCOL_H_
