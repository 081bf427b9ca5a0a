// Protocol robustness contract, mirroring graph_io_test: every
// single-byte corruption and every truncation of a frame must surface
// as a clean InvalidArgument Status — never a crash, hang, over-read,
// or silently wrong decode — and decode(encode(x)) must reproduce x
// bit-for-bit, doubles included.

#include "depmatch/service/protocol.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "depmatch/common/rng.h"
#include "depmatch/graph/dependency_graph.h"
#include "depmatch/graph/graph_io.h"
#include "depmatch/table/column.h"
#include "depmatch/table/table.h"
#include "depmatch/table/table_ops.h"

namespace depmatch {
namespace service {
namespace {

// A table exercising every type, nulls, and doubles whose bit patterns
// plain `==` comparison would conflate (-0.0) or reject (NaN is left
// out: Value equality is not defined over NaNs).
Table MakeWireTable() {
  Result<Schema> schema = Schema::Create({
      {"id", DataType::kInt64},
      {"score", DataType::kDouble},
      {"label", DataType::kString},
  });
  EXPECT_TRUE(schema.ok());
  TableBuilder builder(*schema);
  const double doubles[] = {
      0.0, -0.0, 1.5, -1.0 / 3.0,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
  };
  for (size_t r = 0; r < 6; ++r) {
    if (r == 3) {
      builder.AppendValue(0, Value::Null());
    } else {
      builder.AppendValue(
          0, Value(static_cast<int64_t>(r) * int64_t{-1234567891011}));
    }
    builder.AppendValue(1, Value(doubles[r]));
    if (r == 4) {
      builder.AppendValue(2, Value::Null());
    } else {
      builder.AppendValue(2, Value(r == 5 ? "" : "label_" + std::to_string(r)));
    }
  }
  Result<Table> table = std::move(builder).Build();
  EXPECT_TRUE(table.ok());
  return *std::move(table);
}

DependencyGraph MakeWireGraph() {
  auto graph = DependencyGraph::Create({"a", "b", "c"},
                                       {{3.0, 1.0, 0.5},
                                        {1.0, 2.0, 0.25},
                                        {0.5, 0.25, 4.0}});
  EXPECT_TRUE(graph.ok());
  return *std::move(graph);
}

// A dictionary value by type and bit pattern, so 0.0 and -0.0 (and NaN
// payloads) stay distinct.
std::string ValueBits(const Value& value) {
  if (value.is_double()) {
    return "d" + std::to_string(std::bit_cast<uint64_t>(value.double_value()));
  }
  return (value.is_int64() ? "i" : "s") + value.ToString();
}

// Column-level identity: codes, null count and dictionary (by bits).
void ExpectSameColumns(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t c = 0; c < a.num_attributes(); ++c) {
    EXPECT_EQ(a.schema().attribute(c).name, b.schema().attribute(c).name);
    EXPECT_EQ(a.schema().attribute(c).type, b.schema().attribute(c).type);
    const Column& x = a.column(c);
    const Column& y = b.column(c);
    EXPECT_EQ(x.codes(), y.codes()) << "column " << c;
    EXPECT_EQ(x.null_count(), y.null_count()) << "column " << c;
    ASSERT_EQ(x.distinct_count(), y.distinct_count()) << "column " << c;
    for (size_t k = 0; k < x.distinct_count(); ++k) {
      EXPECT_EQ(ValueBits(x.dictionary()[k]), ValueBits(y.dictionary()[k]))
          << "column " << c << " entry " << k;
    }
  }
}

Request MakeSearchRequest() {
  Request request;
  request.type = RequestType::kSearch;
  request.request_id = 77;
  request.deadline_ms = 250;
  request.search.source = SearchSource::kStoredEntry;
  request.search.stored_name = "t000003";
  request.search.k = 4;
  request.search.options.metric = MetricKind::kEntropyNormal;
  request.search.options.alpha = 2.5;
  return request;
}

// Re-seals a frame whose header/body was deliberately edited, so the
// test reaches the check under the CRC instead of the CRC itself.
std::string Reseal(std::string frame) {
  frame.resize(frame.size() - kFrameTrailerBytes);
  // Patch the body length in case the edit changed the frame size.
  std::string patched = frame.substr(0, 8);
  graphio::AppendU64(&patched, frame.size() - kFrameHeaderBytes);
  patched += frame.substr(kFrameHeaderBytes);
  graphio::AppendU32(&patched, graphio::Crc32(patched));
  return patched;
}

TEST(ProtocolTest, MatchRequestRoundTripsBitIdentically) {
  Request request;
  request.type = RequestType::kMatchTables;
  request.request_id = 41;
  request.deadline_ms = 1000;
  request.match.source = MakeWireTable();
  request.match.target = MakeWireTable();
  request.match.options.cardinality = Cardinality::kOnto;
  request.match.options.algorithm = MatchAlgorithm::kGreedy;
  request.match.options.alpha = 1.25;
  request.match.options.candidates_per_attribute = 5;
  request.match.options.max_search_nodes = 123456;

  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->type, RequestType::kMatchTables);
  EXPECT_EQ(decoded->request_id, 41u);
  EXPECT_EQ(decoded->deadline_ms, 1000u);
  EXPECT_EQ(decoded->match.options.cardinality, Cardinality::kOnto);
  EXPECT_EQ(decoded->match.options.algorithm, MatchAlgorithm::kGreedy);
  EXPECT_EQ(std::bit_cast<uint64_t>(decoded->match.options.alpha),
            std::bit_cast<uint64_t>(1.25));
  EXPECT_EQ(decoded->match.options.candidates_per_attribute, 5u);
  EXPECT_EQ(decoded->match.options.max_search_nodes, 123456u);
  ExpectSameColumns(request.match.source, decoded->match.source);
  ExpectSameColumns(request.match.target, decoded->match.target);
}

TEST(ProtocolTest, SearchAndInsertAndStatsRequestsRoundTrip) {
  Request search = MakeSearchRequest();
  auto search_decoded = DecodeRequest(EncodeRequest(search));
  ASSERT_TRUE(search_decoded.ok()) << search_decoded.status();
  EXPECT_EQ(search_decoded->search.source, SearchSource::kStoredEntry);
  EXPECT_EQ(search_decoded->search.stored_name, "t000003");
  EXPECT_EQ(search_decoded->search.k, 4u);
  EXPECT_EQ(search_decoded->search.options.metric, MetricKind::kEntropyNormal);

  Request inline_search;
  inline_search.type = RequestType::kSearch;
  inline_search.request_id = 78;
  inline_search.search.source = SearchSource::kInlineTable;
  inline_search.search.table = MakeWireTable();
  inline_search.search.k = 2;
  auto inline_decoded = DecodeRequest(EncodeRequest(inline_search));
  ASSERT_TRUE(inline_decoded.ok()) << inline_decoded.status();
  EXPECT_EQ(inline_decoded->search.source, SearchSource::kInlineTable);
  ExpectSameColumns(inline_search.search.table,
                           inline_decoded->search.table);

  Request insert;
  insert.type = RequestType::kInsert;
  insert.request_id = 79;
  insert.insert.name = "fresh";
  insert.insert.payload = InsertPayload::kGraphBlob;
  insert.insert.graph = MakeWireGraph();
  insert.insert.replace_existing = false;
  auto insert_decoded = DecodeRequest(EncodeRequest(insert));
  ASSERT_TRUE(insert_decoded.ok()) << insert_decoded.status();
  EXPECT_EQ(insert_decoded->insert.name, "fresh");
  EXPECT_EQ(insert_decoded->insert.payload, InsertPayload::kGraphBlob);
  EXPECT_FALSE(insert_decoded->insert.replace_existing);
  ASSERT_EQ(insert_decoded->insert.graph.size(), 3u);
  EXPECT_EQ(std::bit_cast<uint64_t>(insert_decoded->insert.graph.mi(0, 1)),
            std::bit_cast<uint64_t>(1.0));

  Request stats;
  stats.type = RequestType::kStats;
  stats.request_id = 80;
  auto stats_decoded = DecodeRequest(EncodeRequest(stats));
  ASSERT_TRUE(stats_decoded.ok()) << stats_decoded.status();
  EXPECT_EQ(stats_decoded->type, RequestType::kStats);
  EXPECT_EQ(stats_decoded->request_id, 80u);
}

TEST(ProtocolTest, AppendRequestAndResponseRoundTrip) {
  Request append;
  append.type = RequestType::kAppend;
  append.request_id = 85;
  append.deadline_ms = 400;
  append.append.name = "t000009";
  append.append.table = MakeWireTable();
  auto decoded = DecodeRequest(EncodeRequest(append));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->type, RequestType::kAppend);
  EXPECT_EQ(decoded->request_id, 85u);
  EXPECT_EQ(decoded->deadline_ms, 400u);
  EXPECT_EQ(decoded->append.name, "t000009");
  ExpectSameColumns(append.append.table, decoded->append.table);

  Response response;
  response.request_id = 86;
  response.type = RequestType::kAppend;
  response.append.snapshot_version = 12;
  response.append.catalog_entries = 30;
  response.append.rows_total = 51234;
  response.append.generation = 7;
  auto response_decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(response_decoded.ok()) << response_decoded.status();
  EXPECT_EQ(response_decoded->type, RequestType::kAppend);
  EXPECT_EQ(response_decoded->append.snapshot_version, 12u);
  EXPECT_EQ(response_decoded->append.catalog_entries, 30u);
  EXPECT_EQ(response_decoded->append.rows_total, 51234u);
  EXPECT_EQ(response_decoded->append.generation, 7u);
}

TEST(ProtocolTest, AppendFrameCorruptionAndTruncationAreDetected) {
  Request append;
  append.type = RequestType::kAppend;
  append.request_id = 87;
  append.append.name = "x";
  append.append.table = MakeWireTable();
  std::string frame = EncodeRequest(append);
  for (size_t i = 0; i < frame.size(); ++i) {
    std::string corrupted = frame;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x5A);
    EXPECT_FALSE(DecodeRequest(corrupted).ok())
        << "flip at byte " << i << " went undetected";
  }
  for (size_t keep = 0; keep < frame.size(); ++keep) {
    EXPECT_FALSE(DecodeRequest(frame.substr(0, keep)).ok())
        << "truncation to " << keep << " bytes accepted";
  }

  Response response;
  response.request_id = 88;
  response.type = RequestType::kAppend;
  response.append.rows_total = 99;
  std::string response_frame = EncodeResponse(response);
  for (size_t keep = 0; keep < response_frame.size(); ++keep) {
    EXPECT_FALSE(DecodeResponse(response_frame.substr(0, keep)).ok())
        << "truncation to " << keep << " bytes accepted";
  }
}

Response MakeSearchResponse() {
  Response search;
  search.request_id = 91;
  search.status = WireStatus::kOk;
  search.type = RequestType::kSearch;
  search.search.snapshot_version = 7;
  search.search.entries_total = 10;
  search.search.entries_searched = 6;
  search.search.entries_pruned = 4;
  search.search.bound_evaluations = 8;
  search.search.cluster_bound_evaluations = 5;
  SearchHit hit;
  hit.name = "t000001";
  hit.entry = 1;
  hit.ranking_key = -0.0;
  hit.normalized_score = 1.0 / 3.0;
  hit.metric_value = std::numeric_limits<double>::denorm_min();
  hit.pairs = {{0, 2}, {1, 0}};
  search.search.hits.push_back(hit);
  return search;
}

TEST(ProtocolTest, ResponsesRoundTripBitIdentically) {
  Response search = MakeSearchResponse();
  const SearchHit& hit = search.search.hits[0];
  auto search_decoded = DecodeResponse(EncodeResponse(search));
  ASSERT_TRUE(search_decoded.ok()) << search_decoded.status();
  ASSERT_EQ(search_decoded->search.hits.size(), 1u);
  const SearchHit& decoded_hit = search_decoded->search.hits[0];
  EXPECT_EQ(decoded_hit.name, "t000001");
  EXPECT_EQ(std::bit_cast<uint64_t>(decoded_hit.ranking_key),
            std::bit_cast<uint64_t>(-0.0));
  EXPECT_EQ(std::bit_cast<uint64_t>(decoded_hit.metric_value),
            std::bit_cast<uint64_t>(
                std::numeric_limits<double>::denorm_min()));
  EXPECT_EQ(decoded_hit.pairs, hit.pairs);
  EXPECT_EQ(search_decoded->search.snapshot_version, 7u);
  EXPECT_EQ(search_decoded->search.entries_total, 10u);
  EXPECT_EQ(search_decoded->search.entries_searched, 6u);
  EXPECT_EQ(search_decoded->search.entries_pruned, 4u);
  EXPECT_EQ(search_decoded->search.bound_evaluations, 8u);
  EXPECT_EQ(search_decoded->search.cluster_bound_evaluations, 5u);

  Response match;
  match.request_id = 92;
  match.type = RequestType::kMatchTables;
  match.match.metric_value = 2.75;
  match.match.metric = MetricKind::kEntropyEuclidean;
  match.match.correspondences.push_back({0, 1, "a", "x"});
  auto match_decoded = DecodeResponse(EncodeResponse(match));
  ASSERT_TRUE(match_decoded.ok()) << match_decoded.status();
  ASSERT_EQ(match_decoded->match.correspondences.size(), 1u);
  EXPECT_EQ(match_decoded->match.correspondences[0].source_name, "a");
  EXPECT_EQ(match_decoded->match.correspondences[0].target_name, "x");

  Response error;
  error.request_id = 93;
  error.status = WireStatus::kOverloaded;
  error.message = "queue full";
  error.type = RequestType::kSearch;
  auto error_decoded = DecodeResponse(EncodeResponse(error));
  ASSERT_TRUE(error_decoded.ok()) << error_decoded.status();
  EXPECT_EQ(error_decoded->status, WireStatus::kOverloaded);
  EXPECT_EQ(error_decoded->message, "queue full");
  EXPECT_TRUE(error_decoded->search.hits.empty());

  Response stats;
  stats.request_id = 94;
  stats.type = RequestType::kStats;
  stats.stats.snapshot_version = 3;
  stats.stats.accepted_total = 100;
  stats.stats.shed_overload_total = 5;
  stats.stats.appends_total = 11;
  stats.stats.stat_cache_hits = 42;
  auto stats_decoded = DecodeResponse(EncodeResponse(stats));
  ASSERT_TRUE(stats_decoded.ok()) << stats_decoded.status();
  EXPECT_EQ(stats_decoded->stats.snapshot_version, 3u);
  EXPECT_EQ(stats_decoded->stats.accepted_total, 100u);
  EXPECT_EQ(stats_decoded->stats.shed_overload_total, 5u);
  EXPECT_EQ(stats_decoded->stats.appends_total, 11u);
  EXPECT_EQ(stats_decoded->stats.stat_cache_hits, 42u);
}

// The table Column::Append builds from `table`'s cells, one at a time:
// the reference every decoded table must equal.
Table RebuildCellByCell(const Table& table) {
  TableBuilder builder(table.schema());
  for (size_t c = 0; c < table.num_attributes(); ++c) {
    for (size_t r = 0; r < table.num_rows(); ++r) {
      builder.AppendValue(c, table.GetValue(r, c));
    }
  }
  Result<Table> rebuilt = std::move(builder).Build();
  EXPECT_TRUE(rebuilt.ok());
  return *std::move(rebuilt);
}

std::string TableBytes(const Table& table) {
  std::string bytes;
  AppendTable(&bytes, table);
  return bytes;
}

Table RoundTripTable(const Table& table) {
  std::string bytes = TableBytes(table);
  size_t cursor = 0;
  Result<Table> parsed = ParseTable(bytes, &cursor);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  if (!parsed.ok()) return Table();
  EXPECT_EQ(cursor, bytes.size());
  return *std::move(parsed);
}

Table SingleColumnTable(DataType type, const std::vector<Value>& cells) {
  Result<Schema> schema = Schema::Create({{"a", type}});
  EXPECT_TRUE(schema.ok());
  TableBuilder builder(*schema);
  for (const Value& cell : cells) builder.AppendValue(0, cell);
  Result<Table> table = std::move(builder).Build();
  EXPECT_TRUE(table.ok());
  return *std::move(table);
}

// 40 rows of five columns, with repeats, nulls and ~-0.0, for the
// projection/sampling cases.
Table MakeSampleSource() {
  Result<Schema> schema = Schema::Create({
      {"k", DataType::kInt64},
      {"x", DataType::kDouble},
      {"s", DataType::kString},
      {"n", DataType::kInt64},
      {"y", DataType::kDouble},
  });
  EXPECT_TRUE(schema.ok());
  TableBuilder builder(*schema);
  for (int64_t r = 0; r < 40; ++r) {
    builder.AppendValue(0, Value(r % 7));
    builder.AppendValue(1, r % 5 == 0 ? Value::Null()
                                      : Value((r % 2 ? -0.0 : 0.0) + r % 3));
    builder.AppendValue(2, Value(std::to_string(r % 11) + "s"));
    builder.AppendValue(3, Value::Null());
    builder.AppendValue(4, Value(static_cast<double>(r) / 8.0));
  }
  Result<Table> table = std::move(builder).Build();
  EXPECT_TRUE(table.ok());
  return *std::move(table);
}

// A NaN entry reused through AppendCode: Column::Append would have
// interned each of those cells as its own entry (NaN != NaN), so this
// column is not in the form its cell-by-cell rebuild has.
Table MakeReusedNaNTable() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Column column(DataType::kDouble);
  column.Append(Value(nan));
  column.Append(Value(2.0));
  column.AppendCode(0);
  column.AppendCode(Column::kNullCode);
  column.AppendCode(1);
  column.AppendCode(0);
  Result<Schema> schema = Schema::Create({{"a", DataType::kDouble}});
  EXPECT_TRUE(schema.ok());
  std::vector<Column> columns;
  columns.push_back(std::move(column));
  Result<Table> table = AssembleTable(*std::move(schema), std::move(columns));
  EXPECT_TRUE(table.ok());
  return *std::move(table);
}

Table MakeSampledProjection() {
  Result<Table> projected = ProjectColumns(MakeSampleSource(), {4, 2, 0, 1});
  EXPECT_TRUE(projected.ok());
  Rng rng(5);
  return SampleRows(*projected, 17, rng);
}

Request AppendRequestWith(Table table) {
  Request append;
  append.type = RequestType::kAppend;
  append.request_id = 90;
  append.append.name = "x";
  append.append.table = std::move(table);
  return append;
}

TEST(ProtocolTest, EncodingIsDeterministic) {
  Request request = MakeSearchRequest();
  EXPECT_EQ(EncodeRequest(request), EncodeRequest(request));
  // A table and its cell-by-cell rebuild encode to the same bytes.
  for (const Table& table :
       {MakeWireTable(), MakeSampledProjection(), MakeReusedNaNTable()}) {
    EXPECT_EQ(EncodeRequest(AppendRequestWith(table)),
              EncodeRequest(AppendRequestWith(RebuildCellByCell(table))));
  }
}

TEST(ProtocolTest, EverySingleByteRequestCorruptionIsDetected) {
  std::string frame = EncodeRequest(MakeSearchRequest());
  for (size_t i = 0; i < frame.size(); ++i) {
    std::string corrupted = frame;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x5A);
    auto result = DecodeRequest(corrupted);
    EXPECT_FALSE(result.ok()) << "flip at byte " << i << " went undetected";
  }
}

TEST(ProtocolTest, EverySingleByteResponseCorruptionIsDetected) {
  Response insert;
  insert.request_id = 5;
  insert.type = RequestType::kInsert;
  insert.insert.snapshot_version = 2;
  insert.insert.catalog_entries = 9;
  insert.insert.replaced = true;
  for (const Response& response : {insert, MakeSearchResponse()}) {
    std::string frame = EncodeResponse(response);
    for (size_t i = 0; i < frame.size(); ++i) {
      std::string corrupted = frame;
      corrupted[i] = static_cast<char>(corrupted[i] ^ 0x5A);
      auto result = DecodeResponse(corrupted);
      EXPECT_FALSE(result.ok()) << "flip at byte " << i << " went undetected";
    }
    for (size_t keep = 0; keep < frame.size(); ++keep) {
      EXPECT_FALSE(DecodeResponse(frame.substr(0, keep)).ok())
          << "truncation to " << keep << " bytes accepted";
    }
  }
}

TEST(ProtocolTest, EveryTruncationIsDetected) {
  std::string frame = EncodeRequest(MakeSearchRequest());
  for (size_t keep = 0; keep < frame.size(); ++keep) {
    auto result = DecodeRequest(frame.substr(0, keep));
    EXPECT_FALSE(result.ok()) << "truncation to " << keep << " bytes accepted";
  }
}

TEST(ProtocolTest, TrailingGarbageIsRejected) {
  std::string frame = EncodeRequest(MakeSearchRequest());
  EXPECT_FALSE(DecodeRequest(frame + std::string(1, '\0')).ok());
  EXPECT_FALSE(DecodeRequest(frame + frame).ok());
}

TEST(ProtocolTest, HeaderValidatesMagicVersionAndBound) {
  std::string frame = EncodeRequest(MakeSearchRequest());
  std::string header = frame.substr(0, kFrameHeaderBytes);

  auto body_len = DecodeFrameHeader(header, /*expect_request=*/true);
  ASSERT_TRUE(body_len.ok()) << body_len.status();
  EXPECT_EQ(FrameSizeForBody(*body_len), frame.size());

  // A request frame is not a response frame (and vice versa).
  EXPECT_FALSE(DecodeFrameHeader(header, /*expect_request=*/false).ok());
  EXPECT_FALSE(DecodeResponse(frame).ok());

  // Short header.
  EXPECT_FALSE(
      DecodeFrameHeader(header.substr(0, kFrameHeaderBytes - 1), true).ok());

  // Wrong magic.
  std::string bad_magic = header;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeFrameHeader(bad_magic, true).ok());

  // Future version, and the previous one (its search payload lacks the
  // bound-evaluation counters).
  for (char version : {char{9}, char{kProtocolVersion - 1}}) {
    std::string bad_version = header;
    bad_version[4] = version;
    auto version_result = DecodeFrameHeader(bad_version, true);
    ASSERT_FALSE(version_result.ok());
    EXPECT_NE(version_result.status().message().find("version"),
              std::string::npos);
  }

  // Hostile body length: rejected from the 16-byte prefix alone, before
  // anything would be allocated or read.
  std::string oversized;
  oversized += kRequestMagic;
  graphio::AppendU32(&oversized, kProtocolVersion);
  graphio::AppendU64(&oversized, kMaxFrameBodyBytes + 1);
  auto oversized_result = DecodeFrameHeader(oversized, true);
  ASSERT_FALSE(oversized_result.ok());
  EXPECT_EQ(oversized_result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, BadEnumValuesUnderValidCrcAreRejected) {
  // Corrupt semantic bytes and re-seal the CRC, so the *field*
  // validators (not the checksum) must catch each one.
  std::string frame = EncodeRequest(MakeSearchRequest());

  std::string bad_type = frame;
  bad_type[kFrameHeaderBytes] = 0x77;  // request type
  EXPECT_FALSE(DecodeRequest(Reseal(bad_type)).ok());

  // First body byte after type(1) + id(8) + deadline(8): search source.
  std::string bad_source = frame;
  bad_source[kFrameHeaderBytes + 17] = 0x09;
  EXPECT_FALSE(DecodeRequest(Reseal(bad_source)).ok());

  Response response;
  response.request_id = 6;
  response.type = RequestType::kStats;
  std::string response_frame = EncodeResponse(response);
  std::string bad_status = response_frame;
  bad_status[kFrameHeaderBytes + 8] = 0x7F;  // wire status after id echo
  EXPECT_FALSE(DecodeResponse(Reseal(bad_status)).ok());
}

TEST(ProtocolTest, TableCodecRoundTripsAndBoundsChecks) {
  Table table = MakeWireTable();
  std::string bytes;
  AppendTable(&bytes, table);
  size_t cursor = 0;
  auto parsed = ParseTable(bytes, &cursor);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(cursor, bytes.size());
  ExpectSameColumns(table, *parsed);

  // A hostile attribute count cannot force a huge allocation: the
  // count is checked against the remaining bytes first.
  std::string hostile;
  graphio::AppendU64(&hostile, ~0ull);
  size_t hostile_cursor = 0;
  EXPECT_FALSE(ParseTable(hostile, &hostile_cursor).ok());
}

TEST(ProtocolTest, TableCodecPicksTheNarrowestWidthAtEveryBoundary) {
  // Wire codes run 0..d, so d = 255 still fits one byte and d = 65535
  // two. Layout of a one-int64-column table: attribute count (8), name
  // (8 + 1), type (1), rows (8), d (8), d values (8 each), width (1).
  for (uint64_t d : {254u, 255u, 256u, 65534u, 65535u, 65536u}) {
    uint8_t width = d <= 255 ? 1 : d <= 65535 ? 2 : 4;
    std::vector<Value> cells;
    for (uint64_t i = 0; i < d; ++i) {
      cells.emplace_back(static_cast<int64_t>(i * 3));
    }
    cells.emplace_back();
    cells.emplace_back(static_cast<int64_t>(0));
    cells.emplace_back(static_cast<int64_t>((d - 1) * 3));
    Table table = SingleColumnTable(DataType::kInt64, cells);
    std::string bytes = TableBytes(table);
    size_t width_at = 34 + 8 * d;
    ASSERT_EQ(bytes.size(), width_at + 1 + cells.size() * width) << d;
    EXPECT_EQ(static_cast<uint8_t>(bytes[width_at]), width) << d;
    ExpectSameColumns(RoundTripTable(table), table);
  }
}

TEST(ProtocolTest, TableCodecRoundTripsNaNsNullsAndEmptyShapes) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double negative_nan = -std::numeric_limits<double>::quiet_NaN();
  Table nans = SingleColumnTable(
      DataType::kDouble, {Value(nan), Value(1.0), Value(nan), Value::Null(),
                          Value(negative_nan), Value(1.0), Value(nan)});
  // Each NaN cell is its own entry, as Column::Append interns them.
  ASSERT_EQ(nans.column(0).distinct_count(), 5u);
  Table decoded_nans = RoundTripTable(nans);
  ExpectSameColumns(decoded_nans, nans);
  EXPECT_TRUE(std::isnan(decoded_nans.GetValue(6, 0).double_value()));

  Table all_null = SingleColumnTable(
      DataType::kString, {Value::Null(), Value::Null(), Value::Null()});
  Table decoded_null = RoundTripTable(all_null);
  ExpectSameColumns(decoded_null, all_null);
  EXPECT_EQ(decoded_null.column(0).null_count(), 3u);

  Result<Schema> schema = Schema::Create(
      {{"a", DataType::kInt64}, {"b", DataType::kString}});
  ASSERT_TRUE(schema.ok());
  Result<Table> no_rows = TableBuilder(*schema).Build();
  ASSERT_TRUE(no_rows.ok());
  Table decoded_empty = RoundTripTable(*no_rows);
  EXPECT_EQ(decoded_empty.num_attributes(), 2u);
  ExpectSameColumns(decoded_empty, *no_rows);

  Table no_attributes = RoundTripTable(Table());
  EXPECT_EQ(no_attributes.num_attributes(), 0u);
  EXPECT_EQ(no_attributes.num_rows(), 0u);
}

TEST(ProtocolTest, TablesDecodeExactlyLikeTheirCellByCellRebuild) {
  // Including SampleRows over a projection, and a NaN entry reused
  // through AppendCode: the server sees the table Column::Append builds
  // from the same cells, not the client's dictionary layout.
  for (const Table& table : {MakeWireTable(), MakeSampleSource(),
                             MakeSampledProjection(), MakeReusedNaNTable()}) {
    Table rebuilt = RebuildCellByCell(table);
    ExpectSameColumns(RoundTripTable(table), rebuilt);
    EXPECT_EQ(TableBytes(table), TableBytes(rebuilt));
  }
  EXPECT_EQ(MakeReusedNaNTable().column(0).distinct_count(), 2u);
  EXPECT_EQ(RoundTripTable(MakeReusedNaNTable()).column(0).distinct_count(),
            4u);
}

// ---- hand-built tables under a valid CRC -----------------------------------

void AppendWireString(std::string* out, std::string_view text) {
  graphio::AppendU64(out, text.size());
  out->append(text);
}

// One column on the wire: d, the raw dictionary bytes, width, codes.
std::string WireColumn(uint64_t dictionary_size, const std::string& values,
                       uint8_t width, const std::vector<uint32_t>& codes) {
  std::string out;
  graphio::AppendU64(&out, dictionary_size);
  out += values;
  out.push_back(static_cast<char>(width));
  for (uint32_t code : codes) {
    for (uint8_t b = 0; b < width; ++b) {
      out.push_back(static_cast<char>((code >> (8 * b)) & 0xFFu));
    }
  }
  return out;
}

// One attribute "a" of `type`, `rows` rows, then `column` verbatim.
std::string OneColumnTable(DataType type, uint64_t rows,
                           const std::string& column) {
  std::string out;
  graphio::AppendU64(&out, 1);
  AppendWireString(&out, "a");
  out.push_back(static_cast<char>(type));
  graphio::AppendU64(&out, rows);
  return out + column;
}

std::string Int64Values(const std::vector<int64_t>& values) {
  std::string out;
  for (int64_t v : values) graphio::AppendU64(&out, static_cast<uint64_t>(v));
  return out;
}

// An append request frame carrying `table_bytes` as its table, under a
// valid CRC, so the table checks (not the checksum) must judge it.
std::string AppendFrameWithTable(const std::string& table_bytes) {
  std::string frame = EncodeRequest(AppendRequestWith(Table()));
  // An empty table is the last 16 body bytes (two zero counts).
  frame.resize(frame.size() - kFrameTrailerBytes - 16);
  frame += table_bytes;
  frame.resize(frame.size() + kFrameTrailerBytes);
  return Reseal(frame);
}

void ExpectTableRejected(const std::string& table_bytes,
                         std::string_view reason) {
  Result<Request> decoded = DecodeRequest(AppendFrameWithTable(table_bytes));
  ASSERT_FALSE(decoded.ok()) << "accepted; expected: " << reason;
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find(reason), std::string::npos)
      << decoded.status().message();
}

TEST(ProtocolTest, HandBuiltCanonicalColumnDecodes) {
  Result<Request> decoded = DecodeRequest(AppendFrameWithTable(OneColumnTable(
      DataType::kInt64, 4,
      WireColumn(2, Int64Values({5, 6}), 1, {1, 0, 2, 1}))));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectSameColumns(
      decoded->append.table,
      SingleColumnTable(DataType::kInt64, {Value(int64_t{5}), Value::Null(),
                                           Value(int64_t{6}),
                                           Value(int64_t{5})}));
}

TEST(ProtocolTest, NonCanonicalColumnsUnderValidCrcAreRejected) {
  std::string zeros;
  graphio::AppendF64(&zeros, 0.0);
  graphio::AppendF64(&zeros, -0.0);
  ExpectTableRejected(
      OneColumnTable(DataType::kDouble, 2, WireColumn(2, zeros, 1, {1, 2})),
      "repeats an earlier entry");
  std::string strings;
  AppendWireString(&strings, "dup");
  AppendWireString(&strings, "dup");
  ExpectTableRejected(
      OneColumnTable(DataType::kString, 2, WireColumn(2, strings, 1, {2, 1})),
      "out of first-appearance order");
  ExpectTableRejected(
      OneColumnTable(DataType::kString, 2, WireColumn(2, strings, 1, {1, 2})),
      "repeats an earlier entry");
  std::string nan;
  graphio::AppendF64(&nan, std::numeric_limits<double>::quiet_NaN());
  ExpectTableRejected(
      OneColumnTable(DataType::kDouble, 2, WireColumn(1, nan, 1, {1, 1})),
      "NaN dictionary entry");
  ExpectTableRejected(OneColumnTable(DataType::kInt64, 2,
                                     WireColumn(2, Int64Values({1, 2}), 1,
                                                {1, 1})),
                      "unused dictionary entry");
  ExpectTableRejected(OneColumnTable(DataType::kInt64, 3,
                                     WireColumn(2, Int64Values({1, 2}), 1,
                                                {2, 1, 2})),
                      "out of first-appearance order");
  ExpectTableRejected(
      OneColumnTable(DataType::kInt64, 2,
                     WireColumn(1, Int64Values({7}), 1, {1, 2})),
      "code exceeds dictionary size");
  ExpectTableRejected(
      OneColumnTable(DataType::kInt64, 2,
                     WireColumn(1, Int64Values({7}), 2, {1, 1})),
      "code width is not the narrowest");
  ExpectTableRejected(
      OneColumnTable(DataType::kInt64, 2,
                     WireColumn(1, Int64Values({7}), 3, {1, 1})),
      "code width is not the narrowest");
  // Rows without attributes.
  std::string rows_only;
  graphio::AppendU64(&rows_only, 0);
  graphio::AppendU64(&rows_only, 3);
  ExpectTableRejected(rows_only, "row count exceeds frame");
}

TEST(ProtocolTest, OversizedColumnCountsAreRejectedBeforeAllocating) {
  // Declared counts up to 2^64 - 1: were any of them allocated before
  // the bound check, the decode would throw instead of returning.
  std::string padding(1000, '\0');
  std::string column;
  graphio::AppendU64(&column, ~0ull);
  ExpectTableRejected(OneColumnTable(DataType::kInt64, 1000, column + padding),
                      "dictionary larger than its column");
  column.clear();
  graphio::AppendU64(&column, 900);  // <= rows, but 900 x 8 > frame
  ExpectTableRejected(OneColumnTable(DataType::kString, 1000, column + padding),
                      "dictionary size exceeds frame");
  ExpectTableRejected(OneColumnTable(DataType::kInt64, ~0ull, padding),
                      "row count exceeds frame");
  // 300 entries need 2-byte codes: 1000 rows x 2 bytes, but only 1000
  // bytes follow.
  std::vector<int64_t> values;
  for (int64_t v = 0; v < 300; ++v) values.push_back(v);
  std::string short_codes =
      WireColumn(300, Int64Values(values), 2, {}) + padding;
  ExpectTableRejected(OneColumnTable(DataType::kInt64, 1000, short_codes),
                      "column codes exceed frame");
}

TEST(ProtocolTest, WireStatusMapsStatusCodes) {
  EXPECT_EQ(WireStatusFromStatusCode(StatusCode::kInvalidArgument),
            WireStatus::kInvalidArgument);
  EXPECT_EQ(WireStatusFromStatusCode(StatusCode::kNotFound),
            WireStatus::kNotFound);
  EXPECT_EQ(WireStatusFromStatusCode(StatusCode::kAlreadyExists),
            WireStatus::kAlreadyExists);
  EXPECT_EQ(WireStatusToString(WireStatus::kOverloaded), "overloaded");
}

}  // namespace
}  // namespace service
}  // namespace depmatch
