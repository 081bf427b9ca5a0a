// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.

#include "depmatch/service/protocol.h"

#include <cstring>
#include <utility>

#include "depmatch/common/string_util.h"
#include "depmatch/graph/graph_io.h"

namespace depmatch {
namespace service {

namespace {

using graphio::AppendF64;
using graphio::AppendU32;
using graphio::AppendU64;
using graphio::Crc32;
using graphio::ReadF64;
using graphio::ReadU32;
using graphio::ReadU64;

// Strings and nested blobs are u64-length-prefixed raw bytes.
void AppendString(std::string* out, std::string_view text) {
  AppendU64(out, text.size());
  out->append(text.data(), text.size());
}

bool ReadByte(std::string_view bytes, size_t* cursor, uint8_t* value) {
  if (*cursor + 1 > bytes.size()) return false;
  *value = static_cast<uint8_t>(bytes[*cursor]);
  *cursor += 1;
  return true;
}

void AppendByte(std::string* out, uint8_t value) {
  out->push_back(static_cast<char>(value));
}

// Reads a length-prefixed string; the length is bounds-checked against
// the remaining bytes before any allocation, so a corrupt length cannot
// trigger a huge allocation or an out-of-range read.
bool ReadString(std::string_view bytes, size_t* cursor, std::string* value) {
  uint64_t length = 0;
  if (!ReadU64(bytes, cursor, &length)) return false;
  if (length > bytes.size() - *cursor) return false;
  value->assign(bytes.data() + *cursor, static_cast<size_t>(length));
  *cursor += static_cast<size_t>(length);
  return true;
}

Status Malformed(const char* what) {
  return InvalidArgumentError(
      StrFormat("malformed service frame: %s", what));
}

// ---- enum validation -------------------------------------------------------

bool ValidRequestType(uint8_t raw) {
  return raw >= static_cast<uint8_t>(RequestType::kMatchTables) &&
         raw <= static_cast<uint8_t>(RequestType::kAppend);
}

bool ValidWireStatus(uint8_t raw) {
  return raw <= static_cast<uint8_t>(WireStatus::kShuttingDown);
}

bool ValidCardinality(uint8_t raw) {
  return raw <= static_cast<uint8_t>(Cardinality::kPartial);
}

bool ValidMetric(uint8_t raw) {
  return raw <= static_cast<uint8_t>(MetricKind::kEntropyNormal);
}

bool ValidAlgorithm(uint8_t raw) {
  return raw <= static_cast<uint8_t>(MatchAlgorithm::kSimulatedAnnealing);
}

bool ValidDataType(uint8_t raw) {
  return raw <= static_cast<uint8_t>(DataType::kString);
}

// ---- match options ---------------------------------------------------------

void AppendMatchOptions(std::string* out, const WireMatchOptions& options) {
  AppendByte(out, static_cast<uint8_t>(options.cardinality));
  AppendByte(out, static_cast<uint8_t>(options.metric));
  AppendByte(out, static_cast<uint8_t>(options.algorithm));
  AppendF64(out, options.alpha);
  AppendU64(out, options.candidates_per_attribute);
  AppendU64(out, options.max_search_nodes);
}

Status ParseMatchOptions(std::string_view bytes, size_t* cursor,
                         WireMatchOptions* options) {
  uint8_t cardinality = 0;
  uint8_t metric = 0;
  uint8_t algorithm = 0;
  if (!ReadByte(bytes, cursor, &cardinality) ||
      !ReadByte(bytes, cursor, &metric) ||
      !ReadByte(bytes, cursor, &algorithm) ||
      !ReadF64(bytes, cursor, &options->alpha) ||
      !ReadU64(bytes, cursor, &options->candidates_per_attribute) ||
      !ReadU64(bytes, cursor, &options->max_search_nodes)) {
    return Malformed("truncated match options");
  }
  if (!ValidCardinality(cardinality)) return Malformed("bad cardinality");
  if (!ValidMetric(metric)) return Malformed("bad metric kind");
  if (!ValidAlgorithm(algorithm)) return Malformed("bad match algorithm");
  options->cardinality = static_cast<Cardinality>(cardinality);
  options->metric = static_cast<MetricKind>(metric);
  options->algorithm = static_cast<MatchAlgorithm>(algorithm);
  return OkStatus();
}

// ---- graphs ----------------------------------------------------------------

// Graphs ride as nested DMG1 blobs (graph/graph_io.h): the inner blob
// carries its own CRC, and doubles round-trip bit-identically.
void AppendGraph(std::string* out, const DependencyGraph& graph) {
  AppendString(out, SerializeGraphBinary(graph));
}

Status ParseGraph(std::string_view bytes, size_t* cursor,
                  DependencyGraph* graph) {
  std::string blob;
  if (!ReadString(bytes, cursor, &blob)) {
    return Malformed("truncated graph blob");
  }
  Result<DependencyGraph> parsed = DeserializeGraphBinary(blob);
  if (!parsed.ok()) return parsed.status();
  *graph = *std::move(parsed);
  return OkStatus();
}

// ---- match pairs -----------------------------------------------------------

void AppendMatchPairs(std::string* out, const std::vector<MatchPair>& pairs) {
  AppendU64(out, pairs.size());
  for (const MatchPair& pair : pairs) {
    AppendU64(out, pair.source);
    AppendU64(out, pair.target);
  }
}

Status ParseMatchPairs(std::string_view bytes, size_t* cursor,
                       std::vector<MatchPair>* pairs) {
  uint64_t count = 0;
  if (!ReadU64(bytes, cursor, &count)) return Malformed("truncated pairs");
  // Each pair needs 16 bytes; reject counts the frame cannot hold.
  if (count > (bytes.size() - *cursor) / 16) {
    return Malformed("pair count exceeds frame");
  }
  pairs->clear();
  pairs->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t source = 0;
    uint64_t target = 0;
    if (!ReadU64(bytes, cursor, &source) ||
        !ReadU64(bytes, cursor, &target)) {
      return Malformed("truncated pair");
    }
    pairs->push_back(MatchPair{static_cast<size_t>(source),
                               static_cast<size_t>(target)});
  }
  return OkStatus();
}

// ---- table columns ---------------------------------------------------------

// Narrowest code width that holds the wire codes 0..dictionary_size
// (0 = null, c + 1 for dictionary entry c).
uint8_t CodeWidth(uint64_t dictionary_size) {
  if (dictionary_size <= 0xFFu) return 1;
  if (dictionary_size <= 0xFFFFu) return 2;
  return 4;
}

bool IsNaN(const Value& value) {
  return value.is_double() && value.double_value() != value.double_value();
}

void AppendDictionaryValue(std::string* out, const Value& value) {
  if (value.is_int64()) {
    AppendU64(out, static_cast<uint64_t>(value.int64_value()));
  } else if (value.is_double()) {
    AppendF64(out, value.double_value());
  } else {
    AppendString(out, value.string_value());
  }
}

// Appends one column in canonical form: the entries its rows use,
// renumbered densely in first-appearance order by one pass over codes(),
// so any Column encodes exactly like its cell-by-cell TableBuilder
// rebuild. A NaN entry is emitted afresh at every cell, because
// Column::Append interns each NaN cell as a new entry (NaN != NaN); a
// NaN entry reused through AppendCode is where the remap departs from
// the client's own codes.
void AppendColumn(std::string* out, const Column& column) {
  const std::vector<int32_t>& codes = column.codes();
  const std::vector<Value>& dictionary = column.dictionary();
  constexpr uint32_t kUnseen = 0;
  constexpr uint32_t kFreshEachCell = ~uint32_t{0};
  std::vector<uint32_t> remap(dictionary.size(), kUnseen);
  if (column.type() == DataType::kDouble) {
    for (size_t c = 0; c < dictionary.size(); ++c) {
      if (IsNaN(dictionary[c])) remap[c] = kFreshEachCell;
    }
  }
  std::vector<uint32_t> wire(codes.size(), 0);
  std::vector<int32_t> order;  // source code of each wire entry
  for (size_t row = 0; row < codes.size(); ++row) {
    int32_t code = codes[row];
    if (code == Column::kNullCode) continue;
    uint32_t& slot = remap[static_cast<size_t>(code)];
    if (slot == kUnseen || slot == kFreshEachCell) {
      order.push_back(code);
      wire[row] = static_cast<uint32_t>(order.size());
      if (slot == kUnseen) slot = wire[row];
    } else {
      wire[row] = slot;
    }
  }
  AppendU64(out, order.size());
  for (int32_t code : order) {
    AppendDictionaryValue(out, dictionary[static_cast<size_t>(code)]);
  }
  uint8_t width = CodeWidth(order.size());
  AppendByte(out, width);
  size_t offset = out->size();
  out->resize(offset + wire.size() * width);
  char* dst = out->data() + offset;
  for (uint32_t code : wire) {
    for (uint8_t b = 0; b < width; ++b) {
      *dst++ = static_cast<char>((code >> (8 * b)) & 0xFFu);
    }
  }
}

bool ReadDictionaryValue(std::string_view bytes, size_t* cursor,
                         DataType type, Value* value) {
  switch (type) {
    case DataType::kInt64: {
      uint64_t raw = 0;
      if (!ReadU64(bytes, cursor, &raw)) return false;
      *value = Value(static_cast<int64_t>(raw));
      return true;
    }
    case DataType::kDouble: {
      double raw = 0.0;
      if (!ReadF64(bytes, cursor, &raw)) return false;
      *value = Value(raw);
      return true;
    }
    case DataType::kString: {
      std::string raw;
      if (!ReadString(bytes, cursor, &raw)) return false;
      *value = Value(std::move(raw));
      return true;
    }
  }
  return false;
}

uint32_t LoadCode(const unsigned char* src, uint8_t width) {
  uint32_t code = 0;
  for (uint8_t b = 0; b < width; ++b) {
    code |= static_cast<uint32_t>(src[b]) << (8 * b);
  }
  return code;
}

// Parses one column written by AppendColumn and accepts only its
// canonical form, so the decoded Column is exactly the one
// Column::Append builds from the same cells: each entry is interned
// once, at its first appearance, and every other cell is appended by
// code.
Status ParseColumn(std::string_view bytes, size_t* cursor, DataType type,
                   uint64_t num_rows, Column* column) {
  uint64_t dictionary_size = 0;
  if (!ReadU64(bytes, cursor, &dictionary_size)) {
    return Malformed("truncated dictionary size");
  }
  // Every entry is used by a row and takes at least 8 bytes.
  if (dictionary_size > num_rows) {
    return Malformed("dictionary larger than its column");
  }
  if (dictionary_size > (bytes.size() - *cursor) / 8) {
    return Malformed("dictionary size exceeds frame");
  }
  std::vector<Value> dictionary(static_cast<size_t>(dictionary_size));
  for (Value& value : dictionary) {
    if (!ReadDictionaryValue(bytes, cursor, type, &value)) {
      return Malformed("truncated dictionary value");
    }
  }
  uint8_t width = 0;
  if (!ReadByte(bytes, cursor, &width)) {
    return Malformed("truncated code width");
  }
  if (width != CodeWidth(dictionary_size)) {
    return Malformed("code width is not the narrowest for the dictionary");
  }
  if (num_rows > (bytes.size() - *cursor) / width) {
    return Malformed("column codes exceed frame");
  }
  column->Reserve(static_cast<size_t>(num_rows),
                  static_cast<size_t>(dictionary_size));
  const auto* src =
      reinterpret_cast<const unsigned char*>(bytes.data() + *cursor);
  *cursor += static_cast<size_t>(num_rows) * width;
  uint32_t interned = 0;  // wire codes 1..interned have appeared
  for (uint64_t row = 0; row < num_rows; ++row, src += width) {
    uint32_t code = LoadCode(src, width);
    if (code == 0) {
      column->AppendCode(Column::kNullCode);
    } else if (code > dictionary_size) {
      return Malformed("code exceeds dictionary size");
    } else if (code > interned) {
      if (code != interned + 1) {
        return Malformed("dictionary entry out of first-appearance order");
      }
      column->Append(dictionary[interned]);
      if (column->distinct_count() != code) {
        return Malformed("dictionary value repeats an earlier entry");
      }
      interned = code;
    } else if (IsNaN(dictionary[code - 1])) {
      return Malformed("NaN dictionary entry used by more than one cell");
    } else {
      column->AppendCode(static_cast<int32_t>(code - 1));
    }
  }
  if (interned != dictionary_size) return Malformed("unused dictionary entry");
  return OkStatus();
}

// ---- frame assembly --------------------------------------------------------

// Starts a frame: magic, version and a body-length placeholder. The
// body is then appended in place and SealFrame patches the length, so
// a large body is never copied into a second buffer.
std::string BeginFrame(std::string_view magic) {
  std::string frame(magic);
  AppendU32(&frame, kProtocolVersion);
  AppendU64(&frame, 0);
  return frame;
}

void SealFrame(std::string* frame) {
  uint64_t body_bytes = frame->size() - kFrameHeaderBytes;
  for (size_t i = 0; i < 8; ++i) {
    (*frame)[8 + i] = static_cast<char>((body_bytes >> (8 * i)) & 0xFFu);
  }
  AppendU32(frame, Crc32(*frame));
}

// ---- frame opening ---------------------------------------------------------

// Validates magic/version/length/CRC and returns the body span.
Result<std::string_view> OpenFrame(std::string_view frame,
                                   std::string_view magic) {
  if (frame.size() < kFrameHeaderBytes + kFrameTrailerBytes) {
    return Malformed("frame shorter than header + checksum");
  }
  Result<uint64_t> body_bytes =
      DecodeFrameHeader(frame.substr(0, kFrameHeaderBytes),
                        magic == kRequestMagic);
  if (!body_bytes.ok()) return body_bytes.status();
  if (frame.size() != FrameSizeForBody(*body_bytes)) {
    return Malformed("frame size does not match header body length");
  }
  size_t crc_offset = frame.size() - kFrameTrailerBytes;
  size_t cursor = crc_offset;
  uint32_t stored_crc = 0;
  if (!ReadU32(frame, &cursor, &stored_crc)) {
    return Malformed("truncated checksum");
  }
  if (Crc32(frame.substr(0, crc_offset)) != stored_crc) {
    return Malformed("checksum mismatch");
  }
  return frame.substr(kFrameHeaderBytes,
                      crc_offset - kFrameHeaderBytes);
}

}  // namespace

std::string_view RequestTypeToString(RequestType type) {
  switch (type) {
    case RequestType::kMatchTables:
      return "match_tables";
    case RequestType::kSearch:
      return "search";
    case RequestType::kInsert:
      return "insert";
    case RequestType::kStats:
      return "stats";
    case RequestType::kAppend:
      return "append";
  }
  return "unknown";
}

std::string_view WireStatusToString(WireStatus status) {
  switch (status) {
    case WireStatus::kOk:
      return "ok";
    case WireStatus::kInvalidArgument:
      return "invalid_argument";
    case WireStatus::kNotFound:
      return "not_found";
    case WireStatus::kFailedPrecondition:
      return "failed_precondition";
    case WireStatus::kAlreadyExists:
      return "already_exists";
    case WireStatus::kInternal:
      return "internal";
    case WireStatus::kUnimplemented:
      return "unimplemented";
    case WireStatus::kResourceExhausted:
      return "resource_exhausted";
    case WireStatus::kOverloaded:
      return "overloaded";
    case WireStatus::kDeadlineExceeded:
      return "deadline_exceeded";
    case WireStatus::kShuttingDown:
      return "shutting_down";
  }
  return "unknown";
}

WireStatus WireStatusFromStatusCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return WireStatus::kOk;
    case StatusCode::kInvalidArgument:
      return WireStatus::kInvalidArgument;
    case StatusCode::kNotFound:
      return WireStatus::kNotFound;
    case StatusCode::kOutOfRange:
      return WireStatus::kInvalidArgument;
    case StatusCode::kFailedPrecondition:
      return WireStatus::kFailedPrecondition;
    case StatusCode::kAlreadyExists:
      return WireStatus::kAlreadyExists;
    case StatusCode::kInternal:
      return WireStatus::kInternal;
    case StatusCode::kUnimplemented:
      return WireStatus::kUnimplemented;
    case StatusCode::kResourceExhausted:
      return WireStatus::kResourceExhausted;
  }
  return WireStatus::kInternal;
}

MatchOptions WireMatchOptions::ToMatchOptions(size_t num_threads) const {
  MatchOptions options;
  options.cardinality = cardinality;
  options.metric = metric;
  options.algorithm = algorithm;
  options.alpha = alpha;
  options.candidates_per_attribute =
      static_cast<size_t>(candidates_per_attribute);
  options.max_search_nodes = max_search_nodes;
  options.num_threads = num_threads;
  return options;
}

WireMatchOptions WireMatchOptions::FromMatchOptions(
    const MatchOptions& options) {
  WireMatchOptions wire;
  wire.cardinality = options.cardinality;
  wire.metric = options.metric;
  wire.algorithm = options.algorithm;
  wire.alpha = options.alpha;
  wire.candidates_per_attribute = options.candidates_per_attribute;
  wire.max_search_nodes = options.max_search_nodes;
  return wire;
}

// ---- table codec -----------------------------------------------------------

void AppendTable(std::string* out, const Table& table) {
  const Schema& schema = table.schema();
  AppendU64(out, schema.num_attributes());
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    AppendString(out, schema.attribute(i).name);
    AppendByte(out, static_cast<uint8_t>(schema.attribute(i).type));
  }
  AppendU64(out, table.num_rows());
  for (const Column& column : table.columns()) AppendColumn(out, column);
}

Result<Table> ParseTable(std::string_view bytes, size_t* cursor) {
  uint64_t num_attributes = 0;
  if (!ReadU64(bytes, cursor, &num_attributes)) {
    return Malformed("truncated table schema");
  }
  // Every attribute record needs at least 9 bytes (name length + type).
  if (num_attributes > (bytes.size() - *cursor) / 9) {
    return Malformed("attribute count exceeds frame");
  }
  std::vector<AttributeSpec> attributes;
  attributes.reserve(static_cast<size_t>(num_attributes));
  for (uint64_t i = 0; i < num_attributes; ++i) {
    AttributeSpec spec;
    uint8_t type = 0;
    if (!ReadString(bytes, cursor, &spec.name) ||
        !ReadByte(bytes, cursor, &type)) {
      return Malformed("truncated attribute spec");
    }
    if (!ValidDataType(type)) return Malformed("bad attribute type");
    spec.type = static_cast<DataType>(type);
    attributes.push_back(std::move(spec));
  }
  Result<Schema> schema = Schema::Create(std::move(attributes));
  if (!schema.ok()) return schema.status();

  uint64_t num_rows = 0;
  if (!ReadU64(bytes, cursor, &num_rows)) {
    return Malformed("truncated table row count");
  }
  // A table without attributes has no rows; otherwise each cell needs
  // at least a 1-byte code.
  if (num_attributes == 0 ? num_rows != 0
                          : num_rows > (bytes.size() - *cursor) /
                                           num_attributes) {
    return Malformed("row count exceeds frame");
  }
  std::vector<Column> columns;
  columns.reserve(static_cast<size_t>(num_attributes));
  for (size_t col = 0; col < num_attributes; ++col) {
    DataType type = schema->attribute(col).type;
    columns.emplace_back(type);
    DEPMATCH_RETURN_IF_ERROR(
        ParseColumn(bytes, cursor, type, num_rows, &columns.back()));
  }
  return AssembleTable(*std::move(schema), std::move(columns));
}

// ---- request ---------------------------------------------------------------

std::string EncodeRequest(const Request& request) {
  std::string frame = BeginFrame(kRequestMagic);
  AppendByte(&frame, static_cast<uint8_t>(request.type));
  AppendU64(&frame, request.request_id);
  AppendU64(&frame, request.deadline_ms);
  switch (request.type) {
    case RequestType::kMatchTables:
      AppendMatchOptions(&frame, request.match.options);
      AppendTable(&frame, request.match.source);
      AppendTable(&frame, request.match.target);
      break;
    case RequestType::kSearch:
      AppendByte(&frame, static_cast<uint8_t>(request.search.source));
      AppendU64(&frame, request.search.k);
      AppendMatchOptions(&frame, request.search.options);
      if (request.search.source == SearchSource::kInlineTable) {
        AppendTable(&frame, request.search.table);
      } else {
        AppendString(&frame, request.search.stored_name);
      }
      break;
    case RequestType::kInsert:
      AppendString(&frame, request.insert.name);
      AppendByte(&frame, static_cast<uint8_t>(request.insert.payload));
      AppendByte(&frame, request.insert.replace_existing ? 1 : 0);
      if (request.insert.payload == InsertPayload::kTable) {
        AppendTable(&frame, request.insert.table);
      } else {
        AppendGraph(&frame, request.insert.graph);
      }
      break;
    case RequestType::kAppend:
      AppendString(&frame, request.append.name);
      AppendTable(&frame, request.append.table);
      break;
    case RequestType::kStats:
      break;
  }
  SealFrame(&frame);
  return frame;
}

Result<Request> DecodeRequest(std::string_view frame) {
  Result<std::string_view> body = OpenFrame(frame, kRequestMagic);
  if (!body.ok()) return body.status();
  std::string_view bytes = *body;
  size_t cursor = 0;

  Request request;
  uint8_t type = 0;
  if (!ReadByte(bytes, &cursor, &type) ||
      !ReadU64(bytes, &cursor, &request.request_id) ||
      !ReadU64(bytes, &cursor, &request.deadline_ms)) {
    return Malformed("truncated request header");
  }
  if (!ValidRequestType(type)) return Malformed("unknown request type");
  request.type = static_cast<RequestType>(type);

  switch (request.type) {
    case RequestType::kMatchTables: {
      DEPMATCH_RETURN_IF_ERROR(
          ParseMatchOptions(bytes, &cursor, &request.match.options));
      Result<Table> source = ParseTable(bytes, &cursor);
      if (!source.ok()) return source.status();
      Result<Table> target = ParseTable(bytes, &cursor);
      if (!target.ok()) return target.status();
      request.match.source = *std::move(source);
      request.match.target = *std::move(target);
      break;
    }
    case RequestType::kSearch: {
      uint8_t source = 0;
      if (!ReadByte(bytes, &cursor, &source) ||
          !ReadU64(bytes, &cursor, &request.search.k)) {
        return Malformed("truncated search header");
      }
      if (source > static_cast<uint8_t>(SearchSource::kStoredEntry)) {
        return Malformed("bad search source");
      }
      request.search.source = static_cast<SearchSource>(source);
      DEPMATCH_RETURN_IF_ERROR(
          ParseMatchOptions(bytes, &cursor, &request.search.options));
      if (request.search.source == SearchSource::kInlineTable) {
        Result<Table> table = ParseTable(bytes, &cursor);
        if (!table.ok()) return table.status();
        request.search.table = *std::move(table);
      } else if (!ReadString(bytes, &cursor, &request.search.stored_name)) {
        return Malformed("truncated stored entry name");
      }
      break;
    }
    case RequestType::kInsert: {
      uint8_t payload = 0;
      uint8_t replace = 0;
      if (!ReadString(bytes, &cursor, &request.insert.name) ||
          !ReadByte(bytes, &cursor, &payload) ||
          !ReadByte(bytes, &cursor, &replace)) {
        return Malformed("truncated insert header");
      }
      if (payload > static_cast<uint8_t>(InsertPayload::kGraphBlob)) {
        return Malformed("bad insert payload kind");
      }
      if (replace > 1) return Malformed("bad replace flag");
      request.insert.payload = static_cast<InsertPayload>(payload);
      request.insert.replace_existing = replace == 1;
      if (request.insert.payload == InsertPayload::kTable) {
        Result<Table> table = ParseTable(bytes, &cursor);
        if (!table.ok()) return table.status();
        request.insert.table = *std::move(table);
      } else {
        DEPMATCH_RETURN_IF_ERROR(
            ParseGraph(bytes, &cursor, &request.insert.graph));
      }
      break;
    }
    case RequestType::kAppend: {
      if (!ReadString(bytes, &cursor, &request.append.name)) {
        return Malformed("truncated append header");
      }
      Result<Table> table = ParseTable(bytes, &cursor);
      if (!table.ok()) return table.status();
      request.append.table = *std::move(table);
      break;
    }
    case RequestType::kStats:
      break;
  }
  if (cursor != bytes.size()) return Malformed("trailing garbage in body");
  return request;
}

// ---- response --------------------------------------------------------------

std::string EncodeResponse(const Response& response) {
  std::string frame = BeginFrame(kResponseMagic);
  AppendU64(&frame, response.request_id);
  AppendByte(&frame, static_cast<uint8_t>(response.status));
  AppendString(&frame, response.message);
  AppendByte(&frame, static_cast<uint8_t>(response.type));
  if (response.status == WireStatus::kOk) {
    switch (response.type) {
      case RequestType::kMatchTables: {
        const MatchTablesResponse& match = response.match;
        AppendByte(&frame, static_cast<uint8_t>(match.metric));
        AppendF64(&frame, match.metric_value);
        AppendU64(&frame, match.correspondences.size());
        for (const WireCorrespondence& c : match.correspondences) {
          AppendU64(&frame, c.source_index);
          AppendU64(&frame, c.target_index);
          AppendString(&frame, c.source_name);
          AppendString(&frame, c.target_name);
        }
        break;
      }
      case RequestType::kSearch: {
        const SearchResponse& search = response.search;
        AppendU64(&frame, search.snapshot_version);
        AppendU64(&frame, search.entries_total);
        AppendU64(&frame, search.entries_searched);
        AppendU64(&frame, search.entries_pruned);
        AppendU64(&frame, search.bound_evaluations);
        AppendU64(&frame, search.cluster_bound_evaluations);
        AppendU64(&frame, search.hits.size());
        for (const SearchHit& hit : search.hits) {
          AppendString(&frame, hit.name);
          AppendU64(&frame, hit.entry);
          AppendF64(&frame, hit.ranking_key);
          AppendF64(&frame, hit.normalized_score);
          AppendF64(&frame, hit.metric_value);
          AppendMatchPairs(&frame, hit.pairs);
        }
        break;
      }
      case RequestType::kInsert:
        AppendU64(&frame, response.insert.snapshot_version);
        AppendU64(&frame, response.insert.catalog_entries);
        AppendByte(&frame, response.insert.replaced ? 1 : 0);
        break;
      case RequestType::kAppend:
        AppendU64(&frame, response.append.snapshot_version);
        AppendU64(&frame, response.append.catalog_entries);
        AppendU64(&frame, response.append.rows_total);
        AppendU64(&frame, response.append.generation);
        break;
      case RequestType::kStats: {
        const StatsResponse& stats = response.stats;
        AppendU64(&frame, stats.snapshot_version);
        AppendU64(&frame, stats.catalog_entries);
        AppendU64(&frame, stats.accepted_total);
        AppendU64(&frame, stats.completed_total);
        AppendU64(&frame, stats.shed_overload_total);
        AppendU64(&frame, stats.shed_deadline_total);
        AppendU64(&frame, stats.inserts_total);
        AppendU64(&frame, stats.appends_total);
        AppendU64(&frame, stats.queue_depth);
        AppendU64(&frame, stats.max_queue_depth_seen);
        AppendU64(&frame, stats.stat_cache_hits);
        AppendU64(&frame, stats.stat_cache_misses);
        break;
      }
    }
  }
  SealFrame(&frame);
  return frame;
}

Result<Response> DecodeResponse(std::string_view frame) {
  Result<std::string_view> body = OpenFrame(frame, kResponseMagic);
  if (!body.ok()) return body.status();
  std::string_view bytes = *body;
  size_t cursor = 0;

  Response response;
  uint8_t status = 0;
  uint8_t type = 0;
  if (!ReadU64(bytes, &cursor, &response.request_id) ||
      !ReadByte(bytes, &cursor, &status) ||
      !ReadString(bytes, &cursor, &response.message) ||
      !ReadByte(bytes, &cursor, &type)) {
    return Malformed("truncated response header");
  }
  if (!ValidWireStatus(status)) return Malformed("unknown wire status");
  if (!ValidRequestType(type)) return Malformed("unknown response type");
  response.status = static_cast<WireStatus>(status);
  response.type = static_cast<RequestType>(type);

  if (response.status == WireStatus::kOk) {
    switch (response.type) {
      case RequestType::kMatchTables: {
        uint8_t metric = 0;
        uint64_t count = 0;
        if (!ReadByte(bytes, &cursor, &metric) ||
            !ReadF64(bytes, &cursor, &response.match.metric_value) ||
            !ReadU64(bytes, &cursor, &count)) {
          return Malformed("truncated match payload");
        }
        if (!ValidMetric(metric)) return Malformed("bad metric kind");
        response.match.metric = static_cast<MetricKind>(metric);
        // Each correspondence needs at least 32 bytes.
        if (count > (bytes.size() - cursor) / 32) {
          return Malformed("correspondence count exceeds frame");
        }
        response.match.correspondences.reserve(static_cast<size_t>(count));
        for (uint64_t i = 0; i < count; ++i) {
          WireCorrespondence c;
          if (!ReadU64(bytes, &cursor, &c.source_index) ||
              !ReadU64(bytes, &cursor, &c.target_index) ||
              !ReadString(bytes, &cursor, &c.source_name) ||
              !ReadString(bytes, &cursor, &c.target_name)) {
            return Malformed("truncated correspondence");
          }
          response.match.correspondences.push_back(std::move(c));
        }
        break;
      }
      case RequestType::kSearch: {
        SearchResponse& search = response.search;
        uint64_t count = 0;
        if (!ReadU64(bytes, &cursor, &search.snapshot_version) ||
            !ReadU64(bytes, &cursor, &search.entries_total) ||
            !ReadU64(bytes, &cursor, &search.entries_searched) ||
            !ReadU64(bytes, &cursor, &search.entries_pruned) ||
            !ReadU64(bytes, &cursor, &search.bound_evaluations) ||
            !ReadU64(bytes, &cursor, &search.cluster_bound_evaluations) ||
            !ReadU64(bytes, &cursor, &count)) {
          return Malformed("truncated search payload");
        }
        // Each hit needs at least 48 bytes of fixed fields.
        if (count > (bytes.size() - cursor) / 48) {
          return Malformed("hit count exceeds frame");
        }
        search.hits.reserve(static_cast<size_t>(count));
        for (uint64_t i = 0; i < count; ++i) {
          SearchHit hit;
          if (!ReadString(bytes, &cursor, &hit.name) ||
              !ReadU64(bytes, &cursor, &hit.entry) ||
              !ReadF64(bytes, &cursor, &hit.ranking_key) ||
              !ReadF64(bytes, &cursor, &hit.normalized_score) ||
              !ReadF64(bytes, &cursor, &hit.metric_value)) {
            return Malformed("truncated search hit");
          }
          DEPMATCH_RETURN_IF_ERROR(
              ParseMatchPairs(bytes, &cursor, &hit.pairs));
          search.hits.push_back(std::move(hit));
        }
        break;
      }
      case RequestType::kInsert: {
        uint8_t replaced = 0;
        if (!ReadU64(bytes, &cursor, &response.insert.snapshot_version) ||
            !ReadU64(bytes, &cursor, &response.insert.catalog_entries) ||
            !ReadByte(bytes, &cursor, &replaced)) {
          return Malformed("truncated insert payload");
        }
        if (replaced > 1) return Malformed("bad replaced flag");
        response.insert.replaced = replaced == 1;
        break;
      }
      case RequestType::kAppend: {
        if (!ReadU64(bytes, &cursor, &response.append.snapshot_version) ||
            !ReadU64(bytes, &cursor, &response.append.catalog_entries) ||
            !ReadU64(bytes, &cursor, &response.append.rows_total) ||
            !ReadU64(bytes, &cursor, &response.append.generation)) {
          return Malformed("truncated append payload");
        }
        break;
      }
      case RequestType::kStats: {
        StatsResponse& stats = response.stats;
        if (!ReadU64(bytes, &cursor, &stats.snapshot_version) ||
            !ReadU64(bytes, &cursor, &stats.catalog_entries) ||
            !ReadU64(bytes, &cursor, &stats.accepted_total) ||
            !ReadU64(bytes, &cursor, &stats.completed_total) ||
            !ReadU64(bytes, &cursor, &stats.shed_overload_total) ||
            !ReadU64(bytes, &cursor, &stats.shed_deadline_total) ||
            !ReadU64(bytes, &cursor, &stats.inserts_total) ||
            !ReadU64(bytes, &cursor, &stats.appends_total) ||
            !ReadU64(bytes, &cursor, &stats.queue_depth) ||
            !ReadU64(bytes, &cursor, &stats.max_queue_depth_seen) ||
            !ReadU64(bytes, &cursor, &stats.stat_cache_hits) ||
            !ReadU64(bytes, &cursor, &stats.stat_cache_misses)) {
          return Malformed("truncated stats payload");
        }
        break;
      }
    }
  }
  if (cursor != bytes.size()) return Malformed("trailing garbage in body");
  return response;
}

Result<uint64_t> DecodeFrameHeader(std::string_view header,
                                   bool expect_request) {
  if (header.size() < kFrameHeaderBytes) {
    return Malformed("short frame header");
  }
  std::string_view magic = expect_request ? kRequestMagic : kResponseMagic;
  if (header.substr(0, 4) != magic) {
    return Malformed(expect_request ? "bad request magic"
                                    : "bad response magic");
  }
  size_t cursor = 4;
  uint32_t version = 0;
  uint64_t body_bytes = 0;
  if (!ReadU32(header, &cursor, &version) ||
      !ReadU64(header, &cursor, &body_bytes)) {
    return Malformed("short frame header");
  }
  if (version != kProtocolVersion) {
    return InvalidArgumentError(
        StrFormat("unsupported protocol version %u (this build speaks %u)",
                  version, kProtocolVersion));
  }
  if (body_bytes > kMaxFrameBodyBytes) {
    return InvalidArgumentError(
        StrFormat("frame body of %llu bytes exceeds the %llu-byte limit",
                  static_cast<unsigned long long>(body_bytes),
                  static_cast<unsigned long long>(kMaxFrameBodyBytes)));
  }
  return body_bytes;
}

}  // namespace service
}  // namespace depmatch
