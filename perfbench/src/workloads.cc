// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// Input generation. Everything here is a pure function of the seed and
// the sizes, built from datagen and the table operations the paper's
// experiments use; the program under test only ever receives the
// generated tables, graphs and request streams.

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <utility>

#include "depmatch/common/logging.h"
#include "depmatch/common/rng.h"
#include "depmatch/common/string_util.h"
#include "depmatch/datagen/datasets.h"
#include "depmatch/table/table_ops.h"
#include "perfbench.h"

namespace perfbench {

using depmatch::DependencyGraph;
using depmatch::Result;
using depmatch::Rng;
using depmatch::Table;
namespace service = depmatch::service;

namespace {

// Stream salts, so that the streams of one seed are independent.
constexpr uint64_t kSearchSalt = 0x5EA7C4ull;
constexpr uint64_t kMatchSalt = 0x3A7C4E5ull;
constexpr uint64_t kAppendSalt = 0xA99E4Dull;
// Requests per client stream; clients wrap around past the end.
constexpr size_t kStreamLength = 4096;

uint64_t HashU64(uint64_t h, uint64_t v) { return HashBytes(h, &v, sizeof v); }

uint64_t HashString(uint64_t h, const std::string& s) {
  h = HashU64(h, s.size());
  return HashBytes(h, s.data(), s.size());
}

uint64_t HashGraph(uint64_t h, const DependencyGraph& graph) {
  h = HashU64(h, graph.size());
  for (size_t i = 0; i < graph.size(); ++i) {
    h = HashString(h, graph.name(i));
    for (size_t j = 0; j < graph.size(); ++j) {
      h = HashU64(h, std::bit_cast<uint64_t>(graph.mi(i, j)));
    }
  }
  return h;
}

uint64_t HashTable(uint64_t h, const Table& table) {
  std::string bytes;
  service::AppendTable(&bytes, table);
  return HashString(h, bytes);
}

// An entry is in the related band when it has the query's width and
// every entropy lies within the band's relative jitter of the query's.
// The mild band jitters ten times harder, so all eight entropies landing
// inside the related tolerance by chance has probability ~1e-8, and the
// narrow and unrelated bands differ in width or entropy scale.
bool InRelatedBand(const DependencyGraph& entry, const DependencyGraph& query,
                   double perturbation) {
  if (entry.size() != query.size()) return false;
  for (size_t i = 0; i < query.size(); ++i) {
    double ratio = entry.entropy(i) / query.entropy(i);
    if (std::fabs(ratio - 1.0) > perturbation * (1.0 + 1e-9)) return false;
  }
  return true;
}

// One stream per client over `order`, cycled: client c starts c/clients
// of the way in, so that together the clients cover `order` evenly.
std::vector<std::vector<size_t>> Interleave(const std::vector<size_t>& order,
                                            size_t clients) {
  std::vector<std::vector<size_t>> streams;
  for (size_t c = 0; c < clients; ++c) {
    std::vector<size_t> stream(kStreamLength);
    size_t offset = c * order.size() / clients;
    for (size_t i = 0; i < stream.size(); ++i) {
      stream[i] = order[(offset + i) % order.size()];
    }
    streams.push_back(std::move(stream));
  }
  return streams;
}

Table Project(const Table& table, const std::vector<size_t>& columns) {
  Result<Table> projected = depmatch::ProjectColumns(table, columns);
  DEPMATCH_CHECK(projected.ok());
  return *std::move(projected);
}

void MakeSearchInputs(const Config& config, const Sizes& sizes,
                      size_t search_clients, Inputs* inputs) {
  // The corpus is the default one, the same for every seed: all related
  // and mild entries perturb a single query graph, so a per-seed corpus
  // would make the whole run's cost hinge on one random graph. The seed
  // draws the query streams.
  DependencyGraph query = depmatch::CorpusQuery(inputs->corpus);
  inputs->corpus_graphs.reserve(sizes.corpus_entries);
  inputs->related.assign(sizes.corpus_entries, false);
  for (size_t i = 0; i < sizes.corpus_entries; ++i) {
    inputs->corpus_graphs.push_back(depmatch::CorpusEntry(inputs->corpus, i));
    if (InRelatedBand(inputs->corpus_graphs.back(), query,
                      inputs->corpus.perturbation)) {
      inputs->related[i] = true;
      inputs->related_entries.push_back(i);
    }
  }
  DEPMATCH_CHECK(!inputs->related_entries.empty());
  // Query costs differ a lot between entries, so every run queries the
  // whole band evenly: the clients walk one seeded permutation of it from
  // evenly spaced offsets.
  std::vector<size_t> order = inputs->related_entries;
  Rng rng(config.seed ^ kSearchSalt);
  rng.Shuffle(order);
  inputs->search_streams = Interleave(order, search_clients);
}

void MakeMatchInputs(const Config& config, const Sizes& sizes,
                     Inputs* inputs) {
  depmatch::datagen::LabExamConfig lab_config;
  lab_config.num_rows = sizes.lab_rows;
  Result<Table> lab = depmatch::datagen::MakeLabExamTable(lab_config,
                                                          config.seed);
  DEPMATCH_CHECK(lab.ok());
  // The paper's Lab Exam 1 / 2: the two halves of the exam-date range.
  Result<depmatch::RangePartitionResult> halves =
      depmatch::RangePartitionAtMedian(*lab, 0);
  DEPMATCH_CHECK(halves.ok());

  // The fixed universe: `universe` of the test attributes, the same for
  // every seed (column 0, the date, is the partition key and never
  // matched). The seed draws the rows, the attribute subsets and the
  // permutations.
  Rng universe_rng(kMatchSalt);
  std::vector<size_t> universe;
  for (size_t position : universe_rng.SampleWithoutReplacement(
           lab->num_attributes() - 1, sizes.universe)) {
    universe.push_back(position + 1);
  }
  Rng rng(config.seed ^ kMatchSalt);
  Table low = Project(halves->low, universe);
  Table high = Project(halves->high, universe);

  for (size_t p = 0; p < sizes.match_pool; ++p) {
    std::vector<size_t> attributes =
        rng.SampleWithoutReplacement(universe.size(), sizes.match_attributes);
    std::vector<size_t> permutation(attributes.size());
    std::iota(permutation.begin(), permutation.end(), size_t{0});
    rng.Shuffle(permutation);

    MatchCase match_case;
    match_case.source = depmatch::SampleRows(Project(low, attributes),
                                             sizes.sample_rows, rng);
    Table target = depmatch::SampleRows(Project(high, attributes),
                                        sizes.sample_rows, rng);
    // Target column t holds source column permutation[t].
    match_case.truth.assign(attributes.size(), 0);
    for (size_t t = 0; t < permutation.size(); ++t) {
      match_case.truth[permutation[t]] = t;
    }
    match_case.target = depmatch::OpaqueEncode(Project(target, permutation),
                                               {}, rng);
    inputs->match_pool.push_back(std::move(match_case));
  }
  std::vector<size_t> order(inputs->match_pool.size());
  std::iota(order.begin(), order.end(), size_t{0});
  inputs->match_streams = Interleave(order, config.nproc);
}

void MakeAppendInputs(const Config& config, const Sizes& sizes,
                      Inputs* inputs) {
  depmatch::datagen::LabExamConfig lab_config;
  lab_config.num_test_attributes = sizes.append_attributes;
  lab_config.num_null_heavy_attributes = 2;
  lab_config.num_rows = sizes.append_lab_rows;
  for (size_t e = 0; e < sizes.append_tables; ++e) {
    Result<Table> lab = depmatch::datagen::MakeLabExamTable(
        lab_config, config.seed ^ kAppendSalt ^ (e * 0x9E3779B97F4A7C15ull));
    DEPMATCH_CHECK(lab.ok());
    // Half the rows form the inserted entry; the rest arrive in date
    // order as deltas of about 1% of the base.
    Result<depmatch::datagen::StreamingSlices> slices =
        depmatch::datagen::MakeStreamingSlices(*lab, 0.5,
                                               sizes.appends_per_table,
                                               /*order_by=*/0);
    DEPMATCH_CHECK(slices.ok());
    AppendEntry entry;
    entry.name = depmatch::StrFormat("lab_exam_%zu", e);
    entry.base = std::move(slices->base);
    entry.deltas = std::move(slices->appends);
    inputs->append_entries.push_back(std::move(entry));
  }
  for (size_t d = 0; d < sizes.appends_per_table; ++d) {
    for (size_t e = 0; e < sizes.append_tables; ++e) {
      inputs->append_order.emplace_back(e, d);
    }
  }
}

uint64_t Fingerprint(const Inputs& inputs) {
  uint64_t h = 0xcbf29ce484222325ull;
  h = HashU64(h, inputs.corpus.seed);
  for (const DependencyGraph& graph : inputs.corpus_graphs) {
    h = HashGraph(h, graph);
  }
  for (size_t entry : inputs.related_entries) h = HashU64(h, entry);
  for (const auto& stream : inputs.search_streams) {
    for (size_t entry : stream) h = HashU64(h, entry);
  }
  for (const MatchCase& match_case : inputs.match_pool) {
    h = HashTable(h, match_case.source);
    h = HashTable(h, match_case.target);
    for (size_t t : match_case.truth) h = HashU64(h, t);
  }
  for (const auto& stream : inputs.match_streams) {
    for (size_t index : stream) h = HashU64(h, index);
  }
  for (const AppendEntry& entry : inputs.append_entries) {
    h = HashString(h, entry.name);
    h = HashTable(h, entry.base);
    for (const Table& delta : entry.deltas) h = HashTable(h, delta);
  }
  for (const auto& [e, d] : inputs.append_order) {
    h = HashU64(HashU64(h, e), d);
  }
  return h;
}

}  // namespace

Sizes Sizes::For(bool tiny) {
  Sizes sizes;
  if (tiny) {
    sizes.corpus_entries = 400;
    sizes.lab_rows = 4000;
    sizes.sample_rows = 400;
    sizes.match_pool = 3;
    sizes.append_lab_rows = 2000;
    sizes.appends_per_table = 20;
    sizes.setup_reps = 2;
    sizes.replay_searches = 4;
    sizes.replay_others = 6;
  }
  return sizes;
}

uint64_t HashBytes(uint64_t h, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

Inputs MakeInputs(const Config& config, const Sizes& sizes) {
  Clock::time_point t0 = Clock::now();
  Inputs inputs;
  switch (config.workload) {
    case Workload::kSearchNear:
      MakeSearchInputs(config, sizes, config.nproc, &inputs);
      break;
    case Workload::kMatchTables:
      MakeMatchInputs(config, sizes, &inputs);
      break;
    case Workload::kAppendMixed:
      MakeSearchInputs(config, sizes, std::max<size_t>(1, config.nproc - 1),
                       &inputs);
      MakeAppendInputs(config, sizes, &inputs);
      break;
  }
  inputs.fingerprint = Fingerprint(inputs);
  inputs.generate_s = MsBetween(t0, Clock::now()) / 1000.0;
  return inputs;
}

service::WireMatchOptions SearchWireOptions() {
  // The wire default (exhaustive branch-and-bound) explodes on the
  // corpus's 16-wide entries; annealing is polynomial per candidate and
  // deterministic, so served and direct results stay bit-identical.
  service::WireMatchOptions options;
  options.algorithm = depmatch::MatchAlgorithm::kSimulatedAnnealing;
  return options;
}

service::Request MakeSearchRequest(const std::string& name, size_t k) {
  service::Request request;
  request.type = service::RequestType::kSearch;
  request.search.source = service::SearchSource::kStoredEntry;
  request.search.stored_name = name;
  request.search.k = k;
  request.search.options = SearchWireOptions();
  return request;
}

service::Request MakeMatchRequest(const MatchCase& match_case) {
  service::Request request;
  request.type = service::RequestType::kMatchTables;
  request.match.source = match_case.source;
  request.match.target = match_case.target;
  return request;
}

service::Request MakeAppendRequest(const AppendEntry& entry, size_t delta) {
  service::Request request;
  request.type = service::RequestType::kAppend;
  request.append.name = entry.name;
  request.append.table = entry.deltas[delta];
  return request;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(values.size() - 1, lo + 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double TailPercentile(size_t n) {
  if (n <= 10) return 50.0;
  double p = 100.0 * (1.0 - 10.0 / static_cast<double>(n));
  return std::min(99.0, std::max(50.0, p));
}

double Median(std::vector<double> values) { return Percentile(values, 50.0); }

}  // namespace perfbench
