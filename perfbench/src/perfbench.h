// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// Shared types of the served-workload benchmark (perfbench/README.md).
//
// The benchmark is split by what each file may touch, so that refactors
// of the library's internals do not have to edit it:
//   workloads.cc  input generation from the seed, through datagen and the
//                 table operations of the paper's experiments;
//   served.cc     the untraced served run: ServiceServer + ServiceClient,
//                 MatchService built with num_threads and nothing else;
//   checks.cc     correctness checks after the timed window, against
//                 MatchService's direct execution paths;
//   layers.cc     the traced in-process replay — every direct call into
//                 a library layer lives in that one file.

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "depmatch/core/graph_catalog.h"
#include "depmatch/datagen/graph_corpus.h"
#include "depmatch/graph/dependency_graph.h"
#include "depmatch/service/protocol.h"
#include "depmatch/service/server.h"
#include "depmatch/table/table.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

enum class Workload { kSearchNear, kMatchTables, kAppendMixed };

struct Config {
  Workload workload = Workload::kSearchNear;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  // Hardware threads: the service's pool size and the client count.
  size_t nproc = 1;
  // Directory (inside the checkout) for the socket, detail and span files.
  std::string out_dir;
};

// Input sizes. The full sizes are the benchmark; `tiny` shrinks every
// one of them for the smoke test.
struct Sizes {
  size_t corpus_entries = 10000;
  size_t lab_rows = 50000;
  size_t universe = 30;
  size_t match_attributes = 10;
  size_t sample_rows = 5000;
  // Distinct MatchTables requests, cycled by the clients.
  size_t match_pool = 64;
  size_t append_tables = 4;
  size_t append_attributes = 11;  // plus the exam_date column
  size_t append_lab_rows = 20000;
  size_t appends_per_table = 100;
  size_t k = 10;
  // Set-up repetitions whose median is setup_s.
  size_t setup_reps = 3;
  // Requests replayed per type in the traced run (searches cost ~4
  // executions each to replay and decompose).
  size_t replay_searches = 24;
  size_t replay_others = 48;

  static Sizes For(bool tiny);
};

// One MatchTables case: the target is an opaque re-encoding of a sample
// of the other half, with its columns permuted, so truth is known.
struct MatchCase {
  depmatch::Table source;
  depmatch::Table target;
  // truth[s] = target column holding source column s.
  std::vector<size_t> truth;
};

// A table-backed catalog entry of append_mixed: inserted from `base`,
// then grown by `deltas` in order.
struct AppendEntry {
  std::string name;
  depmatch::Table base;
  std::vector<depmatch::Table> deltas;
};

struct Inputs {
  depmatch::GraphCorpusOptions corpus;
  std::vector<depmatch::DependencyGraph> corpus_graphs;
  std::vector<bool> related;  // related[i]: entry i is in the related band
  std::vector<size_t> related_entries;
  // Per search client, the entry indices it queries, in order (cycled).
  std::vector<std::vector<size_t>> search_streams;
  std::vector<MatchCase> match_pool;
  // Per match client, indices into match_pool, in order (cycled).
  std::vector<std::vector<size_t>> match_streams;
  std::vector<AppendEntry> append_entries;
  // The appender's requests, in order: (entry, delta).
  std::vector<std::pair<size_t, size_t>> append_order;
  // Hash of everything above: equal hashes mean identical inputs.
  uint64_t fingerprint = 0;
  double generate_s = 0.0;
};

Inputs MakeInputs(const Config& config, const Sizes& sizes);

// Request builders shared by the served run, the checks and the replay.
depmatch::service::WireMatchOptions SearchWireOptions();
depmatch::service::Request MakeSearchRequest(const std::string& name,
                                             size_t k);
depmatch::service::Request MakeMatchRequest(const MatchCase& match_case);
depmatch::service::Request MakeAppendRequest(const AppendEntry& entry,
                                             size_t delta);

// One completed (or failed) served request.
struct Sample {
  depmatch::service::RequestType type =
      depmatch::service::RequestType::kSearch;
  size_t input = 0;  // entry index / pool index / append_order index
  double latency_ms = 0.0;
  Clock::time_point done;
  bool ok = false;
  depmatch::service::Response response;
};

struct ServedRun {
  std::vector<Sample> samples;
  Clock::time_point start;
  double window_s = 0.0;
  size_t client_threads = 0;
  depmatch::service::StatsResponse stats_before;
  depmatch::service::StatsResponse stats_after;
  double setup_peak_rss_mb = 0.0;  // over the set-ups
  // Peak over the window, when peak_rss_reset; else over the whole run.
  double peak_rss_mb = 0.0;
  bool peak_rss_reset = false;
  // Clients that could not connect (each counts as one failed request).
  size_t connect_failures = 0;
};

// One set-up: generates the inputs from the seed and builds the serving
// stack (catalog, service, socket server, and for append_mixed the
// table-backed entries). Tears down a previous stack first. Returns the
// seconds it took.
double SetUp(const Config& config, const Sizes& sizes, Inputs* inputs,
             std::unique_ptr<depmatch::service::ServiceServer>* server);

// Runs the closed-loop clients against `server` for config.seconds.
ServedRun RunServed(const Config& config, const Sizes& sizes,
                    const Inputs& inputs,
                    depmatch::service::ServiceServer& server);

// Correctness checks after the window; returns the number of failures
// and fills the quality score (precision) of the workload.
struct CheckReport {
  size_t checked = 0;
  size_t failures = 0;
  double quality = 0.0;
  std::vector<std::string> notes;
};
CheckReport RunChecks(const Config& config, const Sizes& sizes,
                      const Inputs& inputs, const ServedRun& run,
                      depmatch::service::MatchService& served);

// Traced replay: per-layer metrics plus the span list.
struct Span {
  const char* name = "";  // a string literal: recording never allocates
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // index into the span list, -1 for a root
  uint64_t request = 0;
  // A decomposition span: the call is replayed after its parent returned,
  // so its interval lies outside the parent's; self time is modelled.
  bool replayed = false;
};

struct LayerReport {
  // name -> (value, unit)
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, std::string> notes;
  std::vector<Span> spans;
};
LayerReport RunTracedReplay(const Config& config, const Sizes& sizes,
                            const Inputs& inputs, const ServedRun& run,
                            depmatch::service::MatchService& served);

// Percentile helpers. TailPercentile picks the highest percentile (at
// most 99) with at least ten samples beyond it.
double Percentile(std::vector<double> values, double p);
double TailPercentile(size_t n);
double Median(std::vector<double> values);

// FNV-1a over raw bytes, chained through `h`.
uint64_t HashBytes(uint64_t h, const void* data, size_t size);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
