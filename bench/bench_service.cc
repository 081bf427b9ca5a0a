// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// bench_service: closed-loop load generator for the matching service.
//
// Starts an in-process ServiceServer (AF_UNIX socket, the same daemon
// core depmatch_serve runs) over a synthetic banded corpus, then:
//
//   identity   serves one of each request type and asserts the served
//              response is bit-identical to a direct library call
//              against the snapshot named in the response — framing,
//              scheduling, and caching must be unobservable in results;
//   load       N closed-loop clients (own connection, own thread) each
//              issue DEPMATCH_BENCH_REPS stored-entry searches
//              back-to-back, at N = 1 / 4 / 16; reports sustained QPS
//              and p50/p99 latency per N, and post-hoc re-verifies every
//              single response bit-for-bit;
//   overload   paused workers and max_queue senders + more:
//              exactly max_queue are admitted, the rest must come back
//              kOverloaded immediately (bounded queueing — shedding
//              latency is reported, not hidden in the tail), and
//              deadlined requests that out-wait their deadline in the
//              queue come back kDeadlineExceeded, not late-served.
//
// Headline (tools/bench_gate.sh): serve_p99_ms — the 1-client p99, the
// least scheduler-sensitive of the latency digests.
//
//   DEPMATCH_BENCH_REPS  requests per client (default 40)
//   --smoke              tiny corpus / 2 clients; exit 2 on any
//                        identity or overload-bound failure

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "bench_util.h"
#include "depmatch/common/logging.h"
#include "depmatch/core/graph_catalog.h"
#include "depmatch/common/string_util.h"
#include "depmatch/datagen/graph_corpus.h"
#include "depmatch/service/client.h"
#include "depmatch/service/match_service.h"
#include "depmatch/service/protocol.h"
#include "depmatch/service/server.h"
#include "depmatch/table/table.h"

namespace depmatch {
namespace {

using service::MatchService;
using service::Request;
using service::RequestType;
using service::Response;
using service::SearchSource;
using service::ServiceClient;
using service::ServiceOptions;
using service::ServiceServer;
using service::ServiceSnapshot;
using service::WireMatchOptions;
using service::WireStatus;

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// Bitwise comparison of served vs. direct search responses: every hit,
// every ranking key, every pair.
bool SameSearchResponse(const Response& served, const Response& direct) {
  if (served.status != direct.status) return false;
  if (served.search.hits.size() != direct.search.hits.size()) return false;
  for (size_t i = 0; i < served.search.hits.size(); ++i) {
    const auto& a = served.search.hits[i];
    const auto& b = direct.search.hits[i];
    if (a.name != b.name || a.entry != b.entry || a.pairs != b.pairs ||
        !BitEqual(a.ranking_key, b.ranking_key) ||
        !BitEqual(a.normalized_score, b.normalized_score) ||
        !BitEqual(a.metric_value, b.metric_value)) {
      return false;
    }
  }
  return true;
}

bool SameMatchResponse(const Response& served, const Response& direct) {
  if (served.status != direct.status) return false;
  if (!BitEqual(served.match.metric_value, direct.match.metric_value))
    return false;
  if (served.match.correspondences.size() !=
      direct.match.correspondences.size())
    return false;
  for (size_t i = 0; i < served.match.correspondences.size(); ++i) {
    const auto& a = served.match.correspondences[i];
    const auto& b = direct.match.correspondences[i];
    if (a.source_index != b.source_index ||
        a.target_index != b.target_index ||
        a.source_name != b.source_name || a.target_name != b.target_name) {
      return false;
    }
  }
  return true;
}

// Search options used for every catalog search in the bench. The wire
// default (exhaustive branch-and-bound) is exact but its cost explodes
// on the corpus's widest entries (up to 16 columns), turning a handful
// of queries into multi-second outliers that would swamp the p99 the
// gate tracks. Serving uses simulated annealing like bench_catalog:
// polynomial per candidate, deterministic for a fixed seed, and
// bit-identical between the served and direct execution paths.
WireMatchOptions BenchSearchOptions() {
  WireMatchOptions options;
  options.algorithm = MatchAlgorithm::kSimulatedAnnealing;
  return options;
}

// Small deterministic tables for the inline-table request types.
Table MakeBenchTable(size_t columns, size_t rows, uint64_t seed) {
  std::vector<AttributeSpec> attrs;
  for (size_t c = 0; c < columns; ++c) {
    attrs.push_back({StrFormat("c%zu", c), DataType::kInt64});
  }
  Result<Schema> schema = Schema::Create(std::move(attrs));
  DEPMATCH_CHECK(schema.ok());
  TableBuilder builder(*schema);
  // Correlated integer columns (column c depends on column 0 with a
  // period that differs per column) so the dependency graph has
  // structure worth matching.
  for (size_t r = 0; r < rows; ++r) {
    uint64_t base = (seed + r * 2654435761u) % 16;
    for (size_t c = 0; c < columns; ++c) {
      uint64_t value = c == 0 ? base : (base >> (c % 4)) + c * (r % (c + 2));
      builder.AppendValue(c, Value(static_cast<int64_t>(value % 23)));
    }
  }
  Result<Table> table = std::move(builder).Build();
  DEPMATCH_CHECK(table.ok());
  return *std::move(table);
}

struct LoadPhase {
  size_t clients = 0;
  size_t requests = 0;
  double wall_ms = 0.0;
  double qps = 0.0;
  benchutil::LatencySummary latency;
  bool identical = false;
};

struct OverloadReport {
  size_t max_queue = 0;
  size_t senders = 0;
  size_t served = 0;
  size_t shed_overloaded = 0;
  double shed_max_ms = 0.0;
  size_t deadline_senders = 0;
  size_t deadline_shed = 0;
  bool bounded = false;
};

struct ServerHandle {
  std::string socket_path;
  std::unique_ptr<ServiceServer> server;

  MatchService& match_service() { return server->match_service(); }
};

ServerHandle StartServer(size_t corpus_entries, ServiceOptions options,
                         const char* tag) {
  GraphCatalog catalog;
  GraphCorpusOptions corpus;
  for (size_t i = 0; i < corpus_entries; ++i) {
    Status inserted =
        catalog.Insert(CorpusEntryName(i), CorpusEntry(corpus, i));
    DEPMATCH_CHECK(inserted.ok());
  }
  options.snapshot_history = 8;
  auto match_service =
      std::make_unique<MatchService>(std::move(catalog), options);
  service::ServerOptions server_options;
  server_options.socket_path =
      StrFormat("/tmp/depmatch_bench_%d_%s.sock", getpid(), tag);
  ServerHandle handle;
  handle.socket_path = server_options.socket_path;
  handle.server = std::make_unique<ServiceServer>(std::move(match_service),
                                                  std::move(server_options));
  Status started = handle.server->Start();
  DEPMATCH_CHECK(started.ok());
  return handle;
}

// One of each request type through the socket, each compared
// bit-for-bit against the direct library execution path.
bool RunIdentityGate(ServerHandle& server) {
  Result<ServiceClient> client = ServiceClient::Connect(server.socket_path);
  DEPMATCH_CHECK(client.ok());
  bool all_identical = true;

  // Match two inline tables.
  Table source = MakeBenchTable(5, 160, 3);
  Table target = MakeBenchTable(5, 160, 3 + 64);
  Result<Response> match = client->MatchTables(source, target);
  if (match.ok()) {
    Request direct_request;
    direct_request.type = RequestType::kMatchTables;
    direct_request.request_id = match->request_id;
    direct_request.match.source = source;
    direct_request.match.target = target;
    Response direct =
        MatchService::ExecuteMatchDirect(direct_request, nullptr);
    all_identical = all_identical && SameMatchResponse(*match, direct);
  } else {
    all_identical = false;
  }

  // Top-k search for a stored entry, verified against the exact
  // snapshot the response names.
  Request search_request;
  search_request.type = RequestType::kSearch;
  search_request.search.source = SearchSource::kStoredEntry;
  search_request.search.stored_name = CorpusEntryName(0);
  search_request.search.k = 5;
  search_request.search.options = BenchSearchOptions();
  Result<Response> stored =
      client->SearchStored(CorpusEntryName(0), /*k=*/5, BenchSearchOptions());
  if (stored.ok() && stored->status == WireStatus::kOk) {
    auto snapshot = server.match_service().SnapshotAt(
        stored->search.snapshot_version);
    DEPMATCH_CHECK(snapshot != nullptr);
    search_request.request_id = stored->request_id;
    Response direct = MatchService::ExecuteSearchDirect(
        search_request, *snapshot, server.match_service().options());
    all_identical = all_identical && SameSearchResponse(*stored, direct);
  } else {
    all_identical = false;
  }

  // Insert (copy-on-write snapshot swap), then search with an inline
  // table and check the new entry is visible in the new snapshot.
  Table inline_table = MakeBenchTable(8, 200, 11);
  Result<Response> inserted =
      client->InsertTable("bench_inline", inline_table);
  if (!inserted.ok() || inserted->status != WireStatus::kOk) {
    all_identical = false;
  }
  Result<Response> inline_search =
      client->SearchTable(inline_table, 3, BenchSearchOptions());
  if (inline_search.ok() && inline_search->status == WireStatus::kOk) {
    auto snapshot = server.match_service().SnapshotAt(
        inline_search->search.snapshot_version);
    DEPMATCH_CHECK(snapshot != nullptr);
    Request direct_request;
    direct_request.type = RequestType::kSearch;
    direct_request.request_id = inline_search->request_id;
    direct_request.search.source = SearchSource::kInlineTable;
    direct_request.search.table = inline_table;
    direct_request.search.k = 3;
    direct_request.search.options = BenchSearchOptions();
    Response direct = MatchService::ExecuteSearchDirect(
        direct_request, *snapshot, server.match_service().options());
    all_identical =
        all_identical && SameSearchResponse(*inline_search, direct);
    // The freshly inserted identical table must be its own best hit.
    all_identical = all_identical &&
                    !inline_search->search.hits.empty() &&
                    inline_search->search.hits.front().name ==
                        "bench_inline";
  } else {
    all_identical = false;
  }
  return all_identical;
}

LoadPhase RunLoadPhase(ServerHandle& server, size_t num_clients,
                       size_t requests_per_client, size_t query_entries,
                       uint64_t k) {
  struct ClientRun {
    std::vector<double> latencies_ms;
    std::vector<Response> responses;
    bool ok = true;
  };
  std::vector<ClientRun> runs(num_clients);
  std::atomic<size_t> failures{0};

  auto t0 = std::chrono::steady_clock::now();
  {
    // depmatch-analyze: allow(raw-thread)
    std::vector<std::thread> threads;
    threads.reserve(num_clients);
    for (size_t c = 0; c < num_clients; ++c) {
      // depmatch-analyze: allow(raw-thread) — closed-loop load clients
      // must be independent OS threads, each blocking on its own
      // connection.
      threads.emplace_back([&, c] {
        Result<ServiceClient> client =
            ServiceClient::Connect(server.socket_path);
        if (!client.ok()) {
          runs[c].ok = false;
          failures.fetch_add(1);
          return;
        }
        runs[c].latencies_ms.reserve(requests_per_client);
        runs[c].responses.reserve(requests_per_client);
        for (size_t r = 0; r < requests_per_client; ++r) {
          std::string name = CorpusEntryName((c + r) % query_entries);
          auto q0 = std::chrono::steady_clock::now();
          Result<Response> response =
              client->SearchStored(name, k, BenchSearchOptions());
          auto q1 = std::chrono::steady_clock::now();
          if (!response.ok() || response->status != WireStatus::kOk) {
            runs[c].ok = false;
            failures.fetch_add(1);
            return;
          }
          runs[c].latencies_ms.push_back(
              std::chrono::duration<double, std::milli>(q1 - q0).count());
          runs[c].responses.push_back(*std::move(response));
        }
      });
    }
    // depmatch-analyze: allow(raw-thread)
    for (std::thread& thread : threads) thread.join();
  }
  auto t1 = std::chrono::steady_clock::now();

  LoadPhase phase;
  phase.clients = num_clients;
  phase.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();

  std::vector<double> all_latencies;
  for (const ClientRun& run : runs) {
    all_latencies.insert(all_latencies.end(), run.latencies_ms.begin(),
                         run.latencies_ms.end());
    phase.requests += run.latencies_ms.size();
  }
  phase.qps = phase.wall_ms > 0.0
                  ? static_cast<double>(phase.requests) /
                        (phase.wall_ms / 1000.0)
                  : 0.0;
  phase.latency = benchutil::SummarizeLatencies(std::move(all_latencies));

  // Post-hoc bit-identity: recompute each distinct query once per
  // snapshot version it was served from, directly against that
  // snapshot, and compare every response.
  phase.identical = failures.load() == 0;
  for (const ClientRun& run : runs) {
    if (!run.ok) phase.identical = false;
    for (const Response& response : run.responses) {
      auto snapshot = server.match_service().SnapshotAt(
          response.search.snapshot_version);
      if (snapshot == nullptr) {
        phase.identical = false;
        break;
      }
      Request direct_request;
      direct_request.type = RequestType::kSearch;
      direct_request.request_id = response.request_id;
      direct_request.search.source = SearchSource::kStoredEntry;
      // Recover the queried name from the response's own best hit: a
      // stored-entry query is always its own best match (identity
      // similarity), which the identity gate asserts separately.
      if (response.search.hits.empty()) {
        phase.identical = false;
        break;
      }
      direct_request.search.stored_name = response.search.hits.front().name;
      direct_request.search.k = k;
      direct_request.search.options = BenchSearchOptions();
      Response direct = MatchService::ExecuteSearchDirect(
          direct_request, *snapshot, server.match_service().options());
      if (!SameSearchResponse(response, direct)) {
        phase.identical = false;
        break;
      }
    }
    if (!phase.identical) break;
  }
  return phase;
}

OverloadReport RunOverloadPhase(size_t corpus_entries, size_t max_queue,
                                size_t senders) {
  ServiceOptions options;
  options.max_queue = max_queue;
  OverloadReport report;
  report.max_queue = max_queue;
  report.senders = senders;

  ServerHandle server = StartServer(corpus_entries, options, "overload");
  // Freeze the workers so admission is the only moving part: the
  // queue cannot drain, so of `senders` concurrent requests exactly
  // max_queue are admitted and the rest must shed immediately.
  server.match_service().PauseForTest();

  struct SendOutcome {
    WireStatus status = WireStatus::kInternal;
    double latency_ms = 0.0;
  };
  std::vector<SendOutcome> outcomes(senders);
  std::atomic<size_t> settled{0};
  // depmatch-analyze: allow(raw-thread)
  std::vector<std::thread> threads;
  threads.reserve(senders);
  for (size_t i = 0; i < senders; ++i) {
    // depmatch-analyze: allow(raw-thread) — each sender must block
    // independently to fill the admission queue.
    threads.emplace_back([&, i] {
      Result<ServiceClient> client =
          ServiceClient::Connect(server.socket_path);
      if (!client.ok()) {
        settled.fetch_add(1);
        return;
      }
      auto q0 = std::chrono::steady_clock::now();
      Result<Response> response =
          client->SearchStored(CorpusEntryName(0), /*k=*/3,
                               BenchSearchOptions());
      auto q1 = std::chrono::steady_clock::now();
      if (response.ok()) {
        outcomes[i].status = response->status;
        outcomes[i].latency_ms =
            std::chrono::duration<double, std::milli>(q1 - q0).count();
      }
      settled.fetch_add(1);
    });
  }

  // Wait until every sender either shed (immediately) or is parked in
  // the queue, then release the workers.
  size_t expect_shed = senders > max_queue ? senders - max_queue : 0;
  auto wait_start = std::chrono::steady_clock::now();
  for (;;) {
    size_t done = settled.load();
    size_t queued = server.match_service().QueueDepthForTest();
    if (done >= expect_shed && queued >= senders - done) break;
    if (std::chrono::steady_clock::now() - wait_start >
        std::chrono::seconds(30)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  server.match_service().ResumeForTest();
  // depmatch-analyze: allow(raw-thread)
  for (std::thread& thread : threads) thread.join();

  for (const SendOutcome& outcome : outcomes) {
    if (outcome.status == WireStatus::kOk) {
      ++report.served;
    } else if (outcome.status == WireStatus::kOverloaded) {
      ++report.shed_overloaded;
      report.shed_max_ms = std::max(report.shed_max_ms, outcome.latency_ms);
    }
  }

  // Deadline shedding: park requests behind paused workers with a
  // deadline shorter than the pause; they must come back
  // kDeadlineExceeded, not late-served.
  server.match_service().PauseForTest();
  report.deadline_senders = 2;
  // depmatch-analyze: allow(raw-thread)
  std::vector<std::thread> deadline_threads;
  std::atomic<size_t> deadline_shed{0};
  for (size_t i = 0; i < report.deadline_senders; ++i) {
    // depmatch-analyze: allow(raw-thread) — see above.
    deadline_threads.emplace_back([&] {
      Result<ServiceClient> client =
          ServiceClient::Connect(server.socket_path);
      if (!client.ok()) return;
      Result<Response> response =
          client->SearchStored(CorpusEntryName(0), /*k=*/3,
                               BenchSearchOptions(), /*deadline_ms=*/20);
      if (response.ok() &&
          response->status == WireStatus::kDeadlineExceeded) {
        deadline_shed.fetch_add(1);
      }
    });
  }
  // Out-wait the deadline before releasing the workers.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  server.match_service().ResumeForTest();
  // depmatch-analyze: allow(raw-thread)
  for (std::thread& thread : deadline_threads) thread.join();
  report.deadline_shed = deadline_shed.load();

  server.server->Stop();

  report.bounded = report.served == std::min(senders, max_queue) &&
                   report.shed_overloaded == expect_shed &&
                   report.deadline_shed == report.deadline_senders;
  return report;
}

int Run(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }

  size_t corpus_entries = smoke ? 12 : 48;
  size_t query_entries = smoke ? 4 : 8;
  size_t reps = smoke ? 4 : 40;
  if (const char* raw = std::getenv("DEPMATCH_BENCH_REPS")) {
    auto parsed = ParseInt64(raw);
    if (parsed.has_value() && *parsed > 0) {
      reps = static_cast<size_t>(*parsed);
    }
  }
  std::vector<size_t> client_counts =
      smoke ? std::vector<size_t>{1, 2} : std::vector<size_t>{1, 4, 16};

  ServiceOptions options;
  options.max_queue = 64;
  ServerHandle server = StartServer(corpus_entries, options, "load");

  std::fprintf(stderr, "bench_service: identity gate ...\n");
  bool identity = RunIdentityGate(server);
  std::fprintf(stderr, "bench_service: identity %s\n",
               identity ? "ok" : "FAILED");

  std::vector<LoadPhase> phases;
  for (size_t clients : client_counts) {
    std::fprintf(stderr,
                 "bench_service: load %zu client(s) x %zu requests ...\n",
                 clients, reps);
    phases.push_back(
        RunLoadPhase(server, clients, reps, query_entries, /*k=*/5));
    const LoadPhase& phase = phases.back();
    std::fprintf(stderr,
                 "bench_service:   %zu req in %.1f ms = %.0f QPS, p50 "
                 "%.2f ms p99 %.2f ms, identical %s\n",
                 phase.requests, phase.wall_ms, phase.qps,
                 phase.latency.p50_ms, phase.latency.p99_ms,
                 phase.identical ? "true" : "FALSE");
  }
  server.server->Stop();

  std::fprintf(stderr, "bench_service: overload ...\n");
  OverloadReport overload =
      RunOverloadPhase(smoke ? 6 : 12, smoke ? 2 : 4, smoke ? 6 : 12);
  std::fprintf(stderr,
               "bench_service:   served %zu shed %zu (max %.2f ms) "
               "deadline-shed %zu/%zu bounded %s\n",
               overload.served, overload.shed_overloaded,
               overload.shed_max_ms, overload.deadline_shed,
               overload.deadline_senders,
               overload.bounded ? "true" : "FALSE");

  bool all_identical = identity;
  for (const LoadPhase& phase : phases) {
    all_identical = all_identical && phase.identical;
  }

  if (json_path != nullptr) {
    std::FILE* out = std::fopen(json_path, "w");
    DEPMATCH_CHECK(out != nullptr);
    std::vector<size_t> exercised;
    for (const LoadPhase& phase : phases) exercised.push_back(phase.clients);
    benchutil::MachineReport machine =
        benchutil::MakeMachineReport(std::move(exercised));

    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"bench\": \"service\",\n");
    std::fprintf(out, "  \"timestamp_utc\": \"%s\",\n",
                 benchutil::IsoTimestampUtc().c_str());
    benchutil::WriteMachineJson(out, machine, "  ", true);
    std::fprintf(out, "  \"config\": {\n");
    std::fprintf(out, "    \"corpus_entries\": %zu,\n", corpus_entries);
    std::fprintf(out, "    \"requests_per_client\": %zu,\n", reps);
    std::fprintf(out, "    \"search_k\": 5,\n");
    std::fprintf(out, "    \"max_queue\": %zu\n", options.max_queue);
    std::fprintf(out, "  },\n");
    // Headline: the 1-client p99 (tools/bench_gate.sh greps the first
    // serve_p99_ms in file order).
    const LoadPhase& single = phases.front();
    std::fprintf(out, "  \"headline\": {\n");
    std::fprintf(out, "    \"serve_p99_ms\": %.4f,\n",
                 single.latency.p99_ms);
    std::fprintf(out, "    \"qps_1_client\": %.1f,\n", single.qps);
    std::fprintf(out, "    \"qps_max\": %.1f,\n",
                 [&] {
                   double best = 0.0;
                   for (const LoadPhase& phase : phases)
                     best = std::max(best, phase.qps);
                   return best;
                 }());
    std::fprintf(out, "    \"identical\": %s\n",
                 all_identical ? "true" : "false");
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"overload\": {\n");
    std::fprintf(out, "    \"max_queue\": %zu,\n", overload.max_queue);
    std::fprintf(out, "    \"senders\": %zu,\n", overload.senders);
    std::fprintf(out, "    \"served\": %zu,\n", overload.served);
    std::fprintf(out, "    \"shed_overloaded\": %zu,\n",
                 overload.shed_overloaded);
    std::fprintf(out, "    \"shed_max_ms\": %.3f,\n", overload.shed_max_ms);
    std::fprintf(out, "    \"deadline_shed\": %zu,\n",
                 overload.deadline_shed);
    std::fprintf(out, "    \"deadline_senders\": %zu,\n",
                 overload.deadline_senders);
    std::fprintf(out, "    \"bounded\": %s\n",
                 overload.bounded ? "true" : "false");
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"results\": [\n");
    for (size_t i = 0; i < phases.size(); ++i) {
      const LoadPhase& phase = phases[i];
      std::fprintf(out, "    {\n");
      std::fprintf(out, "      \"clients\": %zu,\n", phase.clients);
      std::fprintf(out, "      \"requests\": %zu,\n", phase.requests);
      std::fprintf(out, "      \"wall_ms\": %.2f,\n", phase.wall_ms);
      std::fprintf(out, "      \"qps\": %.1f,\n", phase.qps);
      std::fprintf(out, "      \"min_ms\": %.4f,\n", phase.latency.min_ms);
      std::fprintf(out, "      \"mean_ms\": %.4f,\n", phase.latency.mean_ms);
      std::fprintf(out, "      \"p50_ms\": %.4f,\n", phase.latency.p50_ms);
      std::fprintf(out, "      \"p99_ms\": %.4f,\n", phase.latency.p99_ms);
      std::fprintf(out, "      \"max_ms\": %.4f,\n", phase.latency.max_ms);
      std::fprintf(out, "      \"identical\": %s\n",
                   phase.identical ? "true" : "false");
      std::fprintf(out, "    }%s\n", i + 1 < phases.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n");
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::fprintf(stderr, "bench_service: wrote %s\n", json_path);
  }

  if (!all_identical || !overload.bounded) {
    std::fprintf(stderr,
                 "bench_service: FAILED (identical=%s bounded=%s)\n",
                 all_identical ? "true" : "false",
                 overload.bounded ? "true" : "false");
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace depmatch

int main(int argc, char** argv) { return depmatch::Run(argc, argv); }
