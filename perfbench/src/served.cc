// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// The untraced served run: an in-process ServiceServer on an AF_UNIX
// socket (the daemon core depmatch_serve runs) and closed-loop clients,
// each on its own thread and connection, blocking on every reply. It
// touches only the wire client and server, MatchService construction
// with num_threads (every other option at its default), and the
// generated inputs.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <latch>
#include <thread>
#include <utility>

#include <malloc.h>
#include <unistd.h>

#include "depmatch/common/logging.h"
#include "depmatch/common/string_util.h"
#include "depmatch/service/client.h"
#include "depmatch/service/match_service.h"
#include "perfbench.h"

namespace perfbench {

namespace service = depmatch::service;
using service::Request;
using service::RequestType;
using service::Response;
using service::ServiceClient;
using service::WireStatus;

namespace {

double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(status);
  return kb / 1024.0;
}

// Returns the heap the earlier set-ups freed to the system and restarts
// the peak-RSS count, so that peak_rss_mb is the served stack's own peak.
// Without it the peak depends on which allocator arenas the set-up
// threads happened to get. Returns false if the peak cannot be reset.
bool ResetPeakRss() {
  malloc_trim(0);
  std::FILE* clear = std::fopen("/proc/self/clear_refs", "w");
  if (clear == nullptr) return false;
  bool reset = std::fputs("5", clear) >= 0;
  return std::fclose(clear) == 0 && reset;
}

// Builds catalog, service and server, and for append_mixed inserts the
// table-backed entries through the wire, as a deployment would.
std::unique_ptr<service::ServiceServer> BuildServer(const Config& config, const Inputs& inputs,
                 const std::string& socket_path) {
  depmatch::GraphCatalog catalog;
  for (size_t i = 0; i < inputs.corpus_graphs.size(); ++i) {
    depmatch::Status inserted = catalog.Insert(depmatch::CorpusEntryName(i),
                                               inputs.corpus_graphs[i]);
    DEPMATCH_CHECK(inserted.ok());
  }
  service::ServiceOptions options;
  options.num_threads = config.nproc;
  auto match_service =
      std::make_unique<service::MatchService>(std::move(catalog), options);
  service::ServerOptions server_options;
  server_options.socket_path = socket_path;
  auto server = std::make_unique<service::ServiceServer>(
      std::move(match_service), std::move(server_options));
  depmatch::Status started = server->Start();
  DEPMATCH_CHECK(started.ok());

  if (!inputs.append_entries.empty()) {
    depmatch::Result<ServiceClient> client =
        ServiceClient::Connect(socket_path);
    DEPMATCH_CHECK(client.ok());
    for (const AppendEntry& entry : inputs.append_entries) {
      depmatch::Result<Response> inserted =
          client->InsertTable(entry.name, entry.base);
      DEPMATCH_CHECK(inserted.ok() && inserted->status == WireStatus::kOk);
    }
  }
  return server;
}

// What one client thread sends next.
struct Plan {
  RequestType type = RequestType::kSearch;
  size_t stream = 0;  // index into the search or match streams
};

std::vector<Plan> MakePlans(const Config& config, const Inputs& inputs) {
  std::vector<Plan> plans;
  switch (config.workload) {
    case Workload::kSearchNear:
      for (size_t c = 0; c < inputs.search_streams.size(); ++c) {
        plans.push_back({RequestType::kSearch, c});
      }
      break;
    case Workload::kMatchTables:
      for (size_t c = 0; c < inputs.match_streams.size(); ++c) {
        plans.push_back({RequestType::kMatchTables, c});
      }
      break;
    case Workload::kAppendMixed:
      plans.push_back({RequestType::kAppend, 0});
      for (size_t c = 0; c < inputs.search_streams.size(); ++c) {
        plans.push_back({RequestType::kSearch, c});
      }
      break;
  }
  return plans;
}

// The request at position `seq` of a plan, with the input it came from;
// false when the plan's stream is exhausted (only the appender's is
// finite).
bool NextRequest(const Plan& plan, const Sizes& sizes, const Inputs& inputs,
                 size_t seq, Request* request, size_t* input) {
  switch (plan.type) {
    case RequestType::kSearch: {
      const auto& stream = inputs.search_streams[plan.stream];
      *input = stream[seq % stream.size()];
      *request = MakeSearchRequest(depmatch::CorpusEntryName(*input), sizes.k);
      return true;
    }
    case RequestType::kMatchTables: {
      const auto& stream = inputs.match_streams[plan.stream];
      *input = stream[seq % stream.size()];
      *request = MakeMatchRequest(inputs.match_pool[*input]);
      return true;
    }
    case RequestType::kAppend: {
      if (seq >= inputs.append_order.size()) return false;
      *input = seq;
      const auto& [entry, delta] = inputs.append_order[seq];
      *request = MakeAppendRequest(inputs.append_entries[entry], delta);
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

double SetUp(const Config& config, const Sizes& sizes, Inputs* inputs,
             std::unique_ptr<service::ServiceServer>* server) {
  if (*server != nullptr) {
    (*server)->Stop();
    server->reset();
  }
  // Drop the previous inputs first, so that peak_rss_mb never counts two
  // generations of them.
  *inputs = Inputs();
  Clock::time_point t0 = Clock::now();
  *inputs = MakeInputs(config, sizes);
  *server = BuildServer(config, *inputs,
                        depmatch::StrFormat("%s/serve-%d.sock",
                                            config.out_dir.c_str(),
                                            static_cast<int>(getpid())));
  return MsBetween(t0, Clock::now()) / 1000.0;
}

ServedRun RunServed(const Config& config, const Sizes& sizes,
                    const Inputs& inputs, service::ServiceServer& server) {
  ServedRun run;
  std::vector<Plan> plans = MakePlans(config, inputs);
  run.client_threads = plans.size();
  std::vector<std::vector<Sample>> per_client(plans.size());
  std::atomic<size_t> connect_failures{0};
  std::latch connected(static_cast<std::ptrdiff_t>(plans.size()));
  std::latch go(1);
  Clock::time_point start;
  Clock::time_point deadline;

  run.setup_peak_rss_mb = PeakRssMb();
  run.peak_rss_reset = ResetPeakRss();
  run.stats_before = server.match_service().Stats();
  {
    std::vector<std::thread> threads;
    threads.reserve(plans.size());
    for (size_t c = 0; c < plans.size(); ++c) {
      threads.emplace_back([&, c] {
        depmatch::Result<ServiceClient> client =
            ServiceClient::Connect(server.socket_path());
        connected.count_down();
        go.wait();
        if (!client.ok()) {
          connect_failures.fetch_add(1);
          return;
        }
        uint64_t request_id = 0;
        for (size_t seq = 0; Clock::now() < deadline; ++seq) {
          Sample sample;
          Request request;
          if (!NextRequest(plans[c], sizes, inputs, seq, &request,
                           &sample.input)) {
            break;
          }
          request.request_id = ++request_id;
          sample.type = plans[c].type;
          Clock::time_point t0 = Clock::now();
          depmatch::Result<Response> response = client->Call(request);
          sample.done = Clock::now();
          sample.latency_ms = MsBetween(t0, sample.done);
          if (!response.ok()) {
            // The connection cannot be trusted after a transport error.
            per_client[c].push_back(std::move(sample));
            return;
          }
          sample.ok = response->status == WireStatus::kOk;
          sample.response = *std::move(response);
          per_client[c].push_back(std::move(sample));
        }
      });
    }
    connected.wait();
    start = Clock::now();
    deadline = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(config.seconds));
    go.count_down();
    for (std::thread& thread : threads) thread.join();
  }
  run.stats_after = server.match_service().Stats();
  run.peak_rss_mb = PeakRssMb();
  run.start = start;
  run.connect_failures = connect_failures.load();

  Clock::time_point last = start;
  for (auto& samples : per_client) {
    for (Sample& sample : samples) {
      last = std::max(last, sample.done);
      run.samples.push_back(std::move(sample));
    }
  }
  run.window_s = MsBetween(start, last) / 1000.0;
  return run;
}

}  // namespace perfbench
