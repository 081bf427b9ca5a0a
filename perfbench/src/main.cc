// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// depmatch_perfbench: one workload, one seed, one measured window.
//
//   depmatch_perfbench --workload search_near|match_tables|append_mixed
//                      --seed N --seconds S --trace 0|1
//                      [--size full|tiny] [--out DIR]
//
// --trace 0 prints the end-to-end metrics of the served run; --trace 1
// runs the same served window, then the traced in-process replay, and
// prints the per-layer metrics. The last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}; DIR receives a
// detail file (machine and build fingerprint, input hash, sample counts,
// notes) and, when traced, the span file.

#include <sched.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>

#include "perfbench.h"

namespace perfbench {
namespace {

using depmatch::service::RequestType;

constexpr const char* kBuildType = PERFBENCH_BUILD_TYPE;
constexpr const char* kCompiler = PERFBENCH_COMPILER;

size_t HardwareThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// Timing from a build without optimisation describes the compiler
// settings, not the program: refuse to report one.
bool OptimisedBuild(std::string* why) {
#ifndef __OPTIMIZE__
  *why = "compiled without optimisation";
  return false;
#else
  std::string type = kBuildType;
  if (type != "Release" && type != "RelWithDebInfo") {
    *why = "CMAKE_BUILD_TYPE is '" + type + "', not Release or RelWithDebInfo";
    return false;
  }
  return true;
#endif
}

bool ParseArgs(int argc, char** argv, Config* config) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config->workload_name = value;
      have_workload = true;
      if (value == "search_near") {
        config->workload = Workload::kSearchNear;
      } else if (value == "match_tables") {
        config->workload = Workload::kMatchTables;
      } else if (value == "append_mixed") {
        config->workload = Workload::kAppendMixed;
      } else {
        return false;
      }
    } else if (flag == "--seed") {
      config->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      config->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      config->trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") return false;
      config->tiny = value == "tiny";
    } else if (flag == "--out") {
      config->out_dir = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string JsonString(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

using Metrics = std::map<std::string, std::pair<double, std::string>>;

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  for (const auto& [name, value] : metrics) {
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": {\"value\": " + JsonNumber(value.first) +
           ", \"unit\": " + JsonString(value.second) + "}";
  }
  return out + "}";
}

std::string NotesJson(const std::map<std::string, std::string>& notes) {
  std::string out = "{";
  for (const auto& [key, value] : notes) {
    if (out.size() > 1) out += ", ";
    out += JsonString(key) + ": " + JsonString(value);
  }
  return out + "}";
}

// The request type whose latency and rate headline each workload, and
// the type of its reads.
RequestType HeadlineType(Workload workload) {
  switch (workload) {
    case Workload::kSearchNear:
      return RequestType::kSearch;
    case Workload::kMatchTables:
      return RequestType::kMatchTables;
    case Workload::kAppendMixed:
      return RequestType::kAppend;
  }
  return RequestType::kSearch;
}

RequestType ReadType(Workload workload) {
  return workload == Workload::kMatchTables ? RequestType::kMatchTables
                                            : RequestType::kSearch;
}

// The window is cut into this many equal parts by completion time, and
// each reported figure is the median of its per-part values, so that a
// stall of the host in one part does not move the run's result.
constexpr size_t kParts = 3;

struct Latencies {
  size_t samples = 0;
  double p50 = 0.0;
  double tail = 0.0;
  // Smallest per-part tail percentile (each has >= 10 samples beyond).
  double tail_percentile = 0.0;
  double per_second = 0.0;
};

Latencies Summarize(const ServedRun& run, RequestType type) {
  std::vector<std::vector<double>> parts(kParts);
  double part_s = run.window_s / static_cast<double>(kParts);
  Latencies out;
  for (const Sample& sample : run.samples) {
    if (!sample.ok || sample.type != type) continue;
    double at_s = MsBetween(run.start, sample.done) / 1000.0;
    size_t part = part_s > 0.0 ? static_cast<size_t>(at_s / part_s) : 0;
    parts[std::min(part, kParts - 1)].push_back(sample.latency_ms);
    ++out.samples;
  }
  std::vector<double> p50s, tails, rates;
  out.tail_percentile = 100.0;
  for (const std::vector<double>& part : parts) {
    double percentile = TailPercentile(part.size());
    out.tail_percentile = std::min(out.tail_percentile, percentile);
    p50s.push_back(Median(part));
    tails.push_back(Percentile(part, percentile));
    rates.push_back(part_s > 0.0 ? static_cast<double>(part.size()) / part_s
                                 : 0.0);
  }
  out.p50 = Median(p50s);
  out.tail = Median(tails);
  out.per_second = Median(rates);
  return out;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %lld, \"request\": %llu, "
                 "\"replayed\": %s}\n",
                 i, span.name, static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.request),
                 span.replayed ? "true" : "false");
  }
  std::fclose(out);
}

int Main(int argc, char** argv) {
  Config config;
  config.out_dir = ".bench_out";
  if (!ParseArgs(argc, argv, &config)) {
    std::fprintf(stderr,
                 "usage: depmatch_perfbench --workload "
                 "search_near|match_tables|append_mixed --seed N --seconds S "
                 "--trace 0|1 [--size full|tiny] [--out DIR]\n");
    return 2;
  }
  std::string why;
  if (!OptimisedBuild(&why)) {
    std::fprintf(stderr, "refusing to report from this build: %s\n",
                 why.c_str());
    return 3;
  }
  if (mkdir(config.out_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "cannot create %s\n", config.out_dir.c_str());
    return 1;
  }
  config.nproc = HardwareThreads();
  Sizes sizes = Sizes::For(config.tiny);

  // setup_s is the median of several complete set-ups; the last one
  // serves.
  Inputs inputs;
  std::unique_ptr<depmatch::service::ServiceServer> server;
  std::vector<double> setup_reps_s;
  for (size_t rep = 0; rep < sizes.setup_reps; ++rep) {
    setup_reps_s.push_back(SetUp(config, sizes, &inputs, &server));
  }
  ServedRun run = RunServed(config, sizes, inputs, *server);
  Clock::time_point replay_start = Clock::now();
  LayerReport layers;
  if (config.trace) layers = RunTracedReplay(config, sizes, inputs, run,
                                                server->match_service());
  Clock::time_point checks_start = Clock::now();
  CheckReport checks = RunChecks(config, sizes, inputs, run,
                                   server->match_service());
  double replay_s = MsBetween(replay_start, checks_start) / 1000.0;
  double checks_s = MsBetween(checks_start, Clock::now()) / 1000.0;
  server->Stop();

  size_t attempted = run.samples.size() + run.connect_failures;
  size_t failed = run.connect_failures + checks.failures;
  for (const Sample& sample : run.samples) {
    if (!sample.ok) ++failed;
  }
  failed = std::min(failed, attempted);
  attempted = std::max<size_t>(attempted, 1);

  Latencies head = Summarize(run, HeadlineType(config.workload));
  Latencies reads = Summarize(run, ReadType(config.workload));
  double rows_per_s = 0.0;
  if (config.workload == Workload::kAppendMixed) {
    double rows = 0.0;
    for (const Sample& sample : run.samples) {
      if (!sample.ok || sample.type != RequestType::kAppend) continue;
      const auto& [e, d] = inputs.append_order[sample.input];
      rows += static_cast<double>(inputs.append_entries[e].deltas[d].num_rows());
    }
    rows_per_s = run.window_s > 0.0 ? rows / run.window_s : 0.0;
  }

  Metrics metrics;
  if (config.trace) {
    metrics = layers.metrics;
  } else {
    metrics["setup_s"] = {Median(setup_reps_s), "s"};
    metrics["p50_ms"] = {head.p50, "ms"};
    metrics["p99_ms"] = {head.tail, "ms"};
    metrics["throughput"] = {head.per_second, "1/s"};
    metrics["read_p99_ms"] = {reads.tail, "ms"};
    metrics["quality"] = {checks.quality, "ratio"};
    metrics["served_frac"] = {
        static_cast<double>(attempted - failed) / static_cast<double>(attempted),
        "ratio"};
    metrics["peak_rss_mb"] = {run.peak_rss_mb, "MB"};
  }

  std::string tag = config.workload_name + "-s" + std::to_string(config.seed) +
                    "-t" + (config.trace ? "1" : "0");
  if (config.trace) {
    WriteSpans(config.out_dir + "/spans-" + tag + ".jsonl", layers.spans);
  }
  char hash[32];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(inputs.fingerprint));
  std::string setup_reps;
  for (double s : setup_reps_s) {
    setup_reps += (setup_reps.empty() ? "" : ", ") + JsonNumber(s);
  }
  std::string check_notes;
  for (const std::string& note : checks.notes) {
    check_notes += (check_notes.empty() ? "" : ", ") + JsonString(note);
  }
  std::string detail =
      "{\"workload\": " + JsonString(config.workload_name) +
      ", \"seed\": " + std::to_string(config.seed) +
      ", \"trace\": " + (config.trace ? "1" : "0") +
      ", \"size\": " + JsonString(config.tiny ? "tiny" : "full") +
      ", \"machine\": {\"nproc\": " + std::to_string(config.nproc) +
      ", \"client_threads\": " + std::to_string(run.client_threads) +
      ", \"service_threads\": " + std::to_string(config.nproc) +
      ", \"compiler\": " + JsonString(kCompiler) +
      ", \"build_type\": " + JsonString(kBuildType) + "}" +
      ", \"input_fingerprint\": \"" + hash + "\"" +
      ", \"generate_s\": " + JsonNumber(inputs.generate_s) +
      ", \"setup_reps_s\": [" + setup_reps + "]" +
      ", \"setup_peak_rss_mb\": " + JsonNumber(run.setup_peak_rss_mb) +
      ", \"peak_rss_reset\": " + (run.peak_rss_reset ? "true" : "false") +
      ", \"window_s\": " + JsonNumber(run.window_s) +
      ", \"replay_s\": " + JsonNumber(replay_s) +
      ", \"checks_s\": " + JsonNumber(checks_s) +
      ", \"headline\": {\"samples\": " + std::to_string(head.samples) +
      ", \"tail_percentile\": " + JsonNumber(head.tail_percentile) + "}" +
      ", \"reads\": {\"samples\": " + std::to_string(reads.samples) +
      ", \"p50_ms\": " + JsonNumber(reads.p50) +
      ", \"tail_percentile\": " + JsonNumber(reads.tail_percentile) +
      ", \"per_second\": " + JsonNumber(reads.per_second) + "}" +
      ", \"append_rows_per_s\": " + JsonNumber(rows_per_s) +
      ", \"checked\": " + std::to_string(checks.checked) +
      ", \"check_failures\": " + std::to_string(checks.failures) +
      ", \"check_notes\": [" + check_notes + "]" +
      ", \"notes\": " + NotesJson(layers.notes) +
      ", \"metrics\": " + MetricsJson(metrics) + "}\n";
  std::string detail_path = config.out_dir + "/result-" + tag + ".json";
  if (std::FILE* out = std::fopen(detail_path.c_str(), "w")) {
    std::fputs(detail.c_str(), out);
    std::fclose(out);
  }
  std::fprintf(stderr, "%s", detail.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              MetricsJson(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
