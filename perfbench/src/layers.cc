// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// The traced replay. It re-runs served requests in-process on one
// thread, timing each call into a library layer's public functions from
// here, so no code under src/ carries instrumentation. Every direct
// layer call of the benchmark lives in this file.
//
// A request replays as the served path does (request encode, decode,
// MatchService's direct execution on the snapshot, response encode,
// decode), and the execution is then decomposed by calling the layers it
// is made of one by one: SearchCatalog and a MatchGraphs per ranked hit
// for a search; encode, joint counts, graph build and GraphMatch for a
// MatchTables; count-state append, refold, catalog copy and entry update
// for an AppendRows (the one path replayed as nested calls, since the
// service has no direct append entry point). Decomposition spans run
// after their parent returned and are flagged `replayed`; the self time
// of such a parent is its duration minus the modelled children.
//
// service.overhead_ms is what the served latency adds to the replayed
// codec and execution: socket transfer, admission wait and dispatch.
// trace.residual_frac is the part of the served p50 that the layer self
// times plus that overhead do not account for — the execution glue no
// layer below covers. trace.overhead_frac compares the replayed served
// path with spans against the same calls without them.

#include <algorithm>
#include <cmath>
#include <utility>

#include "depmatch/common/logging.h"
#include "depmatch/common/string_util.h"
#include "depmatch/core/graph_catalog.h"
#include "depmatch/graph/graph_builder.h"
#include "depmatch/graph/incremental_builder.h"
#include "depmatch/match/matcher.h"
#include "depmatch/service/match_service.h"
#include "depmatch/stats/joint_kernel.h"
#include "depmatch/stats/stat_cache.h"
#include "depmatch/table/encoded_column.h"
#include "perfbench.h"

namespace perfbench {

namespace service = depmatch::service;
using service::MatchService;
using service::Request;
using service::RequestType;
using service::Response;
using service::ServiceSnapshot;

namespace {

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {
    spans_.reserve(1 << 14);
  }

  int64_t Begin(const char* name, int64_t parent, uint64_t request,
                bool replayed = false) {
    Span span;
    span.name = name;
    span.parent = parent;
    span.request = request;
    span.replayed = replayed;
    spans_.push_back(span);
    spans_.back().start_ns = Now();
    return static_cast<int64_t>(spans_.size() - 1);
  }

  // Closes the span and returns its duration in ms.
  double End(int64_t id) {
    Span& span = spans_[static_cast<size_t>(id)];
    span.end_ns = Now();
    return static_cast<double>(span.end_ns - span.start_ns) / 1e6;
  }

  std::vector<Span> Take() { return std::move(spans_); }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Per-request values of one request type, keyed by metric name.
using Series = std::map<std::string, std::vector<double>>;

double P50(const Series& series, const std::string& key) {
  auto it = series.find(key);
  return it == series.end() ? 0.0 : Median(it->second);
}

// One request's served path: codec and direct execution, timed.
struct ServedPath {
  double request_encode_ms = 0.0;
  double request_decode_ms = 0.0;
  double exec_ms = 0.0;
  double response_encode_ms = 0.0;
  double response_decode_ms = 0.0;
  double request_bytes = 0.0;
  double response_bytes = 0.0;
  int64_t exec_span = -1;
  Response response;

  double total() const {
    return request_encode_ms + request_decode_ms + exec_ms +
           response_encode_ms + response_decode_ms;
  }
};

// Replays the served path of `request` under `root`. `exec` receives the
// decoded request and the id of its service.exec span (-1 when untraced),
// under which nested layer spans may open.
template <typename Exec>
ServedPath ReplayServedPath(Tracer& tracer, int64_t root, uint64_t id,
                            const Request& request, Exec exec) {
  ServedPath path;
  int64_t span = tracer.Begin("service.request_encode", root, id);
  std::string frame = service::EncodeRequest(request);
  path.request_encode_ms = tracer.End(span);
  span = tracer.Begin("service.request_decode", root, id);
  depmatch::Result<Request> decoded = service::DecodeRequest(frame);
  path.request_decode_ms = tracer.End(span);
  DEPMATCH_CHECK(decoded.ok());
  path.exec_span = tracer.Begin("service.exec", root, id);
  path.response = exec(*decoded, path.exec_span);
  path.exec_ms = tracer.End(path.exec_span);
  span = tracer.Begin("service.response_encode", root, id);
  std::string response_frame = service::EncodeResponse(path.response);
  path.response_encode_ms = tracer.End(span);
  span = tracer.Begin("service.response_decode", root, id);
  depmatch::Result<Response> response = service::DecodeResponse(response_frame);
  path.response_decode_ms = tracer.End(span);
  DEPMATCH_CHECK(response.ok());
  path.request_bytes = static_cast<double>(frame.size());
  path.response_bytes = static_cast<double>(response_frame.size());
  return path;
}

// The same calls with no span recorded: the untraced side of
// trace.overhead_frac.
template <typename Exec>
double UntracedServedPathMs(const Request& request, Exec exec) {
  Clock::time_point t0 = Clock::now();
  std::string frame = service::EncodeRequest(request);
  depmatch::Result<Request> decoded = service::DecodeRequest(frame);
  DEPMATCH_CHECK(decoded.ok());
  Response response = exec(*decoded, int64_t{-1});
  std::string response_frame = service::EncodeResponse(response);
  depmatch::Result<Response> parsed = service::DecodeResponse(response_frame);
  DEPMATCH_CHECK(parsed.ok());
  return MsBetween(t0, Clock::now());
}

void RecordServedPath(const ServedPath& path, Series* series) {
  (*series)["service.request_encode_ms"].push_back(path.request_encode_ms);
  (*series)["service.request_decode_ms"].push_back(path.request_decode_ms);
  (*series)["service.exec_ms"].push_back(path.exec_ms);
  (*series)["service.response_encode_ms"].push_back(path.response_encode_ms);
  (*series)["service.response_decode_ms"].push_back(path.response_decode_ms);
  (*series)["service.request_bytes"].push_back(path.request_bytes);
  (*series)["service.response_bytes"].push_back(path.response_bytes);
  (*series)["codec_ms"].push_back(path.total() - path.exec_ms);
}

class Replay {
 public:
  Replay(const Config& config, const Sizes& sizes, const Inputs& inputs,
         const ServedRun& run, MatchService& served)
      : config_(config),
        sizes_(sizes),
        inputs_(inputs),
        run_(run),
        served_(served),
        tracer_(Clock::now()),
        budget_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(config.seconds))) {}

  // The first served (ok) samples of `type`, in completion order; starts
  // the type's replay budget.
  std::vector<const Sample*> FirstServed(RequestType type) {
    std::vector<const Sample*> picked;
    for (const Sample& sample : run_.samples) {
      if (sample.ok && sample.type == type) picked.push_back(&sample);
    }
    std::sort(picked.begin(), picked.end(),
              [](const Sample* a, const Sample* b) { return a->done < b->done; });
    size_t cap = type == RequestType::kSearch ? sizes_.replay_searches
                                              : sizes_.replay_others;
    if (picked.size() > cap) picked.resize(cap);
    budget_end_ = Clock::now() + budget_;
    return picked;
  }

  // A guard on the run's length; the caps above normally end the replay.
  bool OverBudget() const { return Clock::now() > budget_end_; }

  // Half the replayed requests also run the served path untraced, before
  // or after the traced pass in turn; trace.overhead_frac is the median
  // traced / untraced ratio of those requests. Returns 0 when skipped.
  template <typename Exec>
  double MaybeUntraced(size_t index, bool after, const Request& request,
                       Exec exec) {
    if (index % 2 != 0 || (index % 4 == 2) != after) return 0.0;
    return UntracedServedPathMs(request, exec);
  }

  // Replays `request`'s served path under a root span named `root_name`,
  // pairing it with an untraced pass when MaybeUntraced picks it.
  template <typename Exec>
  ServedPath TracedRequest(const char* root_name, size_t index,
                           const Request& request, Exec exec) {
    double untraced = MaybeUntraced(index, /*after=*/false, request, exec);
    int64_t root = tracer_.Begin(root_name, -1, request_id_);
    ServedPath path = ReplayServedPath(tracer_, root, request_id_, request, exec);
    double traced = tracer_.End(root);
    untraced += MaybeUntraced(index, /*after=*/true, request, exec);
    if (untraced > 0.0) traced_ratios_.push_back(traced / untraced);
    return path;
  }

  void Searches() {
    std::shared_ptr<const ServiceSnapshot> snapshot = served_.snapshot();
    const service::ServiceOptions& options = served_.options();
    depmatch::CatalogSearchOptions search_options;
    search_options.k = sizes_.k;
    search_options.match = SearchWireOptions().ToMatchOptions(1);
    search_options.num_threads = 1;
    auto exec = [&](const Request& request, int64_t) {
      return MatchService::ExecuteSearchDirect(request, *snapshot, options);
    };

    size_t index = 0;
    for (const Sample* sample : FirstServed(RequestType::kSearch)) {
      if (OverBudget()) break;
      std::string name = depmatch::CorpusEntryName(sample->input);
      Request request = MakeSearchRequest(name, sizes_.k);
      request.request_id = ++request_id_;
      ServedPath path = TracedRequest("request.search", index++, request, exec);
      RecordServedPath(path, &search_);

      depmatch::Result<size_t> entry = snapshot->catalog.Find(name);
      DEPMATCH_CHECK(entry.ok());
      const depmatch::DependencyGraph& query = snapshot->catalog.graph(*entry);
      int64_t span = tracer_.Begin("core.search", path.exec_span, request_id_,
                                   /*replayed=*/true);
      depmatch::Result<depmatch::CatalogSearchResult> searched =
          depmatch::SearchCatalog(query, snapshot->catalog, search_options);
      double search_ms = tracer_.End(span);
      DEPMATCH_CHECK(searched.ok());
      double candidates_ms = 0.0;
      for (const depmatch::CatalogMatch& hit : searched->ranked) {
        int64_t candidate = tracer_.Begin("match.candidate", span, request_id_,
                                          /*replayed=*/true);
        depmatch::Result<depmatch::MatchResult> matched = depmatch::MatchGraphs(
            query, snapshot->catalog.graph(hit.entry), search_options.match);
        double ms = tracer_.End(candidate);
        DEPMATCH_CHECK(matched.ok());
        candidates_ms += ms;
        search_["match.candidate_ms"].push_back(ms);
      }
      const depmatch::CatalogSearchStats& stats = searched->stats;
      double searched_entries = static_cast<double>(stats.entries_searched);
      double candidate_ms =
          searched->ranked.empty()
              ? 0.0
              : candidates_ms / static_cast<double>(searched->ranked.size());
      double descent_ms = search_ms - searched_entries * candidate_ms;
      search_["core.search_ms"].push_back(search_ms);
      search_["core.entries_searched"].push_back(searched_entries);
      search_["core.bound_evaluations"].push_back(
          static_cast<double>(stats.bound_evaluations));
      search_["core.cluster_bound_evaluations"].push_back(
          static_cast<double>(stats.cluster_bound_evaluations));
      search_["core.candidate_yield"].push_back(
          static_cast<double>(searched->ranked.size()) /
          std::max(1.0, searched_entries));
      search_["core.descent_ms"].push_back(descent_ms);
      search_["accounted_ms"].push_back(path.total() - path.exec_ms +
                                        descent_ms +
                                        searched_entries * candidate_ms);
      if (path.response.search.hits.size() != searched->ranked.size()) {
        notes_["core.search_ms"] =
            "decomposed search ranked a different number of hits";
      }
    }
  }

  void Matches() {
    depmatch::StatCache cache;
    auto exec = [&](const Request& request, int64_t) {
      cache.Clear();
      return MatchService::ExecuteMatchDirect(request, &cache);
    };
    depmatch::MatchOptions match_options =
        service::WireMatchOptions{}.ToMatchOptions(1);
    depmatch::StatsOptions stats_options;

    size_t index = 0;
    for (const Sample* sample : FirstServed(RequestType::kMatchTables)) {
      if (OverBudget()) break;
      Request request = MakeMatchRequest(inputs_.match_pool[sample->input]);
      request.request_id = ++request_id_;
      ServedPath path = TracedRequest("request.match", index++, request, exec);
      RecordServedPath(path, &match_);

      double encode_ms = 0.0;
      double build_ms = 0.0;
      double joint_ms = 0.0;
      size_t pairs = 0;
      size_t dense = 0;
      depmatch::DependencyGraph graphs[2];
      const depmatch::Table* tables[2] = {&request.match.source,
                                          &request.match.target};
      for (int side = 0; side < 2; ++side) {
        int64_t build = tracer_.Begin("graph.build", path.exec_span,
                                      request_id_, /*replayed=*/true);
        int64_t span = tracer_.Begin("table.encode", build, request_id_);
        depmatch::EncodedTableView view =
            depmatch::EncodedTableView::FromTable(*tables[side]);
        encode_ms += tracer_.End(span);
        depmatch::Result<depmatch::DependencyGraph> graph =
            depmatch::BuildDependencyGraph(view);
        build_ms += tracer_.End(build);
        DEPMATCH_CHECK(graph.ok());
        graphs[side] = *std::move(graph);

        span = tracer_.Begin("stats.joint_count", build, request_id_,
                             /*replayed=*/true);
        depmatch::JointCountKernel kernel;
        for (size_t x = 0; x < view.num_attributes(); ++x) {
          for (size_t y = x + 1; y < view.num_attributes(); ++y) {
            const depmatch::JointCounts& counts =
                kernel.Count(CodesOf(view.column(x)), CodesOf(view.column(y)),
                             stats_options);
            ++pairs;
            if (counts.used_dense) ++dense;
          }
        }
        joint_ms += tracer_.End(span);
      }
      int64_t span = tracer_.Begin("match.graph_match", path.exec_span,
                                   request_id_, /*replayed=*/true);
      depmatch::Result<depmatch::MatchResult> matched =
          depmatch::MatchGraphs(graphs[0], graphs[1], match_options);
      double graph_match_ms = tracer_.End(span);
      DEPMATCH_CHECK(matched.ok());

      match_["table.encode_ms"].push_back(encode_ms);
      match_["graph.build_ms"].push_back(build_ms);
      match_["stats.joint_count_ms"].push_back(joint_ms);
      match_["graph.fold_ms"].push_back(build_ms - encode_ms - joint_ms);
      match_["stats.dense_pair_frac"].push_back(
          static_cast<double>(dense) / static_cast<double>(std::max<size_t>(1, pairs)));
      match_["match.graph_match_ms"].push_back(graph_match_ms);
      match_["match.nodes_explored"].push_back(
          static_cast<double>(matched->nodes_explored));
      match_["accounted_ms"].push_back(path.total() - path.exec_ms + build_ms +
                                       graph_match_ms);
    }
  }

  // Replays the served appends in order against fresh count state and a
  // copy of the served catalog, as nested calls.
  void Appends() {
    std::vector<depmatch::IncrementalGraphBuilder> builders;
    for (const AppendEntry& entry : inputs_.append_entries) {
      depmatch::Result<depmatch::IncrementalGraphBuilder> builder =
          depmatch::IncrementalGraphBuilder::Create(entry.base);
      DEPMATCH_CHECK(builder.ok());
      builders.push_back(*std::move(builder));
    }
    depmatch::GraphCatalog current = served_.snapshot()->catalog;
    const depmatch::CatalogIndexOptions& index_options = served_.options().index;

    // One client sends every append, so completion order is request
    // order and FirstServed returns a prefix: the count state of a later
    // append depends on every earlier one.
    for (const Sample* sample : FirstServed(RequestType::kAppend)) {
      if (OverBudget()) break;
      const auto& [e, delta] = inputs_.append_order[sample->input];
      Request request = MakeAppendRequest(inputs_.append_entries[e], delta);
      request.request_id = ++request_id_;
      double stage[5] = {0, 0, 0, 0, 0};
      auto exec = [&](const Request& decoded, int64_t parent) {
        depmatch::IncrementalGraphBuilder& builder = builders[e];
        Response response;
        response.request_id = decoded.request_id;
        response.type = RequestType::kAppend;
        int64_t span = tracer_.Begin("stats.count_append", parent, request_id_);
        depmatch::Status appended = builder.Append(decoded.append.table);
        stage[0] = tracer_.End(span);
        DEPMATCH_CHECK(appended.ok());
        span = tracer_.Begin("graph.refresh", parent, request_id_);
        depmatch::Result<depmatch::DependencyGraph> refreshed = builder.Refresh();
        stage[1] = tracer_.End(span);
        DEPMATCH_CHECK(refreshed.ok());
        span = tracer_.Begin("core.catalog_copy", parent, request_id_);
        depmatch::GraphCatalog next = current;
        stage[2] = tracer_.End(span);
        span = tracer_.Begin("core.update_entry", parent, request_id_);
        depmatch::Status updated = next.UpdateEntry(
            decoded.append.name, *std::move(refreshed), index_options);
        stage[3] = tracer_.End(span);
        DEPMATCH_CHECK(updated.ok());
        // Publishing drops the superseded catalog; its release is part of
        // the copy-on-write cost the dispatcher pays.
        span = tracer_.Begin("core.catalog_release", parent, request_id_);
        current = std::move(next);
        stage[4] = tracer_.End(span);
        response.append = sample->response.append;
        return response;
      };
      int64_t root = tracer_.Begin("request.append", -1, request_id_);
      ServedPath path = ReplayServedPath(tracer_, root, request_id_, request, exec);
      tracer_.End(root);
      RecordServedPath(path, &append_);
      append_["stats.count_append_ms"].push_back(stage[0]);
      append_["graph.refresh_ms"].push_back(stage[1]);
      append_["core.catalog_copy_ms"].push_back(stage[2]);
      append_["core.update_entry_ms"].push_back(stage[3]);
      append_["core.catalog_release_ms"].push_back(stage[4]);
      append_["accounted_ms"].push_back(path.total() - path.exec_ms + stage[0] +
                                        stage[1] + stage[2] + stage[3] +
                                        stage[4]);
    }
  }

  LayerReport Finish() {
    LayerReport report;
    auto set = [&](const std::string& name, double value, const char* unit) {
      report.metrics[name] = {value, unit};
    };
    const bool search_side = config_.workload != Workload::kMatchTables;
    const Series& head = search_side ? search_ : match_;
    const RequestType head_type =
        search_side ? RequestType::kSearch : RequestType::kMatchTables;

    for (const char* name :
         {"service.request_encode_ms", "service.request_decode_ms",
          "service.response_encode_ms", "service.response_decode_ms",
          "service.exec_ms"}) {
      set(name, P50(head, name), "ms");
    }
    set("service.request_bytes", P50(head, "service.request_bytes"), "bytes");
    set("service.response_bytes", P50(head, "service.response_bytes"), "bytes");

    double served_p50 = ServedP50(head_type);
    double overhead_ms =
        served_p50 - P50(head, "codec_ms") - P50(head, "service.exec_ms");
    set("service.overhead_ms", overhead_ms, "ms");
    double residual = Residual(served_p50, overhead_ms, head);
    if (config_.workload == Workload::kAppendMixed) {
      double append_p50 = ServedP50(RequestType::kAppend);
      double append_overhead = append_p50 - P50(append_, "codec_ms") -
                               P50(append_, "service.exec_ms");
      double append_residual = Residual(append_p50, append_overhead, append_);
      report.notes["trace.residual_frac"] = depmatch::StrFormat(
          "max of searches (%.4f) and appends (%.4f); append overhead %.3f ms, "
          "append exec %.3f ms",
          residual, append_residual, append_overhead,
          P50(append_, "service.exec_ms"));
      residual = std::max(residual, append_residual);
    }
    set("trace.residual_frac", residual, "ratio");
    set("trace.overhead_frac",
        traced_ratios_.empty() ? 0.0 : Median(traced_ratios_) - 1.0, "ratio");

    const depmatch::service::StatsResponse& a = run_.stats_before;
    const depmatch::service::StatsResponse& b = run_.stats_after;
    set("service.queue_depth_max", static_cast<double>(b.max_queue_depth_seen),
        "count");
    double hits = static_cast<double>(b.stat_cache_hits - a.stat_cache_hits);
    double misses = static_cast<double>(b.stat_cache_misses - a.stat_cache_misses);
    set("service.stat_cache_hit_rate",
        hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio");

    for (const char* name :
         {"core.search_ms", "core.descent_ms", "match.candidate_ms"}) {
      set(name, P50(search_, name), "ms");
    }
    for (const char* name : {"core.entries_searched", "core.bound_evaluations",
                             "core.cluster_bound_evaluations"}) {
      set(name, P50(search_, name), "count");
    }
    set("core.candidate_yield", P50(search_, "core.candidate_yield"), "ratio");
    for (const char* name :
         {"table.encode_ms", "graph.build_ms", "stats.joint_count_ms",
          "graph.fold_ms", "match.graph_match_ms"}) {
      set(name, P50(match_, name), "ms");
    }
    set("match.nodes_explored", P50(match_, "match.nodes_explored"), "count");
    set("stats.dense_pair_frac", P50(match_, "stats.dense_pair_frac"), "ratio");
    for (const char* name : {"stats.count_append_ms", "graph.refresh_ms",
                             "core.catalog_copy_ms", "core.update_entry_ms",
                             "core.catalog_release_ms"}) {
      set(name, P50(append_, name), "ms");
    }

    // Why a layer reads 0 on this workload.
    const char* idle = "layer not exercised by this workload";
    if (search_.empty()) {
      for (const char* name :
           {"core.search_ms", "core.descent_ms", "match.candidate_ms",
            "core.entries_searched", "core.bound_evaluations",
            "core.cluster_bound_evaluations", "core.candidate_yield"}) {
        report.notes[name] = idle;
      }
    }
    if (match_.empty()) {
      for (const char* name :
           {"table.encode_ms", "graph.build_ms", "stats.joint_count_ms",
            "graph.fold_ms", "match.graph_match_ms", "match.nodes_explored",
            "stats.dense_pair_frac"}) {
        report.notes[name] = idle;
      }
    }
    if (append_.empty()) {
      for (const char* name : {"stats.count_append_ms", "graph.refresh_ms",
                               "core.catalog_copy_ms", "core.update_entry_ms",
                             "core.catalog_release_ms"}) {
        report.notes[name] = idle;
      }
    }
    if (hits + misses == 0.0) {
      report.notes["service.stat_cache_hit_rate"] =
          "no served request consulted the stat cache";
    } else if (hits == 0.0) {
      report.notes["service.stat_cache_hit_rate"] =
          "every lookup missed: each request's tables are new to the cache";
    }
    if (search_side) {
      report.notes["service.exec_ms"] =
          "service.* codec, exec and overhead describe the searches";
    }
    report.notes["replayed_requests"] = depmatch::StrFormat(
        "search %zu, match %zu, append %zu",
        Count(search_), Count(match_), Count(append_));
    report.notes.insert(notes_.begin(), notes_.end());
    report.spans = tracer_.Take();
    return report;
  }

 private:
  static depmatch::CodeView CodesOf(const depmatch::EncodedColumn& column) {
    depmatch::CodeView codes;
    codes.slots = column.slots().data();
    codes.size = column.size();
    codes.num_slots = column.num_slots();
    codes.null_count = column.null_count();
    return codes;
  }

  static size_t Count(const Series& series) {
    auto it = series.find("service.exec_ms");
    return it == series.end() ? 0 : it->second.size();
  }

  double ServedP50(RequestType type) const {
    std::vector<double> latencies;
    for (const Sample& sample : run_.samples) {
      if (sample.ok && sample.type == type) latencies.push_back(sample.latency_ms);
    }
    return Median(std::move(latencies));
  }

  // |served p50 - (overhead + codec + layer self times)| / served p50.
  static double Residual(double served_p50, double overhead_ms,
                         const Series& series) {
    if (served_p50 <= 0.0) return 0.0;
    return std::fabs(served_p50 - overhead_ms - P50(series, "accounted_ms")) /
           served_p50;
  }

  const Config& config_;
  const Sizes& sizes_;
  const Inputs& inputs_;
  const ServedRun& run_;
  MatchService& served_;
  Tracer tracer_;
  Clock::duration budget_;  // per request type
  Clock::time_point budget_end_;
  uint64_t request_id_ = 0;
  Series search_;
  Series match_;
  Series append_;
  std::vector<double> traced_ratios_;
  std::map<std::string, std::string> notes_;
};

}  // namespace

LayerReport RunTracedReplay(const Config& config, const Sizes& sizes,
                            const Inputs& inputs, const ServedRun& run,
                            MatchService& served) {
  Replay replay(config, sizes, inputs, run, served);
  switch (config.workload) {
    case Workload::kSearchNear:
      replay.Searches();
      break;
    case Workload::kMatchTables:
      replay.Matches();
      break;
    case Workload::kAppendMixed:
      replay.Searches();
      replay.Appends();
      break;
  }
  return replay.Finish();
}

}  // namespace perfbench
