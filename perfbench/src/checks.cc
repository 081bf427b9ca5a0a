// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// Correctness checks, run after the timed window. Every failure counts
// against served_frac:
//   * every served search and match response must be bit-identical to
//     MatchService's direct execution path on the snapshot it names
//     (each distinct request is executed once per snapshot and compared
//     with every served response to it);
//   * match responses are scored against the known column permutation,
//     search hits against the corpus's related band;
//   * append_mixed: the snapshots the searches name are re-derived by
//     replaying the same inserts and appends through a fresh MatchService,
//     every append reply must match, and each appended entry's final graph
//     must equal a cold build of the concatenated slices.

#include <algorithm>
#include <bit>
#include <map>
#include <mutex>
#include <utility>

#include "depmatch/common/string_util.h"
#include "depmatch/common/thread_pool.h"
#include "depmatch/datagen/datasets.h"
#include "depmatch/graph/graph_builder.h"
#include "depmatch/service/match_service.h"
#include "perfbench.h"

namespace perfbench {

namespace service = depmatch::service;
using service::MatchService;
using service::Request;
using service::RequestType;
using service::Response;
using service::ServiceSnapshot;

namespace {

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameSearch(const Response& served, const Response& direct) {
  const service::SearchResponse& a = served.search;
  const service::SearchResponse& b = direct.search;
  if (served.status != direct.status || a.hits.size() != b.hits.size() ||
      a.snapshot_version != b.snapshot_version ||
      a.entries_total != b.entries_total ||
      a.entries_searched != b.entries_searched) {
    return false;
  }
  for (size_t i = 0; i < a.hits.size(); ++i) {
    const service::SearchHit& x = a.hits[i];
    const service::SearchHit& y = b.hits[i];
    if (x.name != y.name || x.entry != y.entry || x.pairs != y.pairs ||
        !BitEqual(x.ranking_key, y.ranking_key) ||
        !BitEqual(x.normalized_score, y.normalized_score) ||
        !BitEqual(x.metric_value, y.metric_value)) {
      return false;
    }
  }
  return true;
}

bool SameMatch(const Response& served, const Response& direct) {
  const service::MatchTablesResponse& a = served.match;
  const service::MatchTablesResponse& b = direct.match;
  if (served.status != direct.status || !BitEqual(a.metric_value, b.metric_value) ||
      a.metric != b.metric || a.correspondences.size() != b.correspondences.size()) {
    return false;
  }
  for (size_t i = 0; i < a.correspondences.size(); ++i) {
    const service::WireCorrespondence& x = a.correspondences[i];
    const service::WireCorrespondence& y = b.correspondences[i];
    if (x.source_index != y.source_index || x.target_index != y.target_index ||
        x.source_name != y.source_name || x.target_name != y.target_name) {
      return false;
    }
  }
  return true;
}

bool SameGraph(const depmatch::DependencyGraph& a,
               const depmatch::DependencyGraph& b) {
  if (a.names() != b.names()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < a.size(); ++j) {
      if (!BitEqual(a.mi(i, j), b.mi(i, j))) return false;
    }
  }
  return true;
}

struct Checker {
  const Sizes& sizes;
  const Inputs& inputs;
  CheckReport report;
  std::mutex mu;

  void Fail(std::string note) {
    std::lock_guard<std::mutex> lock(mu);
    ++report.failures;
    if (report.notes.size() < 16) report.notes.push_back(std::move(note));
  }

  // Schedules one direct execution per distinct entry searched in `group`
  // (all served from `snapshot`) and its comparison with every served
  // response to it. The caller waits on the pool.
  void ScheduleSearchChecks(const std::vector<const Sample*>& group,
                            std::shared_ptr<const ServiceSnapshot> snapshot,
                            const service::ServiceOptions& options,
                            depmatch::ThreadPool& pool) {
    std::map<size_t, std::vector<const Sample*>> by_entry;
    for (const Sample* sample : group) by_entry[sample->input].push_back(sample);
    for (auto& [entry, samples] : by_entry) {
      pool.Schedule([this, entry = entry, samples = std::move(samples),
                     snapshot, &options] {
        Request request =
            MakeSearchRequest(depmatch::CorpusEntryName(entry), sizes.k);
        Response direct =
            MatchService::ExecuteSearchDirect(request, *snapshot, options);
        for (const Sample* sample : samples) {
          if (!SameSearch(sample->response, direct)) {
            Fail(depmatch::StrFormat(
                "search for entry %zu at snapshot %llu differs from the "
                "direct execution",
                entry, static_cast<unsigned long long>(snapshot->version)));
          }
        }
      });
    }
    report.checked += group.size();
  }

  // Searches of a run whose snapshot never changes (search_near).
  void CheckStaticSearches(const std::vector<const Sample*>& searches,
                           MatchService& served, depmatch::ThreadPool& pool) {
    std::map<uint64_t, std::vector<const Sample*>> by_version;
    for (const Sample* sample : searches) {
      by_version[sample->response.search.snapshot_version].push_back(sample);
    }
    for (auto& [version, group] : by_version) {
      std::shared_ptr<const ServiceSnapshot> snapshot = served.SnapshotAt(version);
      if (snapshot == nullptr) {
        for (size_t i = 0; i < group.size(); ++i) {
          Fail(depmatch::StrFormat("snapshot %llu is no longer retained",
                                   static_cast<unsigned long long>(version)));
        }
        continue;
      }
      ScheduleSearchChecks(group, snapshot, served.options(), pool);
    }
    pool.Wait();
  }

  void CheckMatches(const std::vector<const Sample*>& matches,
                    depmatch::ThreadPool& pool) {
    std::map<size_t, std::vector<const Sample*>> by_case;
    for (const Sample* sample : matches) by_case[sample->input].push_back(sample);
    for (auto& [index, samples] : by_case) {
      pool.Schedule([&, index = index, samples = &samples] {
        Response direct = MatchService::ExecuteMatchDirect(
            MakeMatchRequest(inputs.match_pool[index]), nullptr);
        for (const Sample* sample : *samples) {
          if (!SameMatch(sample->response, direct)) {
            Fail(depmatch::StrFormat(
                "match of pool case %zu differs from the direct execution",
                index));
          }
        }
      });
    }
    pool.Wait();
    report.checked += matches.size();
    double precision = 0.0;
    for (const Sample* sample : matches) {
      const std::vector<size_t>& truth = inputs.match_pool[sample->input].truth;
      size_t correct = 0;
      for (const service::WireCorrespondence& c :
           sample->response.match.correspondences) {
        if (c.source_index < truth.size() &&
            truth[c.source_index] == c.target_index) {
          ++correct;
        }
      }
      precision += static_cast<double>(correct) /
                   static_cast<double>(std::max<size_t>(1, truth.size()));
    }
    report.quality = matches.empty()
                         ? 0.0
                         : precision / static_cast<double>(matches.size());
  }

  // Replays the setup inserts and the served appends, in order, through
  // a fresh service, checking each append reply and, at every snapshot
  // version, the searches served from it.
  void CheckAppendMixed(const std::vector<const Sample*>& searches,
                        const std::vector<const Sample*>& appends,
                        MatchService& served, depmatch::ThreadPool& pool) {
    std::map<uint64_t, std::vector<const Sample*>> by_version;
    for (const Sample* sample : searches) {
      by_version[sample->response.search.snapshot_version].push_back(sample);
    }
    depmatch::GraphCatalog catalog;
    for (size_t i = 0; i < inputs.corpus_graphs.size(); ++i) {
      (void)catalog.Insert(depmatch::CorpusEntryName(i), inputs.corpus_graphs[i]);
    }
    MatchService replica(std::move(catalog), served.options());
    for (const AppendEntry& entry : inputs.append_entries) {
      Request insert;
      insert.type = RequestType::kInsert;
      insert.insert.name = entry.name;
      insert.insert.table = entry.base;
      if (replica.Process(insert).status != service::WireStatus::kOk) {
        Fail("replica insert failed");
      }
    }
    // The checks of a version run on the pool while the replica moves on;
    // waiting every few versions bounds the catalog copies kept alive.
    size_t pending_versions = 0;
    auto check_version = [&] {
      std::shared_ptr<const ServiceSnapshot> snapshot = replica.snapshot();
      auto it = by_version.find(snapshot->version);
      if (it == by_version.end()) return;
      ScheduleSearchChecks(it->second, snapshot, replica.options(), pool);
      by_version.erase(it);
      if (++pending_versions == 4) {
        pool.Wait();
        pending_versions = 0;
      }
    };
    check_version();
    std::vector<size_t> applied(inputs.append_entries.size(), 0);
    for (const Sample* sample : appends) {
      const auto& [entry, delta] = inputs.append_order[sample->input];
      Response direct =
          replica.Process(MakeAppendRequest(inputs.append_entries[entry], delta));
      const service::AppendResponse& a = sample->response.append;
      const service::AppendResponse& b = direct.append;
      ++report.checked;
      if (direct.status != sample->response.status ||
          a.snapshot_version != b.snapshot_version ||
          a.catalog_entries != b.catalog_entries ||
          a.rows_total != b.rows_total || a.generation != b.generation) {
        Fail(depmatch::StrFormat("append %zu differs from its replay",
                                 sample->input));
      }
      ++applied[entry];
      check_version();
    }
    pool.Wait();
    for (auto& [version, group] : by_version) {
      for (size_t i = 0; i < group.size(); ++i) {
        Fail(depmatch::StrFormat("search named snapshot %llu, never published",
                                 static_cast<unsigned long long>(version)));
      }
    }

    // Each appended entry's served graph against a cold build.
    std::shared_ptr<const ServiceSnapshot> final_snapshot = served.snapshot();
    for (size_t e = 0; e < inputs.append_entries.size(); ++e) {
      const AppendEntry& entry = inputs.append_entries[e];
      std::vector<depmatch::Table> slices(entry.deltas.begin(),
                                          entry.deltas.begin() +
                                              static_cast<std::ptrdiff_t>(applied[e]));
      depmatch::Result<depmatch::Table> all =
          depmatch::datagen::ConcatenateSlices(entry.base, slices);
      depmatch::Result<depmatch::DependencyGraph> cold =
          all.ok() ? depmatch::BuildDependencyGraph(*all)
                   : depmatch::Result<depmatch::DependencyGraph>(all.status());
      depmatch::Result<size_t> index = final_snapshot->catalog.Find(entry.name);
      ++report.checked;
      if (!cold.ok() || !index.ok() ||
          !SameGraph(*cold, final_snapshot->catalog.graph(*index))) {
        Fail(depmatch::StrFormat(
            "entry %s after %zu appends differs from a cold build",
            entry.name.c_str(), applied[e]));
      }
    }
  }

  void SearchPrecision(const std::vector<const Sample*>& searches) {
    double precision = 0.0;
    for (const Sample* sample : searches) {
      size_t related = 0;
      for (const service::SearchHit& hit : sample->response.search.hits) {
        if (hit.entry < inputs.related.size() && inputs.related[hit.entry]) {
          ++related;
        }
      }
      precision += static_cast<double>(related) / static_cast<double>(sizes.k);
    }
    report.quality = searches.empty()
                         ? 0.0
                         : precision / static_cast<double>(searches.size());
  }
};

}  // namespace

CheckReport RunChecks(const Config& config, const Sizes& sizes,
                      const Inputs& inputs, const ServedRun& run,
                      MatchService& served) {
  Checker checker{sizes, inputs, {}, {}};
  std::vector<const Sample*> searches;
  std::vector<const Sample*> matches;
  std::vector<const Sample*> appends;
  for (const Sample& sample : run.samples) {
    if (!sample.ok) continue;  // already counted as failed
    switch (sample.type) {
      case RequestType::kSearch:
        searches.push_back(&sample);
        break;
      case RequestType::kMatchTables:
        matches.push_back(&sample);
        break;
      case RequestType::kAppend:
        appends.push_back(&sample);
        break;
      default:
        break;
    }
  }
  // The appender's replies arrive in request order; keep that order.
  std::sort(appends.begin(), appends.end(),
            [](const Sample* a, const Sample* b) { return a->input < b->input; });

  depmatch::ThreadPool pool(config.nproc);
  switch (config.workload) {
    case Workload::kSearchNear:
      checker.CheckStaticSearches(searches, served, pool);
      checker.SearchPrecision(searches);
      break;
    case Workload::kMatchTables:
      checker.CheckMatches(matches, pool);
      break;
    case Workload::kAppendMixed:
      checker.CheckAppendMixed(searches, appends, served, pool);
      checker.SearchPrecision(searches);
      break;
  }
  return std::move(checker.report);
}

}  // namespace perfbench
