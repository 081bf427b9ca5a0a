// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// MatchService: the serving core behind depmatch_serve — an admission
// queue, a pool of workers, and an immutable published catalog
// snapshot, independent of any transport (service/server.h speaks the
// socket protocol and calls Process(); tests and benches call it
// directly).
//
// Concurrency model
//
//   * Any number of caller threads enter Process(). Admission happens
//     under mu_: a stats request is answered inline (health must work
//     under overload); everything else is appended to a bounded FIFO.
//     When the queue already holds max_queue requests the caller gets
//     an immediate kOverloaded response — the service sheds load
//     explicitly instead of queueing unboundedly, so latency under
//     overload stays bounded by what is already queued.
//   * num_threads pool workers pull from that FIFO. Each takes the head
//     request and, in the same critical section, the published
//     snapshot it will run against. A request whose (admission-
//     relative) deadline has passed is answered kDeadlineExceeded there
//     instead of executing. Counters are updated before the caller's
//     promise resolves.
//   * Write barrier: an insert or append at the head starts only when
//     running_ == 0, and nothing else starts while it runs (writing_).
//     Writes thus keep admission order — every request admitted after
//     a write sees the snapshot it published — and builders_ is touched
//     by one execution at a time.
//   * Copy-on-write publication: a write copies the current catalog,
//     applies its change, and swaps the published pointer under mu_;
//     the superseded snapshot is released after unlocking. Copies share
//     every unchanged catalog entry (core/graph_catalog.h), so copying
//     costs a pointer per entry plus the tiered index, and searches in
//     flight keep their snapshot alive through its shared_ptr.
//
// Determinism: execution uses single-threaded library calls
// (num_threads = 1 inside each match/search), and scheduling only
// changes *when* a request runs, never its snapshot or options — so
// every response is bit-identical to a direct library call against
// the snapshot named in the response. The TSan stress suite
// (tests/stress/service_stress_test.cc) asserts exactly that, post
// hoc, via the retained snapshot history.

#ifndef DEPMATCH_SERVICE_MATCH_SERVICE_H_
#define DEPMATCH_SERVICE_MATCH_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "depmatch/common/thread_annotations.h"
#include "depmatch/common/thread_pool.h"
#include "depmatch/core/catalog_index.h"
#include "depmatch/core/graph_catalog.h"
#include "depmatch/graph/incremental_builder.h"
#include "depmatch/service/protocol.h"
#include "depmatch/service/snapshot.h"
#include "depmatch/stats/stat_cache.h"

namespace depmatch {
namespace service {

struct ServiceOptions {
  // Workers pulling requests from the admission queue.
  size_t num_threads = 1;
  // Admission bound: a request arriving when this many are already
  // queued is shed with kOverloaded. Must be >= 1.
  size_t max_queue = 64;
  // Deadline applied when a request carries none (0 = unlimited).
  uint64_t default_deadline_ms = 0;
  // Shape of the tiered index every published snapshot carries.
  CatalogIndexOptions index;
  // StatCache recycling: the cache is cleared before an execution that
  // would grow it past this many column entries. Inline tables arrive
  // as fresh snapshots (each gets a new table id), so without a bound
  // a long-lived daemon would accrete one entry per column per request
  // forever. 0 disables the cache entirely.
  size_t stat_cache_max_entries = 4096;
  // Past snapshots retained (newest first) for post-hoc verification:
  // SnapshotAt() can resolve the version named in a response for this
  // many publications back. 0 keeps only the current snapshot.
  size_t snapshot_history = 0;
};

class MatchService {
 public:
  // Publishes `catalog` as snapshot version 1 and starts the workers.
  MatchService(GraphCatalog catalog, ServiceOptions options);
  ~MatchService();

  MatchService(const MatchService&) = delete;
  MatchService& operator=(const MatchService&) = delete;

  // Admits `request` and blocks the calling thread until its response
  // is ready. Shed outcomes (kOverloaded, kDeadlineExceeded,
  // kShuttingDown) come back as ordinary responses. Stats requests are
  // answered inline without admission.
  Response Process(const Request& request) DEPMATCH_EXCLUDES(mu_);

  // The currently published snapshot.
  std::shared_ptr<const ServiceSnapshot> snapshot() const
      DEPMATCH_EXCLUDES(mu_);

  // The retained snapshot with `version`, or nullptr if it was never
  // published or has aged out of the history window.
  std::shared_ptr<const ServiceSnapshot> SnapshotAt(uint64_t version) const
      DEPMATCH_EXCLUDES(mu_);

  // Snapshot of the service counters (same numbers a kStats request
  // reports).
  StatsResponse Stats() const DEPMATCH_EXCLUDES(mu_);

  // Stops the workers. Queued requests are answered kShuttingDown; the
  // requests currently executing finish first. Idempotent; also run by
  // the destructor.
  void Stop() DEPMATCH_EXCLUDES(mu_);

  // Test hooks: keep / let the workers take requests from the queue, so
  // tests can fill it deterministically and observe shedding. Not used
  // by production callers.
  void PauseForTest() DEPMATCH_EXCLUDES(mu_);
  void ResumeForTest() DEPMATCH_EXCLUDES(mu_);
  size_t QueueDepthForTest() const DEPMATCH_EXCLUDES(mu_);

  // The direct-call equivalents of the served execution paths, exposed
  // so benches and the stress suite can reproduce a response
  // bit-identically from the snapshot named in it. ExecuteSearchDirect
  // ignores `options`: no ServiceOptions field changes a search
  // response.
  static Response ExecuteMatchDirect(const Request& request,
                                     StatCache* stat_cache);
  static Response ExecuteSearchDirect(const Request& request,
                                      const ServiceSnapshot& snapshot,
                                      const ServiceOptions& options);

  const ServiceOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct WorkItem {
    Request request;
    Clock::time_point admitted;
    bool has_deadline = false;
    Clock::time_point deadline;
    std::promise<Response> promise;
  };

  // One pool worker: takes requests off the queue until Stop().
  void WorkerLoop() DEPMATCH_EXCLUDES(mu_);
  // Whether the head of the queue may start now (see the write barrier
  // in the file comment).
  bool CanStartLocked() const DEPMATCH_REQUIRES(mu_);
  Response Execute(const Request& request, const ServiceSnapshot& snapshot)
      DEPMATCH_EXCLUDES(mu_);
  Response ExecuteInsert(const Request& request,
                         const ServiceSnapshot& current) DEPMATCH_EXCLUDES(mu_);
  // Appends delta rows to a table-backed entry's incremental builder,
  // refreshes its graph in O(delta), widens the copied catalog's index
  // in place, and publishes — never re-indexing.
  Response ExecuteAppend(const Request& request,
                         const ServiceSnapshot& current) DEPMATCH_EXCLUDES(mu_);
  // Makes `next` the published snapshot, bumps `counter`, and releases
  // the superseded snapshot (or the one aged out of the history) after
  // dropping mu_.
  void Publish(std::shared_ptr<const ServiceSnapshot> next,
               uint64_t StatsResponse::*counter) DEPMATCH_EXCLUDES(mu_);
  StatsResponse StatsLocked() const DEPMATCH_REQUIRES(mu_);
  // Clears the stat cache when it outgrew the configured bound.
  void RecycleStatCache();

  const ServiceOptions options_;
  // depmatch-analyze: allow(lock-annotation) — StatCache is internally
  // synchronized; workers running match requests share it.
  StatCache stat_cache_;
  // Per-entry incremental count state for table-backed catalog entries,
  // keyed by entry name. Inserts with InsertPayload::kTable create one;
  // graph-blob inserts erase it; appends extend it.
  std::unordered_map<std::string, std::unique_ptr<IncrementalGraphBuilder>>
      // depmatch-analyze: allow(lock-annotation) — only inserts and
      // appends touch it, and the write barrier runs them one at a time,
      // each ordered after the last through mu_.
      builders_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::unique_ptr<WorkItem>> queue_ DEPMATCH_GUARDED_BY(mu_);
  bool stopping_ DEPMATCH_GUARDED_BY(mu_) = false;
  bool paused_ DEPMATCH_GUARDED_BY(mu_) = false;
  // Requests executing now, and whether one of them is a write.
  size_t running_ DEPMATCH_GUARDED_BY(mu_) = 0;
  bool writing_ DEPMATCH_GUARDED_BY(mu_) = false;
  // The monotonic counters; StatsLocked() fills in the rest.
  StatsResponse counters_ DEPMATCH_GUARDED_BY(mu_);
  // The published snapshot. Readers copy the shared_ptr under mu_ and
  // then work lock-free against the immutable snapshot.
  std::shared_ptr<const ServiceSnapshot> snapshot_ DEPMATCH_GUARDED_BY(mu_);
  // Previously published snapshots, newest first, bounded by
  // options_.snapshot_history.
  std::deque<std::shared_ptr<const ServiceSnapshot>> history_
      DEPMATCH_GUARDED_BY(mu_);
  // depmatch-analyze: allow(lock-annotation) — ThreadPool is internally
  // synchronized (its own mutex guards the task queue). Declared last:
  // its workers use every member above.
  ThreadPool pool_;
};

}  // namespace service
}  // namespace depmatch

#endif  // DEPMATCH_SERVICE_MATCH_SERVICE_H_
