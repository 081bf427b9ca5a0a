// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// bench_match_search: times the four matching search backends (greedy,
// simulated annealing, graduated assignment, exhaustive) against faithful
// replicas of the pre-kernel implementations, and writes the results as
// JSON (default: BENCH_match_search.json, overridable as a path argument)
// so the perf trajectory of the search hot paths is tracked PR over PR.
//
// Two modes per backend and configuration:
//   * new       — the ScoreKernel-based implementation shipped in
//                 src/depmatch/match/ (flat MI rows, precomputed pair-term
//                 table, metric kind hoisted out of the inner loop)
//   * seed_ref  — a faithful replica of the original path (per-move
//                 std::vector<MatchPair> rebuilds through
//                 Metric::IncrementalGain, nested vector<vector<double>>
//                 soft matrices, per-term Compatibility calls), kept here
//                 as the fixed baseline the speedups are measured against
//
// Before any timing, the bench gates on correctness: every backend must
// produce *identical* matchings (same pairs, bit-equal metric value) in
// both modes (annealing under all three cardinalities), and the parallel paths (multi-restart annealing, GA row
// updates, exhaustive root branches) must be bit-identical across thread
// counts. The process exits nonzero if any gate fails.
//
//   --smoke              tiny sizes, 1 rep, no JSON unless a path is given
//   DEPMATCH_BENCH_REPS  repetitions per data point (default 3)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "depmatch/common/logging.h"
#include "depmatch/common/rng.h"
#include "depmatch/common/string_util.h"
#include "depmatch/match/annealing_matcher.h"
#include "depmatch/match/candidate_filter.h"
#include "depmatch/match/exhaustive_matcher.h"
#include "depmatch/match/graduated_assignment.h"
#include "depmatch/match/greedy_matcher.h"
#include "depmatch/match/metric.h"

namespace depmatch {
namespace {

constexpr size_t kUnassigned = static_cast<size_t>(-1);

// ---------------------------------------------------------------------------
// Workload: random MI graphs and a permuted copy, the same shape the unit
// tests use, scaled up. Matching a graph against a permutation of itself
// is the paper's core scenario (same schema, opaque names).

DependencyGraph RandomGraph(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names;
  std::vector<std::vector<double>> m(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    names.push_back("n" + std::to_string(i));
    m[i][i] = 1.0 + rng.NextDouble() * 9.0;
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      double v = rng.NextDouble() * std::min(m[i][i], m[j][j]) * 0.5;
      m[i][j] = v;
      m[j][i] = v;
    }
  }
  return DependencyGraph::Create(std::move(names), std::move(m)).value();
}

DependencyGraph Permuted(const DependencyGraph& g, uint64_t seed) {
  std::vector<size_t> order(g.size());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  rng.Shuffle(order);
  return g.SubGraph(order).value();
}

// ---------------------------------------------------------------------------
// seed_ref: replica of the pre-kernel annealing matcher. Mutable state
// with O(n) gain evaluation that rebuilds an "others" pair vector on every
// call, plus the O(n) linear scan for the owner of a contested target.

class SeedState {
 public:
  SeedState(const DependencyGraph& a, const DependencyGraph& b,
            const Metric& metric, size_t n, size_t m)
      : a_(a), b_(b), metric_(metric), target_of_(n, kUnassigned),
        source_of_(m, kUnassigned) {}

  size_t target_of(size_t s) const { return target_of_[s]; }
  bool target_used(size_t t) const { return source_of_[t] != kUnassigned; }
  double sum() const { return sum_; }

  std::vector<MatchPair> Pairs() const {
    std::vector<MatchPair> pairs;
    for (size_t s = 0; s < target_of_.size(); ++s) {
      if (target_of_[s] != kUnassigned) pairs.push_back({s, target_of_[s]});
    }
    return pairs;
  }

  double GainOf(size_t s, size_t t) const {
    std::vector<MatchPair> others;
    for (size_t s2 = 0; s2 < target_of_.size(); ++s2) {
      if (s2 == s || target_of_[s2] == kUnassigned) continue;
      others.push_back({s2, target_of_[s2]});
    }
    return metric_.IncrementalGain(a_, b_, others, s, t);
  }

  void Assign(size_t s, size_t t) {
    sum_ += GainOf(s, t);
    target_of_[s] = t;
    source_of_[t] = s;
  }

  void Unassign(size_t s) {
    size_t t = target_of_[s];
    target_of_[s] = kUnassigned;
    source_of_[t] = kUnassigned;
    sum_ -= GainOf(s, t);
  }

 private:
  const DependencyGraph& a_;
  const DependencyGraph& b_;
  const Metric& metric_;
  std::vector<size_t> target_of_;
  std::vector<size_t> source_of_;
  double sum_ = 0.0;
};

// Replica of the pre-kernel greedy matcher hot loop (used standalone and
// as the seed annealing start, exactly as the seed did).
Result<MatchResult> SeedGreedyMatch(const DependencyGraph& source,
                                    const DependencyGraph& target,
                                    const MatchOptions& options) {
  size_t n = source.size();
  size_t m = target.size();
  Metric metric(options.metric, options.alpha);
  std::vector<std::vector<size_t>> candidates = ComputeEntropyCandidates(
      source, target, options.candidates_per_attribute);

  MatchResult result;
  result.metric = options.metric;
  std::vector<char> source_done(n, 0);
  std::vector<char> target_used(m, 0);
  std::vector<MatchPair> assigned;
  double sum = 0.0;
  uint64_t nodes = 0;

  bool must_assign_all = options.cardinality != Cardinality::kPartial;
  size_t remaining = n;
  while (remaining > 0) {
    bool found = false;
    double best_gain = 0.0;
    MatchPair best_pair;
    for (size_t s = 0; s < n; ++s) {
      if (source_done[s]) continue;
      for (size_t t : candidates[s]) {
        if (target_used[t]) continue;
        ++nodes;
        double gain = metric.IncrementalGain(source, target, assigned, s, t);
        bool better = !found || (metric.maximize() ? gain > best_gain
                                                   : gain < best_gain);
        if (better) {
          found = true;
          best_gain = gain;
          best_pair = {s, t};
        }
      }
    }
    if (!found) {
      if (must_assign_all) {
        return NotFoundError("seed greedy ran out of candidates");
      }
      break;
    }
    if (!must_assign_all) {
      bool improves = metric.maximize() ? best_gain > 0.0 : best_gain < 0.0;
      if (!improves) break;
    }
    source_done[best_pair.source] = 1;
    target_used[best_pair.target] = 1;
    assigned.push_back(best_pair);
    sum += best_gain;
    --remaining;
  }

  result.pairs = std::move(assigned);
  std::sort(result.pairs.begin(), result.pairs.end());
  result.metric_value = metric.Finalize(sum);
  result.nodes_explored = nodes;
  return result;
}

Result<MatchResult> SeedAnnealingMatch(const DependencyGraph& source,
                                       const DependencyGraph& target,
                                       const MatchOptions& options,
                                       const AnnealingParams& params) {
  Metric metric(options.metric, options.alpha);
  size_t n = source.size();
  size_t m = target.size();
  MatchResult result;
  result.metric = options.metric;

  std::vector<std::vector<size_t>> candidates = ComputeEntropyCandidates(
      source, target, options.candidates_per_attribute);

  std::vector<MatchPair> start;
  Result<MatchResult> greedy = SeedGreedyMatch(source, target, options);
  if (greedy.ok()) {
    start = greedy->pairs;
  } else if (greedy.status().code() == StatusCode::kNotFound) {
    std::optional<std::vector<size_t>> feasible =
        FindFeasibleAssignment(candidates, m);
    if (!feasible.has_value()) return greedy.status();
    for (size_t s = 0; s < n; ++s) start.push_back({s, (*feasible)[s]});
  } else {
    return greedy.status();
  }
  std::vector<std::vector<char>> allowed(n, std::vector<char>(m, 0));
  for (size_t s = 0; s < n; ++s) {
    for (size_t t : candidates[s]) allowed[s][t] = 1;
  }

  SeedState state(source, target, metric, n, m);
  for (const MatchPair& pair : start) {
    state.Assign(pair.source, pair.target);
  }

  bool partial = options.cardinality == Cardinality::kPartial;
  bool maximize = metric.maximize();
  auto better = [&](double candidate, double incumbent) {
    return maximize ? candidate > incumbent : candidate < incumbent;
  };

  double best_sum = state.sum();
  std::vector<MatchPair> best_pairs = state.Pairs();
  uint64_t moves_tried = 0;

  Rng rng(params.seed);
  for (double temperature = params.initial_temperature;
       temperature > params.final_temperature;
       temperature *= params.cooling_rate) {
    for (size_t step = 0; step < params.moves_per_node * n; ++step) {
      ++moves_tried;
      size_t s1 = rng.NextBounded(n);
      const std::vector<size_t>& cand = candidates[s1];
      if (cand.empty()) continue;
      size_t t_new = cand[rng.NextBounded(cand.size())];
      size_t t_old = state.target_of(s1);

      double before = state.sum();
      std::vector<std::pair<size_t, size_t>> undo_assign;
      std::vector<size_t> undo_unassign;

      if (t_old == t_new) {
        if (!partial) continue;
        state.Unassign(s1);
        undo_assign.push_back({s1, t_old});
      } else if (!state.target_used(t_new)) {
        if (t_old != kUnassigned) {
          state.Unassign(s1);
          undo_assign.push_back({s1, t_old});
        }
        state.Assign(s1, t_new);
        undo_unassign.push_back(s1);
      } else {
        // The seed's latent O(n) owner scan, preserved for the baseline.
        size_t s2 = kUnassigned;
        for (size_t s = 0; s < n; ++s) {
          if (state.target_of(s) == t_new) {
            s2 = s;
            break;
          }
        }
        if (s2 == kUnassigned || s2 == s1) continue;
        if (t_old == kUnassigned) {
          if (!partial) continue;
          state.Unassign(s2);
          undo_assign.push_back({s2, t_new});
          state.Assign(s1, t_new);
          undo_unassign.push_back(s1);
        } else {
          if (!allowed[s2][t_old]) continue;
          state.Unassign(s1);
          undo_assign.push_back({s1, t_old});
          state.Unassign(s2);
          undo_assign.push_back({s2, t_new});
          state.Assign(s1, t_new);
          undo_unassign.push_back(s1);
          state.Assign(s2, t_old);
          undo_unassign.push_back(s2);
        }
      }

      double delta = state.sum() - before;
      double improvement = maximize ? delta : -delta;
      bool accept = improvement > 0.0 ||
                    rng.NextDouble() < std::exp(improvement / temperature);
      if (!accept) {
        for (auto it = undo_unassign.rbegin(); it != undo_unassign.rend();
             ++it) {
          state.Unassign(*it);
        }
        for (auto it = undo_assign.rbegin(); it != undo_assign.rend();
             ++it) {
          state.Assign(it->first, it->second);
        }
        continue;
      }
      if (better(state.sum(), best_sum)) {
        best_sum = state.sum();
        best_pairs = state.Pairs();
      }
    }
  }

  result.pairs = std::move(best_pairs);
  std::sort(result.pairs.begin(), result.pairs.end());
  result.metric_value = metric.Evaluate(source, target, result.pairs);
  result.nodes_explored = moves_tried;
  return result;
}

// ---------------------------------------------------------------------------
// seed_ref: replica of the pre-kernel graduated assignment (nested
// vector<vector<double>> matrices, per-term Compatibility through
// Metric::Term).

double SeedCompatibility(const Metric& metric, double a, double b) {
  double term = metric.Term(a, b);
  return metric.maximize() ? term : -term;
}

std::vector<MatchPair> SeedRound(const std::vector<std::vector<double>>& soft,
                                 size_t n, size_t m, bool allow_unmatched) {
  std::vector<char> src_done(n, 0);
  std::vector<char> tgt_used(m, 0);
  std::vector<MatchPair> pairs;
  size_t remaining = n;
  while (remaining > 0) {
    double best = -std::numeric_limits<double>::infinity();
    size_t bs = 0, bt = 0;
    bool found = false;
    for (size_t s = 0; s < n; ++s) {
      if (src_done[s]) continue;
      for (size_t t = 0; t < m; ++t) {
        if (tgt_used[t]) continue;
        if (soft[s][t] > best) {
          best = soft[s][t];
          bs = s;
          bt = t;
          found = true;
        }
      }
    }
    if (!found) break;
    if (allow_unmatched && soft[bs][m] >= best) {
      src_done[bs] = 1;
      --remaining;
      continue;
    }
    src_done[bs] = 1;
    tgt_used[bt] = 1;
    pairs.push_back({bs, bt});
    --remaining;
  }
  return pairs;
}

Result<MatchResult> SeedGraduatedAssignmentMatch(
    const DependencyGraph& source, const DependencyGraph& target,
    const MatchOptions& options, const GraduatedAssignmentParams& params) {
  size_t n = source.size();
  size_t m = target.size();
  Metric metric(options.metric, options.alpha);
  MatchResult result;
  result.metric = options.metric;

  std::vector<std::vector<size_t>> candidate_lists = ComputeEntropyCandidates(
      source, target, options.candidates_per_attribute);
  std::vector<std::vector<char>> allowed(n, std::vector<char>(m, 0));
  for (size_t s = 0; s < n; ++s) {
    for (size_t t : candidate_lists[s]) allowed[s][t] = 1;
  }

  std::vector<std::vector<double>> soft(n + 1,
                                        std::vector<double>(m + 1, 0.0));
  for (size_t s = 0; s < n; ++s) {
    for (size_t t = 0; t < m; ++t) {
      if (!allowed[s][t]) continue;
      soft[s][t] = 1.0 + 1e-3 * static_cast<double>((s * 31 + t * 17) % 7);
    }
    soft[s][m] = 1.0;
  }
  for (size_t t = 0; t <= m; ++t) soft[n][t] = 1.0;

  std::vector<std::vector<double>> gradient(n, std::vector<double>(m, 0.0));

  for (double beta = params.beta_initial; beta <= params.beta_final;
       beta *= params.beta_rate) {
    for (int it = 0; it < params.iterations_per_beta; ++it) {
      for (size_t s = 0; s < n; ++s) {
        for (size_t t = 0; t < m; ++t) {
          if (!allowed[s][t]) continue;
          double q =
              SeedCompatibility(metric, source.mi(s, s), target.mi(t, t));
          if (metric.structural()) {
            for (size_t s2 = 0; s2 < n; ++s2) {
              if (s2 == s) continue;
              for (size_t t2 = 0; t2 < m; ++t2) {
                if (t2 == t || !allowed[s2][t2]) continue;
                if (soft[s2][t2] <= 0.0) continue;
                q += 2.0 * soft[s2][t2] *
                     SeedCompatibility(metric, source.mi(s, s2),
                                       target.mi(t, t2));
              }
            }
          }
          gradient[s][t] = q;
        }
      }
      for (size_t s = 0; s < n; ++s) {
        for (size_t t = 0; t < m; ++t) {
          if (!allowed[s][t]) continue;
          double e = std::min(beta * gradient[s][t], 500.0);
          soft[s][t] = std::exp(e);
        }
        soft[s][m] = 1.0;
      }
      for (size_t t = 0; t <= m; ++t) soft[n][t] = 1.0;
      for (int sk = 0; sk < params.sinkhorn_iterations; ++sk) {
        for (size_t s = 0; s < n; ++s) {
          double row = soft[s][m];
          for (size_t t = 0; t < m; ++t) row += soft[s][t];
          if (row <= 0.0) continue;
          for (size_t t = 0; t <= m; ++t) soft[s][t] /= row;
        }
        for (size_t t = 0; t < m; ++t) {
          double col = soft[n][t];
          for (size_t s = 0; s < n; ++s) col += soft[s][t];
          if (col <= 0.0) continue;
          for (size_t s = 0; s <= n; ++s) soft[s][t] /= col;
        }
      }
    }
  }

  bool allow_unmatched = options.cardinality == Cardinality::kPartial;
  result.pairs = SeedRound(soft, n, m, allow_unmatched);
  std::sort(result.pairs.begin(), result.pairs.end());
  result.metric_value = metric.Evaluate(source, target, result.pairs);
  return result;
}

// ---------------------------------------------------------------------------
// seed_ref: replica of the pre-kernel exhaustive branch-and-bound.

class SeedSearch {
 public:
  SeedSearch(const DependencyGraph& a, const DependencyGraph& b,
             const Metric& metric, Cardinality cardinality,
             std::vector<std::vector<size_t>> candidates,
             std::vector<size_t> order, uint64_t node_budget)
      : a_(a), b_(b), metric_(metric), cardinality_(cardinality),
        candidates_(std::move(candidates)), order_(std::move(order)),
        node_budget_(node_budget), used_(b.size(), 0) {
    size_t depth = order_.size();
    min_diag_suffix_.assign(depth + 1, 0.0);
    max_diag_suffix_.assign(depth + 1, 0.0);
    if (cardinality_ != Cardinality::kPartial) {
      for (size_t k = depth; k > 0; --k) {
        size_t s = order_[k - 1];
        double lo = std::numeric_limits<double>::infinity();
        double hi = -std::numeric_limits<double>::infinity();
        for (size_t t : candidates_[s]) {
          double term = metric_.Term(a_.mi(s, s), b_.mi(t, t));
          lo = std::min(lo, term);
          hi = std::max(hi, term);
        }
        if (candidates_[s].empty()) {
          lo = 0.0;
          hi = 0.0;
        }
        min_diag_suffix_[k - 1] = min_diag_suffix_[k] + lo;
        max_diag_suffix_[k - 1] = max_diag_suffix_[k] + hi;
      }
    }
  }

  void SeedIncumbent(std::vector<MatchPair> pairs, double sum) {
    has_best_ = true;
    best_sum_ = sum;
    best_pairs_ = std::move(pairs);
  }

  bool Run() {
    if (cardinality_ == Cardinality::kPartial && !has_best_) {
      has_best_ = true;
      best_sum_ = 0.0;
      best_pairs_.clear();
    }
    Dfs(0, 0.0);
    return has_best_;
  }

  const std::vector<MatchPair>& best_pairs() const { return best_pairs_; }
  double best_sum() const { return best_sum_; }

 private:
  double UpperBoundFrom(size_t k) const {
    size_t assigned = assigned_.size();
    size_t remaining = order_.size() - k;
    if (metric_.structural()) {
      double final_count = static_cast<double>(assigned + remaining);
      double now = static_cast<double>(assigned);
      double cells = final_count * final_count - now * now;
      if (cardinality_ == Cardinality::kPartial) {
        return cells * metric_.MaxTerm();
      }
      double r = static_cast<double>(remaining);
      return (cells - r) * metric_.MaxTerm() + max_diag_suffix_[k];
    }
    if (cardinality_ == Cardinality::kPartial) {
      return static_cast<double>(remaining) * metric_.MaxTerm();
    }
    return max_diag_suffix_[k];
  }

  double LowerBoundFrom(size_t k) const { return min_diag_suffix_[k]; }

  bool Improves(double sum) const {
    if (!has_best_) return true;
    return metric_.maximize() ? sum > best_sum_ : sum < best_sum_;
  }

  void RecordIfBetter(double sum) {
    if (Improves(sum)) {
      has_best_ = true;
      best_sum_ = sum;
      best_pairs_ = assigned_;
    }
  }

  void Dfs(size_t k, double sum) {
    if (budget_exhausted_) return;
    if (k == order_.size()) {
      RecordIfBetter(sum);
      return;
    }
    if (has_best_) {
      if (metric_.maximize()) {
        if (sum + UpperBoundFrom(k) <= best_sum_) return;
      } else {
        if (sum + LowerBoundFrom(k) >= best_sum_) return;
      }
    }
    size_t s = order_[k];
    for (size_t t : candidates_[s]) {
      if (used_[t]) continue;
      if (++nodes_explored_ > node_budget_) {
        budget_exhausted_ = true;
        return;
      }
      double gain = metric_.IncrementalGain(a_, b_, assigned_, s, t);
      if (!metric_.maximize() && has_best_ &&
          sum + gain + LowerBoundFrom(k + 1) >= best_sum_) {
        continue;
      }
      used_[t] = 1;
      assigned_.push_back({s, t});
      Dfs(k + 1, sum + gain);
      assigned_.pop_back();
      used_[t] = 0;
      if (budget_exhausted_) return;
    }
    if (cardinality_ == Cardinality::kPartial) {
      Dfs(k + 1, sum);
    }
  }

  const DependencyGraph& a_;
  const DependencyGraph& b_;
  const Metric& metric_;
  Cardinality cardinality_;
  std::vector<std::vector<size_t>> candidates_;
  std::vector<size_t> order_;
  uint64_t node_budget_;

  std::vector<char> used_;
  std::vector<double> min_diag_suffix_;
  std::vector<double> max_diag_suffix_;
  std::vector<MatchPair> assigned_;
  std::vector<MatchPair> best_pairs_;
  double best_sum_ = 0.0;
  bool has_best_ = false;
  uint64_t nodes_explored_ = 0;
  bool budget_exhausted_ = false;
};

Result<MatchResult> SeedExhaustiveMatch(const DependencyGraph& source,
                                        const DependencyGraph& target,
                                        const MatchOptions& options) {
  size_t n = source.size();
  size_t m = target.size();
  Metric metric(options.metric, options.alpha);
  MatchResult result;
  result.metric = options.metric;

  std::vector<std::vector<size_t>> candidates = ComputeEntropyCandidates(
      source, target, options.candidates_per_attribute);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return source.entropy(x) > source.entropy(y);
  });

  std::optional<std::vector<MatchPair>> incumbent;
  if (options.cardinality != Cardinality::kPartial) {
    std::optional<std::vector<size_t>> assignment =
        FindFeasibleAssignment(candidates, m);
    if (!assignment.has_value()) {
      return NotFoundError("seed exhaustive: filter admits no assignment");
    }
    incumbent.emplace();
    for (size_t s = 0; s < n; ++s) {
      incumbent->push_back({s, (*assignment)[s]});
    }
  }

  SeedSearch search(source, target, metric, options.cardinality,
                    std::move(candidates), std::move(order),
                    options.max_search_nodes);
  if (incumbent.has_value()) {
    search.SeedIncumbent(*incumbent,
                         metric.EvaluateSum(source, target, *incumbent));
  }
  if (!search.Run()) {
    return NotFoundError("seed exhaustive: filter admits no assignment");
  }
  result.pairs = search.best_pairs();
  std::sort(result.pairs.begin(), result.pairs.end());
  result.metric_value = metric.Finalize(search.best_sum());
  return result;
}

// ---------------------------------------------------------------------------
// Harness.

struct Sample {
  std::string backend;
  size_t attrs;
  size_t threads;
  size_t restarts;
  std::string mode;
  size_t reps;
  double min_ms;
  double mean_ms;
};

double TimeMs(const std::function<void()>& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

Sample Measure(const std::string& backend, size_t attrs, size_t threads,
               size_t restarts, const std::string& mode, size_t reps,
               const std::function<void()>& fn) {
  Sample sample{backend, attrs, threads, restarts, mode, reps, 1e300, 0.0};
  for (size_t rep = 0; rep < reps; ++rep) {
    double ms = TimeMs(fn);
    sample.min_ms = std::min(sample.min_ms, ms);
    sample.mean_ms += ms;
  }
  sample.mean_ms /= static_cast<double>(reps);
  std::printf("%-22s attrs=%-3zu threads=%zu restarts=%zu %-9s "
              "min %9.3f ms   mean %9.3f ms\n",
              backend.c_str(), attrs, threads, restarts, mode.c_str(),
              sample.min_ms, sample.mean_ms);
  return sample;
}

bool SameMatching(const MatchResult& x, const MatchResult& y) {
  return x.pairs == y.pairs && x.metric_value == y.metric_value;
}

std::string IsoTimestampUtc() {
  std::time_t now = std::time(nullptr);
  char buffer[32];
  std::tm utc;
  gmtime_r(&now, &utc);
  std::strftime(buffer, sizeof(buffer), "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buffer;
}

std::string HostName() {
  char buffer[256] = {0};
  if (gethostname(buffer, sizeof(buffer) - 1) != 0) return "unknown";
  return buffer;
}

MatchOptions BaseOptions() {
  MatchOptions options;
  options.cardinality = Cardinality::kOneToOne;
  options.metric = MetricKind::kMutualInfoNormal;
  options.alpha = 3.0;
  options.candidates_per_attribute = 0;
  return options;
}

int Run(bool smoke, const std::string& output_path) {
  size_t reps = smoke ? 1 : 3;
  if (const char* raw = std::getenv("DEPMATCH_BENCH_REPS")) {
    auto parsed = ParseInt64(raw);
    if (parsed.has_value() && *parsed > 0) {
      reps = static_cast<size_t>(*parsed);
    }
  }

  const std::vector<size_t> sizes =
      smoke ? std::vector<size_t>{6} : std::vector<size_t>{10, 20, 30};
  const size_t exhaustive_size = smoke ? 6 : 10;

  std::vector<Sample> samples;
  bool identical = true;
  bool thread_invariant = true;
  auto gate = [&](bool ok, const char* what, size_t attrs) {
    if (!ok) {
      identical = false;
      std::fprintf(stderr, "GATE FAILED: %s at %zu attrs\n", what, attrs);
    }
  };

  double annealing_seed_ms = 0.0;
  double annealing_new_ms = 0.0;
  double ga_seed_ms = 0.0;
  double ga_new4_ms = 0.0;
  size_t headline_attrs = sizes.back();

  for (size_t n : sizes) {
    DependencyGraph a = RandomGraph(n, 1000 + n);
    DependencyGraph b = Permuted(a, 2000 + n);
    MatchOptions options = BaseOptions();

    // --- greedy ---------------------------------------------------------
    auto greedy_seed = SeedGreedyMatch(a, b, options);
    auto greedy_new = GreedyMatch(a, b, options);
    DEPMATCH_CHECK(greedy_seed.ok() && greedy_new.ok());
    gate(SameMatching(*greedy_seed, *greedy_new), "greedy", n);
    samples.push_back(Measure("greedy", n, 1, 1, "seed_ref", reps, [&] {
      DEPMATCH_CHECK(SeedGreedyMatch(a, b, options).ok());
    }));
    samples.push_back(Measure("greedy", n, 1, 1, "new", reps, [&] {
      DEPMATCH_CHECK(GreedyMatch(a, b, options).ok());
    }));

    // --- simulated annealing -------------------------------------------
    AnnealingParams sa_params;
    auto sa_seed = SeedAnnealingMatch(a, b, options, sa_params);
    auto sa_new = AnnealingMatch(a, b, options, sa_params);
    DEPMATCH_CHECK(sa_seed.ok() && sa_new.ok());
    gate(SameMatching(*sa_seed, *sa_new), "annealing", n);
    // The same gate for the other cardinalities: onto against a wider
    // target, partial (whose toggle and steal moves one-to-one never
    // proposes) against an unrelated one.
    DependencyGraph wider = RandomGraph(n + 3, 5000 + n);
    for (Cardinality cardinality :
         {Cardinality::kOnto, Cardinality::kPartial}) {
      MatchOptions other = options;
      other.cardinality = cardinality;
      auto other_seed = SeedAnnealingMatch(a, wider, other, sa_params);
      auto other_new = AnnealingMatch(a, wider, other, sa_params);
      DEPMATCH_CHECK(other_seed.ok() && other_new.ok());
      gate(SameMatching(*other_seed, *other_new),
           cardinality == Cardinality::kOnto ? "annealing onto"
                                             : "annealing partial",
           n);
    }
    Sample s = Measure("annealing", n, 1, 1, "seed_ref", reps, [&] {
      DEPMATCH_CHECK(SeedAnnealingMatch(a, b, options, sa_params).ok());
    });
    if (n == headline_attrs) annealing_seed_ms = s.min_ms;
    samples.push_back(std::move(s));
    s = Measure("annealing", n, 1, 1, "new", reps, [&] {
      DEPMATCH_CHECK(AnnealingMatch(a, b, options, sa_params).ok());
    });
    if (n == headline_attrs) annealing_new_ms = s.min_ms;
    samples.push_back(std::move(s));

    // Multi-restart portfolio: bit-identical at 1, 2, 8 threads, and
    // restart 0 reproduces the single-restart trajectory, so the winner
    // can never be worse than the seed path's result.
    AnnealingParams multi = sa_params;
    multi.num_restarts = 4;
    MatchOptions threaded = options;
    threaded.num_threads = 1;
    auto multi_1 = AnnealingMatch(a, b, threaded, multi);
    DEPMATCH_CHECK(multi_1.ok());
    for (size_t threads : {size_t{2}, size_t{8}}) {
      threaded.num_threads = threads;
      auto multi_t = AnnealingMatch(a, b, threaded, multi);
      DEPMATCH_CHECK(multi_t.ok());
      if (!SameMatching(*multi_1, *multi_t)) {
        thread_invariant = false;
        std::fprintf(stderr,
                     "GATE FAILED: multi-restart annealing differs at "
                     "%zu threads (%zu attrs)\n",
                     threads, n);
      }
    }
    threaded.num_threads = 4;
    samples.push_back(Measure("annealing", n, 4, 4, "new", reps, [&] {
      DEPMATCH_CHECK(AnnealingMatch(a, b, threaded, multi).ok());
    }));

    // --- graduated assignment ------------------------------------------
    GraduatedAssignmentParams ga_params;
    auto ga_seed = SeedGraduatedAssignmentMatch(a, b, options, ga_params);
    auto ga_new = GraduatedAssignmentMatch(a, b, options, ga_params);
    DEPMATCH_CHECK(ga_seed.ok() && ga_new.ok());
    gate(SameMatching(*ga_seed, *ga_new), "graduated_assignment", n);
    MatchOptions ga4 = options;
    ga4.num_threads = 4;
    auto ga_new4 = GraduatedAssignmentMatch(a, b, ga4, ga_params);
    DEPMATCH_CHECK(ga_new4.ok());
    if (!SameMatching(*ga_new, *ga_new4)) {
      thread_invariant = false;
      std::fprintf(stderr,
                   "GATE FAILED: GA differs at 4 threads (%zu attrs)\n", n);
    }
    s = Measure("graduated_assignment", n, 1, 1, "seed_ref", reps, [&] {
      DEPMATCH_CHECK(
          SeedGraduatedAssignmentMatch(a, b, options, ga_params).ok());
    });
    if (n == headline_attrs) ga_seed_ms = s.min_ms;
    samples.push_back(std::move(s));
    samples.push_back(
        Measure("graduated_assignment", n, 1, 1, "new", reps, [&] {
          DEPMATCH_CHECK(
              GraduatedAssignmentMatch(a, b, options, ga_params).ok());
        }));
    s = Measure("graduated_assignment", n, 4, 1, "new", reps, [&] {
      DEPMATCH_CHECK(GraduatedAssignmentMatch(a, b, ga4, ga_params).ok());
    });
    if (n == headline_attrs) ga_new4_ms = s.min_ms;
    samples.push_back(std::move(s));
  }

  // --- exhaustive (separate, smaller size: the search space is n!) ------
  {
    size_t n = exhaustive_size;
    DependencyGraph a = RandomGraph(n, 3000 + n);
    DependencyGraph b = Permuted(a, 4000 + n);
    MatchOptions options = BaseOptions();
    auto ex_seed = SeedExhaustiveMatch(a, b, options);
    auto ex_new = ExhaustiveMatch(a, b, options);
    DEPMATCH_CHECK(ex_seed.ok() && ex_new.ok());
    gate(SameMatching(*ex_seed, *ex_new), "exhaustive", n);
    MatchOptions ex4 = options;
    ex4.num_threads = 4;
    auto ex_new4 = ExhaustiveMatch(a, b, ex4);
    DEPMATCH_CHECK(ex_new4.ok());
    if (!SameMatching(*ex_new, *ex_new4)) {
      thread_invariant = false;
      std::fprintf(stderr,
                   "GATE FAILED: exhaustive differs at 4 threads\n");
    }
    samples.push_back(Measure("exhaustive", n, 1, 1, "seed_ref", reps, [&] {
      DEPMATCH_CHECK(SeedExhaustiveMatch(a, b, options).ok());
    }));
    samples.push_back(Measure("exhaustive", n, 1, 1, "new", reps, [&] {
      DEPMATCH_CHECK(ExhaustiveMatch(a, b, options).ok());
    }));
    samples.push_back(Measure("exhaustive", n, 4, 1, "new", reps, [&] {
      DEPMATCH_CHECK(ExhaustiveMatch(a, b, ex4).ok());
    }));
  }

  double annealing_speedup = (annealing_new_ms > 0.0)
                                 ? annealing_seed_ms / annealing_new_ms
                                 : 0.0;
  double ga_speedup = (ga_new4_ms > 0.0) ? ga_seed_ms / ga_new4_ms : 0.0;
  std::printf("\nannealing (%zu attrs, 1 thread): seed %.3f ms -> "
              "new %.3f ms = %.2fx speedup\n",
              headline_attrs, annealing_seed_ms, annealing_new_ms,
              annealing_speedup);
  std::printf("graduated assignment (%zu attrs, 4 threads): seed %.3f ms "
              "-> new %.3f ms = %.2fx speedup\n",
              headline_attrs, ga_seed_ms, ga_new4_ms, ga_speedup);
  std::printf("new matchings identical: %s\n",
              identical ? "true" : "false");
  std::printf("thread-count invariant: %s\n",
              thread_invariant ? "true" : "false");

  if (!output_path.empty()) {
    std::FILE* out = std::fopen(output_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", output_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"benchmark\": \"match_search\",\n");
    std::fprintf(out, "  \"timestamp_utc\": \"%s\",\n",
                 IsoTimestampUtc().c_str());
    std::fprintf(out, "  \"machine\": {\n");
    std::fprintf(out, "    \"hostname\": \"%s\",\n", HostName().c_str());
    std::fprintf(out, "    \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(out, "    \"compiler\": \"%s\",\n", __VERSION__);
#ifdef NDEBUG
    std::fprintf(out, "    \"build_type\": \"Release\"\n");
#else
    std::fprintf(out, "    \"build_type\": \"Debug\"\n");
#endif
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"new_matchings_identical\": %s,\n",
                 identical ? "true" : "false");
    std::fprintf(out, "  \"thread_count_invariant\": %s,\n",
                 thread_invariant ? "true" : "false");
    std::fprintf(out, "  \"headline\": {\n");
    std::fprintf(out,
                 "    \"annealing\": {\"config\": \"%zu attrs, one-to-one "
                 "mi_normal, 1 thread\", \"seed_ref_min_ms\": %.3f, "
                 "\"new_min_ms\": %.3f, \"speedup\": %.3f},\n",
                 headline_attrs, annealing_seed_ms, annealing_new_ms,
                 annealing_speedup);
    std::fprintf(out,
                 "    \"graduated_assignment\": {\"config\": \"%zu attrs, "
                 "one-to-one mi_normal, 4 threads\", \"seed_ref_min_ms\": "
                 "%.3f, \"new_min_ms\": %.3f, \"speedup\": %.3f}\n",
                 headline_attrs, ga_seed_ms, ga_new4_ms, ga_speedup);
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"results\": [\n");
    for (size_t i = 0; i < samples.size(); ++i) {
      const Sample& smp = samples[i];
      std::fprintf(out,
                   "    {\"backend\": \"%s\", \"attrs\": %zu, "
                   "\"threads\": %zu, \"restarts\": %zu, \"mode\": \"%s\", "
                   "\"reps\": %zu, \"min_ms\": %.3f, \"mean_ms\": %.3f}%s\n",
                   smp.backend.c_str(), smp.attrs, smp.threads,
                   smp.restarts, smp.mode.c_str(), smp.reps, smp.min_ms,
                   smp.mean_ms, (i + 1 < samples.size()) ? "," : "");
    }
    std::fprintf(out, "  ]\n");
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote %s\n", output_path.c_str());
  }
  return (identical && thread_invariant) ? 0 : 2;
}

}  // namespace
}  // namespace depmatch

int main(int argc, char** argv) {
  bool smoke = false;
  std::string output_path;
  bool path_given = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      output_path = arg;
      path_given = true;
    }
  }
  // Smoke mode is a correctness gate for ctest; it only writes JSON when
  // a path is explicitly requested.
  if (!smoke && !path_given) output_path = "BENCH_match_search.json";
  return depmatch::Run(smoke, output_path);
}
