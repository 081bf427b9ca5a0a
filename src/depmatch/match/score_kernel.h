// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// ScoreKernel: the shared match-kernel layer behind every search backend
// (exhaustive, greedy, annealing, graduated assignment).
//
// The kernel copies both dependency graphs' MI matrices into flat
// contiguous row-major buffers and hoists the metric kind out of every
// inner loop (the per-term switch in Metric::Term is resolved once per
// kernel call, not once per term). For the structural (MI) metrics it can
// additionally precompute the pair-term table
//
//   pair_terms[(s*m + t) * (n*m) + (s2*m + t2)] = Term(a.mi(s,s2),
//                                                      b.mi(t,t2))
//
// so the hot loops of annealing and graduated assignment replace a
// fabs+divide per term with one load. The table is built only when
// (n*m)^2 fits the entry budget; the fallback computes terms on the fly
// from the flat rows. Both paths produce bit-identical doubles (the table
// stores exactly the doubles Term() returns), so the budget is a pure
// performance knob: changing it can never change a matching result.
//
// All sums are accumulated in exactly the same term order as the seed
// implementation (Metric::IncrementalGain / Metric::EvaluateSum), so
// every kernel result is bit-identical to the historical path —
// bench_match_search asserts this against faithful seed replicas.

#ifndef DEPMATCH_MATCH_SCORE_KERNEL_H_
#define DEPMATCH_MATCH_SCORE_KERNEL_H_

#include <cstddef>
#include <vector>

#include "depmatch/graph/dependency_graph.h"
#include "depmatch/match/matching.h"
#include "depmatch/match/metric.h"

namespace depmatch {

// Default budget for the precomputed pair-term table, in table entries
// ((n*m)^2 doubles). 2^23 entries = 64 MiB, shared read-only across
// workers; covers schema pairs up to n*m <= 2896 (e.g. 50x50).
inline constexpr size_t kDefaultPairTermBudget = size_t{1} << 23;

class ScoreKernel {
 public:
  // `pair_term_budget` caps the precomputed table (0 disables it; the
  // element-wise metrics never build one).
  ScoreKernel(const DependencyGraph& a, const DependencyGraph& b,
              const Metric& metric,
              size_t pair_term_budget = kDefaultPairTermBudget);

  size_t source_size() const { return n_; }
  size_t target_size() const { return m_; }
  const Metric& metric() const { return metric_; }
  bool maximize() const { return maximize_; }
  bool structural() const { return structural_; }
  bool has_pair_term_table() const { return !pair_terms_.empty(); }

  // == metric().Term(x, y), with the kind resolved here instead of per
  // call site in a loop.
  double Term(double x, double y) const;

  // Term(a.mi(s, s2), b.mi(t, t2)), served from the table when present.
  double PairTerm(size_t s, size_t t, size_t s2, size_t t2) const;

  // Incremental contribution of appending (s -> t) to the partial
  // assignment `assigned` (which must not contain s or t). Iterates
  // `assigned` in the given order; bit-identical to
  // Metric::IncrementalGain over the same sequence. Allocation-free,
  // O(count).
  double GainOf(const MatchPair* assigned, size_t count, size_t s,
                size_t t) const;

  // == Metric::EvaluateSum / Metric::Evaluate (bit-identical).
  double EvaluateSum(const std::vector<MatchPair>& pairs) const;
  double Evaluate(const std::vector<MatchPair>& pairs) const;

  // Graduated-assignment gradient entry Q[s][t]: the node compatibility
  // of (s, t) plus, for structural metrics, twice the soft-weighted pair
  // compatibilities against `soft`, a row-major matrix with `stride`
  // doubles per row (cells with soft <= 0 are skipped, which is exactly
  // the seed's allowed-cell mask: disallowed cells stay at 0).
  // Compatibilities are maximize-oriented (Euclidean terms negated).
  double SoftGradient(const double* soft, size_t stride, size_t s,
                      size_t t) const;

 private:
  // ScoreState computes its gains straight from the flat rows and the
  // pair-term table.
  friend class ScoreState;

  template <bool kEuclidean>
  double GainOfImpl(const MatchPair* assigned, size_t count, size_t s,
                    size_t t) const;
  template <bool kEuclidean>
  double EvaluateSumImpl(const std::vector<MatchPair>& pairs) const;
  template <bool kEuclidean>
  double SoftGradientImpl(const double* soft, size_t stride, size_t s,
                          size_t t) const;

  size_t n_ = 0;
  size_t m_ = 0;
  Metric metric_;
  bool maximize_ = false;
  bool structural_ = false;
  bool euclidean_ = false;
  double alpha_ = 0.0;
  std::vector<double> a_flat_;      // n x n, row-major
  std::vector<double> b_flat_;      // m x m, row-major
  std::vector<double> pair_terms_;  // (n*m) x (n*m) or empty
};

// Mutable assignment state over a ScoreKernel, for the annealing matcher.
// Assign/Unassign are O(1) apart from the gain: they update the target and
// source maps and add or subtract the gain of the changed pair to the
// running objective sum. A gain iterates the assigned sources in ascending
// source order (the order the seed annealing State used), so sums and
// trajectories are bit-identical to it.
//
// Because a gain depends only on the set of assigned pairs, a caller that
// already holds the gain of a state change (one returned earlier for the
// same change over the same assignment) can replay it through the
// three-argument overloads: sum() moves by exactly the same double as a
// recomputation would, without the O(n) pass.
class ScoreState {
 public:
  static constexpr size_t kUnassigned = static_cast<size_t>(-1);

  explicit ScoreState(const ScoreKernel& kernel);

  size_t target_of(size_t s) const { return target_of_[s]; }
  // Source currently mapped to t, or kUnassigned. O(1): the inverse map
  // is maintained, not scanned.
  size_t source_of(size_t t) const { return source_of_[t]; }
  bool target_used(size_t t) const {
    return source_of_[t] != kUnassigned;
  }
  size_t assigned_count() const { return assigned_count_; }
  double sum() const { return sum_; }

  // Contribution of assigning s -> t given the current assignment minus
  // s. Allocation-free, O(n).
  double GainOf(size_t s, size_t t) const;

  // Preconditions: s unassigned and t free (Assign); s assigned
  // (Unassign). Each returns the gain it added to (Assign) or subtracted
  // from (Unassign) sum().
  double Assign(size_t s, size_t t);
  double Unassign(size_t s);

  // The same state changes with the gain supplied by the caller instead of
  // computed. O(1).
  void Assign(size_t s, size_t t, double gain);
  void Unassign(size_t s, double gain);

  // Replaces *out with the current pairs, sorted by source. Reuses the
  // vector's capacity.
  void AppendPairs(std::vector<MatchPair>* out) const;

 private:
  template <bool kEuclidean>
  double GainOfImpl(size_t s, size_t t) const;

  const ScoreKernel& kernel_;
  std::vector<size_t> target_of_;  // size n
  std::vector<size_t> source_of_;  // size m
  size_t assigned_count_ = 0;
  double sum_ = 0.0;
};

}  // namespace depmatch

#endif  // DEPMATCH_MATCH_SCORE_KERNEL_H_
