// ScoreKernel / ScoreState: the shared match-kernel layer must agree with
// the reference Metric implementation — exactly for single-shot
// evaluations (same doubles in the same order), and within drift
// tolerance for long incremental Assign/Unassign sequences.

#include "depmatch/match/score_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "depmatch/common/rng.h"
#include "depmatch/match/metric.h"

namespace depmatch {
namespace {

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
  auto g = DependencyGraph::Create(std::move(names), std::move(m));
  EXPECT_TRUE(g.ok());
  return g.value();
}

const MetricKind kAllKinds[] = {
    MetricKind::kMutualInfoEuclidean, MetricKind::kMutualInfoNormal,
    MetricKind::kEntropyEuclidean, MetricKind::kEntropyNormal};

// Random injective partial assignment of `count` pairs, in random order
// (GainOf must respect the caller's iteration order).
std::vector<MatchPair> RandomAssignment(size_t n, size_t m, size_t count,
                                        Rng& rng) {
  std::vector<size_t> sources = rng.SampleWithoutReplacement(n, count);
  std::vector<size_t> targets = rng.SampleWithoutReplacement(m, count);
  std::vector<MatchPair> pairs;
  for (size_t i = 0; i < count; ++i) {
    pairs.push_back({sources[i], targets[i]});
  }
  return pairs;
}

class ScoreKernelTableTest
    : public testing::TestWithParam<std::tuple<MetricKind, bool>> {};

TEST_P(ScoreKernelTableTest, GainOfMatchesMetricIncrementalGainExactly) {
  auto [kind, with_table] = GetParam();
  DependencyGraph a = RandomGraph(7, 100);
  DependencyGraph b = RandomGraph(9, 101);
  Metric metric(kind, 3.0);
  ScoreKernel kernel(a, b, metric,
                     with_table ? kDefaultPairTermBudget : 0);
  EXPECT_EQ(kernel.has_pair_term_table(), with_table && metric.structural());

  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    size_t count = rng.NextBounded(6);
    std::vector<MatchPair> assigned = RandomAssignment(7, 9, count, rng);
    // Pick (s, t) outside the assignment.
    size_t s, t;
    for (;;) {
      s = rng.NextBounded(7);
      t = rng.NextBounded(9);
      bool clash = false;
      for (const MatchPair& p : assigned) {
        clash = clash || p.source == s || p.target == t;
      }
      if (!clash) break;
    }
    double expected = metric.IncrementalGain(a, b, assigned, s, t);
    double actual = kernel.GainOf(assigned.data(), assigned.size(), s, t);
    EXPECT_EQ(actual, expected) << MetricKindToString(kind);
  }
}

TEST_P(ScoreKernelTableTest, EvaluateSumMatchesMetricExactly) {
  auto [kind, with_table] = GetParam();
  DependencyGraph a = RandomGraph(8, 200);
  DependencyGraph b = RandomGraph(8, 201);
  Metric metric(kind, 3.0);
  ScoreKernel kernel(a, b, metric,
                     with_table ? kDefaultPairTermBudget : 0);
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<MatchPair> pairs =
        RandomAssignment(8, 8, rng.NextBounded(9), rng);
    EXPECT_EQ(kernel.EvaluateSum(pairs), metric.EvaluateSum(a, b, pairs));
    EXPECT_EQ(kernel.Evaluate(pairs), metric.Evaluate(a, b, pairs));
  }
}

TEST_P(ScoreKernelTableTest, PairTermMatchesMetricTermExactly) {
  auto [kind, with_table] = GetParam();
  DependencyGraph a = RandomGraph(5, 300);
  DependencyGraph b = RandomGraph(6, 301);
  Metric metric(kind, 3.0);
  ScoreKernel kernel(a, b, metric,
                     with_table ? kDefaultPairTermBudget : 0);
  for (size_t s = 0; s < 5; ++s) {
    for (size_t t = 0; t < 6; ++t) {
      for (size_t s2 = 0; s2 < 5; ++s2) {
        for (size_t t2 = 0; t2 < 6; ++t2) {
          EXPECT_EQ(kernel.PairTerm(s, t, s2, t2),
                    metric.Term(a.mi(s, s2), b.mi(t, t2)));
        }
      }
    }
  }
}

std::string TableParamName(
    const testing::TestParamInfo<std::tuple<MetricKind, bool>>& info) {
  auto [kind, with_table] = info.param;
  return std::string(MetricKindToString(kind)) +
         (with_table ? "_table" : "_flat");
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ScoreKernelTableTest,
    testing::Combine(testing::ValuesIn(kAllKinds), testing::Bool()),
    TableParamName);

// The delta-kernel property the annealing matcher depends on: after any
// legal sequence of Assign/Unassign moves, the incrementally maintained
// sum equals a full Metric::EvaluateSum recomputation (within
// floating-point drift). Exercised across all four kinds and the move
// mixes of all three cardinalities.
using DeltaParam = std::tuple<MetricKind, Cardinality, uint64_t>;

class ScoreStateDeltaTest : public testing::TestWithParam<DeltaParam> {};

TEST_P(ScoreStateDeltaTest, DeltaSumMatchesFullRecomputation) {
  auto [kind, cardinality, seed] = GetParam();
  size_t n = 8;
  size_t m = cardinality == Cardinality::kOneToOne ? 8 : 11;
  DependencyGraph a = RandomGraph(n, seed);
  DependencyGraph b = RandomGraph(m, seed + 500);
  Metric metric(kind, 4.0);
  ScoreKernel kernel(a, b, metric);
  ScoreState state(kernel);

  Rng rng(seed + 77);
  // Start from a full assignment for the exact cardinalities.
  bool partial = cardinality == Cardinality::kPartial;
  if (!partial) {
    for (size_t s = 0; s < n; ++s) state.Assign(s, s);
  }
  for (int move = 0; move < 400; ++move) {
    size_t s = rng.NextBounded(n);
    size_t t = rng.NextBounded(m);
    if (state.target_of(s) == ScoreState::kUnassigned) {
      if (!state.target_used(t)) state.Assign(s, t);
    } else if (partial && rng.NextBernoulli(0.3)) {
      state.Unassign(s);
    } else if (!state.target_used(t)) {
      // Reassign s to a free target.
      state.Unassign(s);
      state.Assign(s, t);
    } else if (state.source_of(t) != s) {
      // Swap with the owner of t.
      size_t s2 = state.source_of(t);
      size_t t_old = state.target_of(s);
      state.Unassign(s);
      state.Unassign(s2);
      state.Assign(s, t);
      state.Assign(s2, t_old);
    }

    // Inverse maps stay consistent.
    if (move % 50 == 0) {
      for (size_t src = 0; src < n; ++src) {
        size_t tgt = state.target_of(src);
        if (tgt != ScoreState::kUnassigned) {
          EXPECT_EQ(state.source_of(tgt), src);
        }
      }
    }
  }

  std::vector<MatchPair> pairs;
  state.AppendPairs(&pairs);
  EXPECT_EQ(pairs.size(), state.assigned_count());
  for (size_t i = 1; i < pairs.size(); ++i) {
    EXPECT_LT(pairs[i - 1].source, pairs[i].source);
  }
  double full = metric.EvaluateSum(a, b, pairs);
  EXPECT_NEAR(state.sum(), full, 1e-6)
      << MetricKindToString(kind) << " drifted after 400 moves";
}

// The annealing matcher rolls a rejected move back by replaying the gains
// its steps applied instead of recomputing them. That must leave sum()
// bit-equal to a rollback that recomputes, move after move, so that every
// later acceptance test reads the same double. Also pins ScoreState::GainOf
// to ScoreKernel::GainOf over the assigned pairs in ascending source
// order, on both the pair-term table and the flat rows.
TEST_P(ScoreStateDeltaTest, ReplayedRollbackBitEqualToRecomputedRollback) {
  auto [kind, cardinality, seed] = GetParam();
  size_t n = 8;
  size_t m = cardinality == Cardinality::kOneToOne ? 8 : 11;
  DependencyGraph a = RandomGraph(n, seed);
  DependencyGraph b = RandomGraph(m, seed + 500);
  Metric metric(kind, 4.0);
  bool partial = cardinality == Cardinality::kPartial;
  for (size_t budget : {kDefaultPairTermBudget, size_t{0}}) {
    ScoreKernel kernel(a, b, metric, budget);
    ScoreState replay(kernel);
    ScoreState recompute(kernel);
    if (!partial) {
      for (size_t s = 0; s < n; ++s) {
        replay.Assign(s, s);
        recompute.Assign(s, s);
      }
    }

    Rng rng(seed + 91);
    for (int move = 0; move < 400; ++move) {
      size_t s = rng.NextBounded(n);
      size_t t = rng.NextBounded(m);

      std::vector<MatchPair> others;
      replay.AppendPairs(&others);
      others.erase(std::remove_if(others.begin(), others.end(),
                                  [s](const MatchPair& p) {
                                    return p.source == s;
                                  }),
                   others.end());
      EXPECT_EQ(replay.GainOf(s, t),
                kernel.GainOf(others.data(), others.size(), s, t));

      // Steps as (source, target, assign), unassigns first.
      std::vector<std::tuple<size_t, size_t, bool>> steps;
      size_t t_old = replay.target_of(s);
      if (t_old == ScoreState::kUnassigned) {
        if (replay.target_used(t)) continue;
        steps.push_back({s, t, true});
      } else if (partial && rng.NextBernoulli(0.3)) {
        steps.push_back({s, t_old, false});
      } else if (!replay.target_used(t)) {
        steps.push_back({s, t_old, false});
        steps.push_back({s, t, true});
      } else if (replay.source_of(t) != s) {
        size_t s2 = replay.source_of(t);
        steps.push_back({s, t_old, false});
        steps.push_back({s2, t, false});
        steps.push_back({s, t, true});
        steps.push_back({s2, t_old, true});
      } else {
        continue;
      }

      std::vector<double> gains;
      for (auto [src, tgt, assign] : steps) {
        gains.push_back(assign ? replay.Assign(src, tgt)
                               : replay.Unassign(src));
        double g = assign ? recompute.Assign(src, tgt)
                          : recompute.Unassign(src);
        EXPECT_EQ(g, gains.back());
      }
      ASSERT_EQ(replay.sum(), recompute.sum());
      if (rng.NextBernoulli(0.7)) {
        for (size_t i = steps.size(); i > 0; --i) {
          auto [src, tgt, assign] = steps[i - 1];
          if (assign) {
            replay.Unassign(src, gains[i - 1]);
            recompute.Unassign(src);
          } else {
            replay.Assign(src, tgt, gains[i - 1]);
            recompute.Assign(src, tgt);
          }
        }
        ASSERT_EQ(replay.sum(), recompute.sum())
            << MetricKindToString(kind) << " move " << move;
      }
    }
    EXPECT_EQ(replay.assigned_count(), recompute.assigned_count());
    for (size_t s = 0; s < n; ++s) {
      EXPECT_EQ(replay.target_of(s), recompute.target_of(s));
    }
  }
}

std::string DeltaParamName(const testing::TestParamInfo<DeltaParam>& info) {
  auto [kind, cardinality, seed] = info.param;
  return std::string(MetricKindToString(kind)) + "_" +
         std::string(CardinalityToString(cardinality)) + "_s" +
         std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndCardinalities, ScoreStateDeltaTest,
    testing::Combine(testing::ValuesIn(kAllKinds),
                     testing::Values(Cardinality::kOneToOne,
                                     Cardinality::kOnto,
                                     Cardinality::kPartial),
                     testing::Values(uint64_t{1}, uint64_t{2})),
    DeltaParamName);

// Table and flat paths must agree bit-for-bit, which is what makes the
// pair-term budget a pure performance knob.
TEST(ScoreKernelTest, TableAndFlatPathsBitIdentical) {
  DependencyGraph a = RandomGraph(6, 900);
  DependencyGraph b = RandomGraph(7, 901);
  for (MetricKind kind :
       {MetricKind::kMutualInfoEuclidean, MetricKind::kMutualInfoNormal}) {
    Metric metric(kind, 3.0);
    ScoreKernel table(a, b, metric);
    ScoreKernel flat(a, b, metric, 0);
    ASSERT_TRUE(table.has_pair_term_table());
    ASSERT_FALSE(flat.has_pair_term_table());
    Rng rng(13);
    for (int trial = 0; trial < 30; ++trial) {
      std::vector<MatchPair> assigned =
          RandomAssignment(6, 7, rng.NextBounded(5), rng);
      size_t s, t;
      for (;;) {
        s = rng.NextBounded(6);
        t = rng.NextBounded(7);
        bool clash = false;
        for (const MatchPair& p : assigned) {
          clash = clash || p.source == s || p.target == t;
        }
        if (!clash) break;
      }
      EXPECT_EQ(table.GainOf(assigned.data(), assigned.size(), s, t),
                flat.GainOf(assigned.data(), assigned.size(), s, t));
      EXPECT_EQ(table.EvaluateSum(assigned), flat.EvaluateSum(assigned));
    }
  }
}

}  // namespace
}  // namespace depmatch
