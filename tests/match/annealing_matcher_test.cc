#include "depmatch/match/annealing_matcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <set>
#include <vector>

#include "depmatch/common/rng.h"
#include "depmatch/match/candidate_filter.h"
#include "depmatch/match/exhaustive_matcher.h"
#include "depmatch/match/greedy_matcher.h"
#include "depmatch/match/metric.h"
#include "depmatch/match/score_kernel.h"

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

DependencyGraph Permute(const DependencyGraph& g,
                        const std::vector<size_t>& perm) {
  std::vector<size_t> inverse(g.size());
  for (size_t i = 0; i < g.size(); ++i) inverse[perm[i]] = i;
  auto sub = g.SubGraph(inverse);
  EXPECT_TRUE(sub.ok());
  return sub.value();
}

MatchOptions Options(Cardinality cardinality, MetricKind metric,
                     double alpha = 3.0) {
  MatchOptions o;
  o.cardinality = cardinality;
  o.metric = metric;
  o.alpha = alpha;
  o.algorithm = MatchAlgorithm::kSimulatedAnnealing;
  o.candidates_per_attribute = 0;
  return o;
}

TEST(AnnealingMatchTest, RecoversPermutation) {
  DependencyGraph g = RandomGraph(8, 1);
  std::vector<size_t> perm = {5, 2, 7, 0, 3, 6, 1, 4};
  DependencyGraph permuted = Permute(g, perm);
  auto result = AnnealingMatch(
      g, permuted,
      Options(Cardinality::kOneToOne, MetricKind::kMutualInfoEuclidean));
  ASSERT_TRUE(result.ok());
  size_t correct = 0;
  for (const MatchPair& pair : result->pairs) {
    if (pair.target == perm[pair.source]) ++correct;
  }
  EXPECT_EQ(correct, 8u);  // zero-distance optimum is reachable
}

TEST(AnnealingMatchTest, NeverWorseThanGreedy) {
  for (uint64_t seed = 5; seed < 10; ++seed) {
    DependencyGraph a = RandomGraph(7, seed);
    DependencyGraph b = RandomGraph(7, seed + 50);
    for (MetricKind kind :
         {MetricKind::kMutualInfoEuclidean, MetricKind::kMutualInfoNormal}) {
      MatchOptions anneal = Options(Cardinality::kOneToOne, kind);
      MatchOptions greedy = anneal;
      greedy.algorithm = MatchAlgorithm::kGreedy;
      auto sa = AnnealingMatch(a, b, anneal);
      auto gr = GreedyMatch(a, b, greedy);
      ASSERT_TRUE(sa.ok());
      ASSERT_TRUE(gr.ok());
      Metric metric(kind, 3.0);
      if (metric.maximize()) {
        EXPECT_GE(sa->metric_value, gr->metric_value - 1e-9);
      } else {
        EXPECT_LE(sa->metric_value, gr->metric_value + 1e-9);
      }
    }
  }
}

TEST(AnnealingMatchTest, CloseToExhaustiveOptimum) {
  for (uint64_t seed = 20; seed < 24; ++seed) {
    DependencyGraph g = RandomGraph(7, seed);
    std::vector<size_t> perm = {3, 5, 1, 6, 0, 2, 4};
    DependencyGraph permuted = Permute(g, perm);
    MatchOptions anneal =
        Options(Cardinality::kOneToOne, MetricKind::kMutualInfoNormal);
    MatchOptions exhaustive = anneal;
    exhaustive.algorithm = MatchAlgorithm::kExhaustive;
    auto sa = AnnealingMatch(g, permuted, anneal);
    auto ex = ExhaustiveMatch(g, permuted, exhaustive);
    ASSERT_TRUE(sa.ok());
    ASSERT_TRUE(ex.ok());
    EXPECT_LE(sa->metric_value, ex->metric_value + 1e-9);
    EXPECT_GE(sa->metric_value, 0.9 * ex->metric_value);
  }
}

TEST(AnnealingMatchTest, DeterministicForFixedSeed) {
  DependencyGraph a = RandomGraph(6, 30);
  DependencyGraph b = RandomGraph(6, 31);
  MatchOptions options =
      Options(Cardinality::kOneToOne, MetricKind::kMutualInfoNormal);
  auto r1 = AnnealingMatch(a, b, options);
  auto r2 = AnnealingMatch(a, b, options);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->pairs, r2->pairs);
  EXPECT_EQ(r1->metric_value, r2->metric_value);
}

TEST(AnnealingMatchTest, ResultIsValidMapping) {
  DependencyGraph a = RandomGraph(6, 40);
  DependencyGraph b = RandomGraph(9, 41);
  auto result = AnnealingMatch(
      a, b, Options(Cardinality::kOnto, MetricKind::kMutualInfoNormal));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->pairs.size(), 6u);
  std::set<size_t> sources;
  std::set<size_t> targets;
  for (const MatchPair& pair : result->pairs) {
    EXPECT_TRUE(sources.insert(pair.source).second);
    EXPECT_TRUE(targets.insert(pair.target).second);
    EXPECT_LT(pair.target, 9u);
  }
}

TEST(AnnealingMatchTest, PartialRespectsAlphaSelectivity) {
  DependencyGraph a = RandomGraph(5, 50);
  DependencyGraph b = RandomGraph(5, 51);
  auto strict = AnnealingMatch(
      a, b,
      Options(Cardinality::kPartial, MetricKind::kMutualInfoNormal, 9.0));
  auto lax = AnnealingMatch(
      a, b,
      Options(Cardinality::kPartial, MetricKind::kMutualInfoNormal, 1.0));
  ASSERT_TRUE(strict.ok());
  ASSERT_TRUE(lax.ok());
  EXPECT_LE(strict->pairs.size(), lax->pairs.size());
}

TEST(AnnealingMatchTest, MultiRestartBitIdenticalAcrossThreadCounts) {
  // The restart portfolio must pick the same winner no matter how the
  // restarts are scheduled over workers: identical pairs AND identical
  // metric_value bits.
  for (MetricKind kind :
       {MetricKind::kMutualInfoEuclidean, MetricKind::kMutualInfoNormal}) {
    for (Cardinality cardinality :
         {Cardinality::kOneToOne, Cardinality::kPartial}) {
      DependencyGraph a = RandomGraph(7, 70);
      DependencyGraph b = RandomGraph(7, 71);
      AnnealingParams params;
      params.num_restarts = 5;
      MatchOptions options = Options(cardinality, kind);
      options.num_threads = 1;
      auto serial = AnnealingMatch(a, b, options, params);
      ASSERT_TRUE(serial.ok());
      for (size_t threads : {size_t{2}, size_t{8}}) {
        options.num_threads = threads;
        auto parallel = AnnealingMatch(a, b, options, params);
        ASSERT_TRUE(parallel.ok());
        EXPECT_EQ(parallel->pairs, serial->pairs)
            << MetricKindToString(kind) << " with " << threads << " threads";
        EXPECT_EQ(parallel->metric_value, serial->metric_value);
      }
    }
  }
}

TEST(AnnealingMatchTest, MultiRestartNeverWorseThanSingleRestart) {
  // Restart 0 reproduces the single-restart trajectory, so the portfolio
  // winner can only match or beat it.
  for (uint64_t seed = 80; seed < 84; ++seed) {
    DependencyGraph a = RandomGraph(8, seed);
    DependencyGraph b = RandomGraph(8, seed + 40);
    MatchOptions options =
        Options(Cardinality::kOneToOne, MetricKind::kMutualInfoNormal);
    AnnealingParams single;
    AnnealingParams multi;
    multi.num_restarts = 4;
    auto one = AnnealingMatch(a, b, options, single);
    auto four = AnnealingMatch(a, b, options, multi);
    ASSERT_TRUE(one.ok());
    ASSERT_TRUE(four.ok());
    EXPECT_GE(four->metric_value, one->metric_value - 1e-9);
  }
}

// Replica of the annealing matcher before rollback replay and the move-gain
// cache: every step, forward or rollback, recomputes its gain with
// ScoreKernel::GainOf over the other assigned pairs in ascending source
// order. Restarts run serially.
class RecomputingState {
 public:
  explicit RecomputingState(const ScoreKernel& kernel)
      : kernel_(kernel),
        target_of_(kernel.source_size(), kUnassigned),
        source_of_(kernel.target_size(), kUnassigned) {}

  size_t target_of(size_t s) const { return target_of_[s]; }
  size_t source_of(size_t t) const { return source_of_[t]; }
  double sum() const { return sum_; }

  std::vector<MatchPair> Pairs() const {
    std::vector<MatchPair> pairs;
    for (size_t s = 0; s < target_of_.size(); ++s) {
      if (target_of_[s] != kUnassigned) pairs.push_back({s, target_of_[s]});
    }
    return pairs;
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
  static constexpr size_t kUnassigned = ScoreState::kUnassigned;

  double GainOf(size_t s, size_t t) {
    others_.clear();
    for (size_t s2 = 0; s2 < target_of_.size(); ++s2) {
      if (s2 != s && target_of_[s2] != kUnassigned) {
        others_.push_back({s2, target_of_[s2]});
      }
    }
    return kernel_.GainOf(others_.data(), others_.size(), s, t);
  }

  const ScoreKernel& kernel_;
  std::vector<size_t> target_of_;
  std::vector<size_t> source_of_;
  std::vector<MatchPair> others_;
  double sum_ = 0.0;
};

Result<MatchResult> RecomputingAnnealingMatch(const DependencyGraph& source,
                                              const DependencyGraph& target,
                                              const MatchOptions& options,
                                              const AnnealingParams& params) {
  constexpr size_t kUnassigned = ScoreState::kUnassigned;
  Metric metric(options.metric, options.alpha);
  size_t n = source.size();
  size_t m = target.size();
  std::vector<std::vector<size_t>> candidates = ComputeEntropyCandidates(
      source, target, options.candidates_per_attribute);
  std::vector<MatchPair> start;
  Result<MatchResult> greedy = GreedyMatch(source, target, options);
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
  std::vector<char> allowed(n * m, 0);
  for (size_t s = 0; s < n; ++s) {
    for (size_t t : candidates[s]) allowed[s * m + t] = 1;
  }
  ScoreKernel kernel(source, target, metric);
  bool partial = options.cardinality == Cardinality::kPartial;
  bool maximize = metric.maximize();
  auto better = [maximize](double candidate, double incumbent) {
    return maximize ? candidate > incumbent : candidate < incumbent;
  };

  double winner_sum = 0.0;
  std::vector<MatchPair> winner_pairs;
  uint64_t moves_tried = 0;
  for (size_t r = 0; r < std::max<size_t>(1, params.num_restarts); ++r) {
    RecomputingState state(kernel);
    for (const MatchPair& pair : start) state.Assign(pair.source, pair.target);
    double best_sum = state.sum();
    std::vector<MatchPair> best_pairs = state.Pairs();
    Rng rng(params.seed + r);
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
        std::vector<MatchPair> undo_assign;
        std::vector<size_t> undo_unassign;
        if (t_old == t_new) {
          if (!partial) continue;
          state.Unassign(s1);
          undo_assign.push_back({s1, t_old});
        } else if (state.source_of(t_new) == kUnassigned) {
          if (t_old != kUnassigned) {
            state.Unassign(s1);
            undo_assign.push_back({s1, t_old});
          }
          state.Assign(s1, t_new);
          undo_unassign.push_back(s1);
        } else {
          size_t s2 = state.source_of(t_new);
          if (t_old == kUnassigned) {
            if (!partial) continue;
            state.Unassign(s2);
            undo_assign.push_back({s2, t_new});
            state.Assign(s1, t_new);
            undo_unassign.push_back(s1);
          } else {
            if (!allowed[s2 * m + t_old]) continue;
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
          for (size_t i = undo_unassign.size(); i > 0; --i) {
            state.Unassign(undo_unassign[i - 1]);
          }
          for (size_t i = undo_assign.size(); i > 0; --i) {
            state.Assign(undo_assign[i - 1].source, undo_assign[i - 1].target);
          }
          continue;
        }
        if (better(state.sum(), best_sum)) {
          best_sum = state.sum();
          best_pairs = state.Pairs();
        }
      }
    }
    if (r == 0 || better(best_sum, winner_sum)) {
      winner_sum = best_sum;
      winner_pairs = best_pairs;
    }
  }

  MatchResult result;
  result.metric = options.metric;
  result.pairs = std::move(winner_pairs);
  std::sort(result.pairs.begin(), result.pairs.end());
  result.metric_value = metric.Evaluate(source, target, result.pairs);
  result.nodes_explored = moves_tried;
  return result;
}

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// Rollback replay and the per-epoch move-gain cache must not change a
// single bit of any result: pairs, metric_value and nodes_explored equal
// the recomputing replica's across every metric kind, cardinality (the
// partial toggle and steal moves included), entropy filter and restart
// count.
TEST(AnnealingMatchTest, BitIdenticalToRecomputingReplica) {
  const MetricKind kinds[] = {
      MetricKind::kMutualInfoEuclidean, MetricKind::kMutualInfoNormal,
      MetricKind::kEntropyEuclidean, MetricKind::kEntropyNormal};
  const Cardinality cardinalities[] = {
      Cardinality::kOneToOne, Cardinality::kOnto, Cardinality::kPartial};
  AnnealingParams params;
  params.moves_per_node = 20;
  uint64_t seed = 500;
  for (MetricKind kind : kinds) {
    for (Cardinality cardinality : cardinalities) {
      ++seed;
      size_t m = cardinality == Cardinality::kOneToOne ? 7 : 9;
      DependencyGraph a = RandomGraph(7, seed);
      DependencyGraph b = RandomGraph(m, seed + 1000);
      for (size_t filter : {size_t{0}, size_t{3}}) {
        for (size_t restarts : {size_t{1}, size_t{2}}) {
          MatchOptions options = Options(cardinality, kind);
          options.candidates_per_attribute = filter;
          params.num_restarts = restarts;
          auto expected = RecomputingAnnealingMatch(a, b, options, params);
          auto actual = AnnealingMatch(a, b, options, params);
          ASSERT_EQ(actual.ok(), expected.ok());
          if (!expected.ok()) continue;
          SCOPED_TRACE(testing::Message()
                       << MetricKindToString(kind) << " "
                       << CardinalityToString(cardinality) << " filter "
                       << filter << " restarts " << restarts);
          EXPECT_EQ(actual->pairs, expected->pairs);
          EXPECT_EQ(Bits(actual->metric_value), Bits(expected->metric_value));
          EXPECT_EQ(actual->nodes_explored, expected->nodes_explored);
        }
      }
    }
  }
}

TEST(AnnealingMatchTest, SizeValidationAndEmpty) {
  DependencyGraph a = RandomGraph(3, 60);
  DependencyGraph b = RandomGraph(2, 61);
  EXPECT_FALSE(AnnealingMatch(a, b,
                              Options(Cardinality::kOneToOne,
                                      MetricKind::kMutualInfoEuclidean))
                   .ok());
  auto empty = DependencyGraph::Create({}, {});
  ASSERT_TRUE(empty.ok());
  auto result = AnnealingMatch(
      empty.value(), b,
      Options(Cardinality::kOnto, MetricKind::kMutualInfoEuclidean));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->pairs.empty());
}

}  // namespace
}  // namespace depmatch
