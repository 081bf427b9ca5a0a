// Determinism contract of the parallel catalog search under load: the
// fan-out of GraphMatch calls across the pool, the shared atomic top-k
// threshold, and the prefilter's prune decisions must return the exact
// serial ranking at 8 threads, run after run. Under the `tsan` preset
// (ctest label `tsan_stress`) these same tests put the race detector on
// the SharedTopK mutex/atomic pair and the per-entry result slots while
// the contract is asserted.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "depmatch/common/rng.h"
#include "depmatch/core/graph_catalog.h"
#include "depmatch/graph/dependency_graph.h"

namespace depmatch {
namespace {

DependencyGraph RandomGraph(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names;
  std::vector<std::vector<double>> m(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    names.push_back("c" + std::to_string(i));
    m[i][i] = 0.5 + rng.NextDouble() * 5.0;
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      double v = rng.NextDouble() * std::min(m[i][i], m[j][j]) * 0.6;
      m[i][j] = v;
      m[j][i] = v;
    }
  }
  auto g = DependencyGraph::Create(std::move(names), std::move(m));
  EXPECT_TRUE(g.ok());
  return g.value();
}

void ExpectSameRanking(const CatalogSearchResult& base,
                       const CatalogSearchResult& other, size_t threads) {
  ASSERT_EQ(other.ranked.size(), base.ranked.size())
      << "ranking size diverged at num_threads=" << threads;
  for (size_t i = 0; i < base.ranked.size(); ++i) {
    EXPECT_EQ(other.ranked[i].entry, base.ranked[i].entry)
        << "entry order diverged at num_threads=" << threads;
    EXPECT_EQ(std::bit_cast<uint64_t>(other.ranked[i].ranking_key),
              std::bit_cast<uint64_t>(base.ranked[i].ranking_key))
        << "key diverged at num_threads=" << threads;
    EXPECT_EQ(other.ranked[i].match.pairs, base.ranked[i].match.pairs)
        << "pairs diverged at num_threads=" << threads;
  }
}

TEST(CatalogSearchStressTest, EightThreadSearchIsSerialIdentical) {
  GraphCatalog catalog;
  for (size_t e = 0; e < 24; ++e) {
    ASSERT_TRUE(catalog
                    .Insert("t" + std::to_string(e),
                            RandomGraph(4 + e % 3, 900 + e))
                    .ok());
  }
  DependencyGraph query = RandomGraph(5, 890);

  // Two legs: onto x normal MI prunes; partial x Euclidean MI cannot —
  // its entry bound is the vacuous -Finalize(0) — so every entry past
  // the warm-up fans out across the pool.
  struct Mode {
    Cardinality cardinality;
    MetricKind metric;
  };
  for (Mode mode : {Mode{Cardinality::kOnto, MetricKind::kMutualInfoNormal},
                    Mode{Cardinality::kPartial,
                         MetricKind::kMutualInfoEuclidean}}) {
    CatalogSearchOptions options;
    options.k = 4;
    options.match.cardinality = mode.cardinality;
    options.match.metric = mode.metric;
    options.num_threads = 1;
    auto base = SearchCatalog(query, catalog, options);
    ASSERT_TRUE(base.ok()) << base.status();
    options.num_threads = 8;
    for (int rep = 0; rep < 3; ++rep) {
      auto parallel = SearchCatalog(query, catalog, options);
      ASSERT_TRUE(parallel.ok()) << parallel.status();
      ExpectSameRanking(*base, *parallel, 8);
      // Outcome accounting holds whatever the prune/search interleaving.
      EXPECT_EQ(parallel->stats.entries_searched +
                    parallel->stats.entries_pruned +
                    parallel->stats.entries_incompatible,
                parallel->stats.entries_total);
      if (mode.cardinality == Cardinality::kPartial) {
        // Nothing pruned and the pool demonstrably ran: at least
        // min_parallel_entries (8) entries were deferred past warm-up.
        EXPECT_EQ(parallel->stats.entries_pruned, 0u);
        EXPECT_GE(parallel->stats.entries_searched, options.k + 8);
      }
    }
  }
}

TEST(CatalogSearchStressTest, ConcurrentDistinctQueriesShareTheCatalog) {
  // Catalog reads are const-shared across queries; back-to-back parallel
  // searches with different queries must not disturb each other's
  // results (and must be race-free under TSan).
  GraphCatalog catalog;
  for (size_t e = 0; e < 12; ++e) {
    ASSERT_TRUE(catalog
                    .Insert("u" + std::to_string(e),
                            RandomGraph(5, 700 + e))
                    .ok());
  }
  CatalogSearchOptions options;
  options.k = 3;
  options.match.cardinality = Cardinality::kOneToOne;
  options.match.metric = MetricKind::kEntropyNormal;
  options.num_threads = 8;

  std::vector<CatalogSearchResult> first;
  for (uint64_t q = 0; q < 3; ++q) {
    auto result = SearchCatalog(RandomGraph(5, 600 + q), catalog, options);
    ASSERT_TRUE(result.ok()) << result.status();
    first.push_back(*std::move(result));
  }
  for (uint64_t q = 0; q < 3; ++q) {
    auto again = SearchCatalog(RandomGraph(5, 600 + q), catalog, options);
    ASSERT_TRUE(again.ok()) << again.status();
    ExpectSameRanking(first[q], *again, 8);
  }
}

}  // namespace
}  // namespace depmatch
