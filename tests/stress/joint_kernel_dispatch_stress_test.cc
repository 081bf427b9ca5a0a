// Strategy- and thread-invariance of the joint-count kernel under the
// graph builder: the graph must be exactly the same at 1, 2, and 8
// threads, and exactly the same whether pairs are counted densely
// (lane-split / touched / radix-sort strategies, chosen by shape) or all
// forced through the sparse packed sort. Run under the `tsan` preset
// (ctest label `tsan_stress`) this puts the race detector on the
// per-worker kernel scratch while both contracts are asserted with exact
// double equality.

#include "depmatch/graph/graph_builder.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "depmatch/common/rng.h"
#include "depmatch/table/csv.h"
#include "depmatch/table/table.h"

namespace depmatch {
namespace {

// Columns spanning low and high cardinality, so the shape rule hits every
// dense strategy (lane-split for small alphabets, touched-scatter in the
// middle, and — pushed by the cell budget — the sparse path).
Table MixedCardinalityTable(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  std::string csv;
  for (size_t c = 0; c < cols; ++c) {
    if (c > 0) csv += ',';
    csv += "a" + std::to_string(c);
  }
  csv += '\n';
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (c > 0) csv += ',';
      // 4, 16, 64, 256, 1024 distinct values, cycling per column.
      uint64_t alphabet = uint64_t{4} << (4 * (c % 5) / 2);
      csv += "v" + std::to_string(rng.NextBounded(alphabet));
    }
    csv += '\n';
  }
  auto table = ReadCsvString(csv, {});
  EXPECT_TRUE(table.ok());
  return table.value();
}

void ExpectIdenticalGraphs(const DependencyGraph& base,
                           const DependencyGraph& other,
                           const std::string& label) {
  ASSERT_EQ(other.size(), base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    for (size_t j = 0; j < base.size(); ++j) {
      EXPECT_EQ(other.mi(i, j), base.mi(i, j))
          << "cell (" << i << "," << j << ") " << label;
    }
  }
}

TEST(JointKernelStrategyStressTest, SameGraphAtEveryStrategyAndThreadCount) {
  Table table = MixedCardinalityTable(600, 12, 271);
  // The reference counts every pair with the sparse packed sort. The
  // budget sweep then routes pairs through different strategy mixes: the
  // default admits every pair dense (auto-raise), a tiny budget mixes
  // dense and sparse, and 0 is all-sparse again.
  DependencyGraphOptions sparse_options;
  sparse_options.stats.dense_cell_budget = 0;
  auto reference = BuildDependencyGraph(table, sparse_options);
  ASSERT_TRUE(reference.ok()) << reference.status();

  const size_t kBudgets[] = {size_t{1} << 20, 5000, 0};
  for (size_t budget : kBudgets) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      DependencyGraphOptions options;
      options.stats.dense_cell_budget = budget;
      options.num_threads = threads;
      auto graph = BuildDependencyGraph(table, options);
      ASSERT_TRUE(graph.ok()) << graph.status();
      ExpectIdenticalGraphs(reference.value(), graph.value(),
                            "at dense_cell_budget=" + std::to_string(budget) +
                                ", num_threads=" + std::to_string(threads));
    }
  }
}

TEST(JointKernelStrategyStressTest, RepeatedParallelBuildsAreIdentical) {
  // Per-worker scratch reuse in the pool must not leak between pairs or
  // builds: back-to-back 8-thread builds give the same graph.
  Table table = MixedCardinalityTable(500, 10, 523);
  for (size_t budget : {size_t{1} << 20, size_t{0}}) {
    DependencyGraphOptions options;
    options.stats.dense_cell_budget = budget;
    options.num_threads = 8;
    auto first = BuildDependencyGraph(table, options);
    ASSERT_TRUE(first.ok()) << first.status();
    auto again = BuildDependencyGraph(table, options);
    ASSERT_TRUE(again.ok()) << again.status();
    ExpectIdenticalGraphs(first.value(), again.value(),
                          "on a repeated build, dense_cell_budget=" +
                              std::to_string(budget));
  }
}

}  // namespace
}  // namespace depmatch
