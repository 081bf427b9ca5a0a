#include "depmatch/stats/joint_kernel.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "depmatch/common/rng.h"
#include "depmatch/stats/association.h"
#include "depmatch/stats/entropy.h"
#include "depmatch/stats/histogram.h"

namespace depmatch {
namespace {

Column Int64Column(std::initializer_list<int> values) {
  Column col(DataType::kInt64);
  for (int v : values) col.Append(Value(static_cast<int64_t>(v)));
  return col;
}

// Random column with the given alphabet and null probability.
Column RandomColumn(Rng& rng, size_t rows, size_t alphabet,
                    double null_probability) {
  Column col(DataType::kInt64);
  for (size_t r = 0; r < rows; ++r) {
    if (rng.NextBernoulli(null_probability)) {
      col.Append(Value::Null());
    } else {
      col.Append(Value(static_cast<int64_t>(rng.NextBounded(alphabet))));
    }
  }
  return col;
}

StatsOptions DenseOptions(NullPolicy policy = NullPolicy::kNullAsSymbol) {
  StatsOptions options;
  options.null_policy = policy;
  return options;
}

StatsOptions SparseOptions(NullPolicy policy = NullPolicy::kNullAsSymbol) {
  StatsOptions options;
  options.null_policy = policy;
  options.dense_cell_budget = 0;  // force the sparse fallback
  return options;
}

// Which kernel the crossover picks for (x, y): the counting pass records
// it, so the Column shape needs no separate entry point.
bool UsesDense(const Column& x, const Column& y, const StatsOptions& options) {
  JointCountKernel kernel;
  return kernel.Count(x, y, options).used_dense;
}

TEST(ColumnMarginalTest, MatchesHistogramAndEntropyOf) {
  Rng rng(11);
  Column col = RandomColumn(rng, 500, 17, 0.1);
  for (NullPolicy policy :
       {NullPolicy::kNullAsSymbol, NullPolicy::kDropNulls}) {
    ColumnMarginal m = ComputeColumnMarginal(col, policy);
    Histogram h = Histogram::FromColumn(col, policy);
    EXPECT_EQ(m.total, h.total());
    EXPECT_EQ(m.support, h.support_size());
    EXPECT_EQ(m.slots[0], h.null_count());
    for (size_t c = 0; c < h.code_counts().size(); ++c) {
      EXPECT_EQ(m.slots[c + 1], h.code_counts()[c]);
    }
    StatsOptions options;
    options.null_policy = policy;
    EXPECT_DOUBLE_EQ(m.entropy, EntropyOf(col, options));
  }
}

TEST(JointCountKernelTest, DenseSelectionRule) {
  Column x = Int64Column({0, 1, 2, 3});  // 4 distinct -> 5 slots
  Column y = Int64Column({0, 1, 0, 1});  // 2 distinct -> 3 slots
  StatsOptions options;
  options.auto_dense_budget = false;  // exercise the static budget alone
  options.dense_cell_budget = 15;     // 5 * 3 = 15 fits exactly
  EXPECT_TRUE(UsesDense(x, y, options));
  options.dense_cell_budget = 14;
  EXPECT_FALSE(UsesDense(x, y, options));
  options.dense_cell_budget = 0;
  EXPECT_FALSE(UsesDense(x, y, options));
}

// All-distinct column of `rows` values: rows + 1 slots.
Column DistinctColumn(size_t rows) {
  Column col(DataType::kInt64);
  for (size_t r = 0; r < rows; ++r) {
    col.Append(Value(static_cast<int64_t>(r)));
  }
  return col;
}

TEST(JointCountKernelTest, AutoDenseBudgetUsesMeasuredShape) {
  StatsOptions options;
  ASSERT_TRUE(options.auto_dense_budget);
  options.dense_cell_budget = 1;

  // 15 cells exceed the static budget of 1 but fit the measured-shape
  // allowance (4 rows * kDenseAutoCellsPerRow), so the pair goes dense.
  Column x = Int64Column({0, 1, 2, 3});  // 4 rows, 5 slots
  Column y = Int64Column({0, 1, 0, 1});  // 3 slots
  EXPECT_TRUE(UsesDense(x, y, options));

  // Budget 0 still forces sparse: auto never overrides the opt-out.
  options.dense_cell_budget = 0;
  EXPECT_FALSE(UsesDense(x, y, options));
  options.dense_cell_budget = 1;

  // The allowance is row-bounded: two all-distinct 5000-row columns give
  // 5001^2 ~ 25M cells > 5000 * kDenseAutoCellsPerRow ~ 20.5M, so the
  // pair stays sparse under a tiny static budget...
  Column big_x = DistinctColumn(5000);
  Column big_y = DistinctColumn(5000);
  ASSERT_GT((big_x.distinct_count() + 1) * (big_y.distinct_count() + 1),
            5000 * kDenseAutoCellsPerRow);
  EXPECT_FALSE(UsesDense(big_x, big_y, options));

  // ...but a generous static budget still wins (auto only ever raises).
  options.dense_cell_budget = size_t{1} << 26;
  EXPECT_TRUE(UsesDense(big_x, big_y, options));

  // The shape-only CodeView entry point applies the same rule.
  std::vector<uint32_t> slots = {1, 2, 1, 2};
  CodeView view{slots.data(), slots.size(), 3, 0};
  StatsOptions tiny;
  tiny.dense_cell_budget = 1;
  EXPECT_TRUE(JointCountKernel::UseDense(view, view, tiny));
  tiny.dense_cell_budget = 0;
  EXPECT_FALSE(JointCountKernel::UseDense(view, view, tiny));
}

// Exact comparison against the independent hash-map oracle: same total,
// same cells with the same integer counts, and the same retained
// marginals (the kernel's per-pair marginals when it filled them, else
// the pair-invariant column marginals, which then cover the same rows).
void ExpectMatchesOracle(const Column& x, const Column& y, NullPolicy policy,
                         const JointCounts& counts) {
  JointHistogram joint = JointHistogram::FromColumns(x, y, policy);
  EXPECT_EQ(counts.total, joint.total());
  ASSERT_EQ(counts.num_cells(), joint.cells().size());
  for (size_t c = 0; c < counts.num_cells(); ++c) {
    int32_t x_code = static_cast<int32_t>(counts.cell_x_slots[c]) - 1;
    int32_t y_code = static_cast<int32_t>(counts.cell_y_slots[c]) - 1;
    auto it = joint.cells().find(JointHistogram::PackCodes(x_code, y_code));
    ASSERT_NE(it, joint.cells().end());
    EXPECT_EQ(counts.cell_counts[c], it->second);
  }
  auto expect_marginal = [](const std::vector<uint64_t>& slots,
                            const std::unordered_map<int32_t, uint64_t>&
                                oracle) {
    size_t observed = 0;
    for (size_t s = 0; s < slots.size(); ++s) {
      if (slots[s] == 0) continue;
      ++observed;
      auto it = oracle.find(static_cast<int32_t>(s) - 1);
      ASSERT_NE(it, oracle.end()) << "slot " << s;
      EXPECT_EQ(slots[s], it->second) << "slot " << s;
    }
    EXPECT_EQ(observed, oracle.size());
  };
  expect_marginal(counts.has_marginals
                      ? counts.x_marginals
                      : ComputeColumnMarginal(x, policy).slots,
                  joint.x_counts());
  expect_marginal(counts.has_marginals
                      ? counts.y_marginals
                      : ComputeColumnMarginal(y, policy).slots,
                  joint.y_counts());
}

TEST(JointCountKernelTest, MatchesJointHistogram) {
  // One shape per counting strategy, each checked against the oracle
  // under both null policies. The shape guards pin each case to its
  // strategy's regime, so moving a crossover constant cannot silently
  // drop one from coverage.
  enum class Strategy { kLanes, kTouched, kSorted, kSparse };
  struct Shape {
    Strategy strategy;
    size_t rows, alphabet_x, alphabet_y;
  };
  const Shape shapes[] = {
      {Strategy::kLanes, 2000, 5, 7},       // cells <= rows
      {Strategy::kTouched, 500, 40, 40},    // rows < cells < 2^17
      {Strategy::kSorted, 3000, 600, 600},  // cells >= 2^17, still dense
      {Strategy::kSparse, 3000, 600, 600},  // dense_cell_budget = 0
  };
  constexpr size_t kSortMinCells = size_t{1} << 17;
  Rng rng(123);
  for (const Shape& shape : shapes) {
    Column x = RandomColumn(rng, shape.rows, shape.alphabet_x, 0.1);
    Column y = RandomColumn(rng, shape.rows, shape.alphabet_y, 0.1);
    const size_t cells = (x.distinct_count() + 1) * (y.distinct_count() + 1);
    switch (shape.strategy) {
      case Strategy::kLanes:
        ASSERT_LE(cells, shape.rows);
        break;
      case Strategy::kTouched:
        ASSERT_GT(cells, shape.rows);
        ASSERT_LT(cells, kSortMinCells);
        break;
      case Strategy::kSorted:
      case Strategy::kSparse:
        ASSERT_GE(cells, kSortMinCells);
        break;
    }
    const bool dense = shape.strategy != Strategy::kSparse;
    for (NullPolicy policy :
         {NullPolicy::kNullAsSymbol, NullPolicy::kDropNulls}) {
      StatsOptions options = dense ? DenseOptions(policy)
                                   : SparseOptions(policy);
      JointCountKernel kernel;
      const JointCounts& counts = kernel.Count(x, y, options);
      EXPECT_EQ(counts.used_dense, dense);
      ExpectMatchesOracle(x, y, policy, counts);
    }
  }
}

TEST(JointCountKernelTest, CellsAreInCanonicalOrder) {
  Rng rng(9);
  Column x = RandomColumn(rng, 300, 19, 0.05);
  Column y = RandomColumn(rng, 300, 23, 0.05);
  for (bool dense : {true, false}) {
    StatsOptions options = dense ? DenseOptions() : SparseOptions();
    JointCountKernel kernel;
    const JointCounts& counts = kernel.Count(x, y, options);
    for (size_t c = 1; c < counts.num_cells(); ++c) {
      bool ordered =
          counts.cell_x_slots[c - 1] < counts.cell_x_slots[c] ||
          (counts.cell_x_slots[c - 1] == counts.cell_x_slots[c] &&
           counts.cell_y_slots[c - 1] < counts.cell_y_slots[c]);
      EXPECT_TRUE(ordered) << "cell " << c << " out of order";
    }
  }
}

TEST(JointCountKernelTest, DenseAndSparseAreBitIdentical) {
  // The two kernels must agree exactly (not just approximately): they emit
  // cells in the same canonical order, so every downstream fold sums the
  // same doubles in the same order.
  Rng rng(42);
  for (int trial = 0; trial < 10; ++trial) {
    size_t alphabet_x = 2 + rng.NextBounded(40);
    size_t alphabet_y = 2 + rng.NextBounded(40);
    double null_p = (trial % 2 == 0) ? 0.0 : 0.2;
    Column x = RandomColumn(rng, 600, alphabet_x, null_p);
    Column y = RandomColumn(rng, 600, alphabet_y, null_p);
    for (NullPolicy policy :
         {NullPolicy::kNullAsSymbol, NullPolicy::kDropNulls}) {
      StatsOptions dense = DenseOptions(policy);
      StatsOptions sparse = SparseOptions(policy);
      EXPECT_DOUBLE_EQ(MutualInformation(x, y, dense),
                       MutualInformation(x, y, sparse));
      EXPECT_DOUBLE_EQ(NormalizedMutualInformation(x, y, dense),
                       NormalizedMutualInformation(x, y, sparse));
      EXPECT_DOUBLE_EQ(CramersV(x, y, dense), CramersV(x, y, sparse));
      EXPECT_DOUBLE_EQ(JointEntropy(x, y, dense),
                       JointEntropy(x, y, sparse));
      EXPECT_DOUBLE_EQ(ConditionalEntropy(x, y, dense),
                       ConditionalEntropy(x, y, sparse));
      EXPECT_DOUBLE_EQ(ChiSquareStatistic(x, y, dense),
                       ChiSquareStatistic(x, y, sparse));
    }
  }
}

TEST(JointCountKernelTest, PairMarginalsOnlyWhenDroppingObservedNulls) {
  Rng rng(3);
  Column with_nulls = RandomColumn(rng, 200, 6, 0.3);
  Column no_nulls = RandomColumn(rng, 200, 6, 0.0);
  JointCountKernel kernel;
  EXPECT_FALSE(
      kernel.Count(with_nulls, no_nulls, DenseOptions()).has_marginals);
  EXPECT_FALSE(kernel
                   .Count(no_nulls, no_nulls,
                          DenseOptions(NullPolicy::kDropNulls))
                   .has_marginals);

  const JointCounts& counts =
      kernel.Count(with_nulls, no_nulls, DenseOptions(NullPolicy::kDropNulls));
  ASSERT_TRUE(counts.has_marginals);
  uint64_t x_sum = 0;
  for (uint64_t c : counts.x_marginals) x_sum += c;
  uint64_t y_sum = 0;
  for (uint64_t c : counts.y_marginals) y_sum += c;
  EXPECT_EQ(x_sum, counts.total);
  EXPECT_EQ(y_sum, counts.total);
  EXPECT_EQ(counts.x_marginals[0], 0u);  // dropped rows leave no null mass
}

TEST(JointCountKernelTest, ScratchReuseAcrossPairsIsClean) {
  // One kernel counting many different pairs (alternating dense/sparse)
  // must give the same answers as a fresh kernel per pair: the scratch
  // reset logic may not leak counts between pairs.
  Rng rng(77);
  std::vector<Column> columns;
  for (int i = 0; i < 6; ++i) {
    columns.push_back(RandomColumn(rng, 300, 3 + 7 * i, 0.1));
  }
  JointCountKernel reused;
  for (size_t i = 0; i < columns.size(); ++i) {
    for (size_t j = 0; j < columns.size(); ++j) {
      StatsOptions options = DenseOptions();
      // Alternate kernels across pairs.
      if ((i + j) % 2 == 0) options.dense_cell_budget = 0;
      const JointCounts& a = reused.Count(columns[i], columns[j], options);
      uint64_t a_total = a.total;
      std::vector<uint64_t> a_cells = a.cell_counts;
      JointCountKernel fresh;
      const JointCounts& b = fresh.Count(columns[i], columns[j], options);
      EXPECT_EQ(a_total, b.total);
      EXPECT_EQ(a_cells, b.cell_counts);
    }
  }
}

TEST(JointCountKernelTest, EmptyColumns) {
  Column x(DataType::kInt64);
  Column y(DataType::kInt64);
  JointCountKernel kernel;
  const JointCounts& counts = kernel.Count(x, y, DenseOptions());
  EXPECT_EQ(counts.total, 0u);
  EXPECT_EQ(counts.num_cells(), 0u);
}

}  // namespace
}  // namespace depmatch
