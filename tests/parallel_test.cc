#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bitvector/filter_bit_vector.h"
#include "core/hbp_aggregate.h"
#include "core/vbp_aggregate.h"
#include "parallel/parallel_aggregate.h"
#include "scan/hbp_scanner.h"
#include "scan/vbp_scanner.h"
#include "sched/morsel.h"
#include "test_session.h"
#include "util/random.h"

namespace icp {
namespace {

TEST(PartitionRangeTest, CoversAll) {
  for (std::size_t total : {0u, 1u, 7u, 100u, 101u}) {
    for (int parts : {1, 2, 3, 4, 7}) {
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      for (int i = 0; i < parts; ++i) {
        const auto [b, e] = PartitionRange(total, parts, i);
        EXPECT_EQ(b, prev_end);
        EXPECT_LE(e - b, total / parts + 1);
        covered += e - b;
        prev_end = e;
      }
      EXPECT_EQ(covered, total);
      EXPECT_EQ(prev_end, total);
    }
  }
}

// ---------------------------------------------------------------------------
// Parallel aggregates on a scheduler session match single-threaded results
// ---------------------------------------------------------------------------

class ParallelAggTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelAggTest, VbpMatchesSingleThread) {
  const int threads = GetParam();
  TestSession session(threads);
  sched::QuerySession& ex = session.ex();
  Random rng(threads);
  const int k = 17;
  // Several morsels, so more than one slot folds partial state.
  std::vector<std::uint64_t> codes(300000);
  for (auto& c : codes) c = rng.UniformInt(0, LowMask(k));
  const VbpColumn col = VbpColumn::Pack(codes, k);
  const FilterBitVector f = par::Scan(ex, col, CompareOp::kLt, 90000);
  const FilterBitVector f_ref =
      VbpScanner::Scan(col, CompareOp::kLt, 90000);
  EXPECT_TRUE(f == f_ref);

  EXPECT_EQ(par::Count(ex, f), f.CountOnes());
  EXPECT_TRUE(par::Sum(ex, col, f) == vbp::Sum(col, f));
  EXPECT_EQ(par::Min(ex, col, f), vbp::Min(col, f));
  EXPECT_EQ(par::Max(ex, col, f), vbp::Max(col, f));
  EXPECT_EQ(par::Median(ex, col, f), vbp::Median(col, f));
  EXPECT_EQ(par::RankSelect(ex, col, f, 17),
            vbp::RankSelect(col, f, 17));
}

TEST_P(ParallelAggTest, HbpMatchesSingleThread) {
  const int threads = GetParam();
  TestSession session(threads);
  sched::QuerySession& ex = session.ex();
  Random rng(100 + threads);
  const int k = 13;
  // Several morsels, so more than one slot folds partial state.
  std::vector<std::uint64_t> codes(300000);
  for (auto& c : codes) c = rng.UniformInt(0, LowMask(k));
  const HbpColumn col = HbpColumn::Pack(codes, k);
  const FilterBitVector f = par::Scan(ex, col, CompareOp::kGe, 2000);
  const FilterBitVector f_ref = HbpScanner::Scan(col, CompareOp::kGe, 2000);
  EXPECT_TRUE(f == f_ref);

  EXPECT_EQ(par::Count(ex, f), f.CountOnes());
  EXPECT_TRUE(par::Sum(ex, col, f) == hbp::Sum(col, f));
  EXPECT_EQ(par::Min(ex, col, f), hbp::Min(col, f));
  EXPECT_EQ(par::Max(ex, col, f), hbp::Max(col, f));
  EXPECT_EQ(par::Median(ex, col, f), hbp::Median(col, f));
  EXPECT_EQ(par::RankSelect(ex, col, f, 42),
            hbp::RankSelect(col, f, 42));
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelAggTest,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(ParallelAggTest, EmptyFilter) {
  TestSession session(4);
  sched::QuerySession& ex = session.ex();
  std::vector<std::uint64_t> codes(1000, 5);
  const VbpColumn vcol = VbpColumn::Pack(codes, 4);
  const HbpColumn hcol = HbpColumn::Pack(codes, 4);
  FilterBitVector vf(codes.size(), 64);
  FilterBitVector hf(codes.size(), hcol.values_per_segment());
  EXPECT_EQ(par::Count(ex, vf), 0u);
  EXPECT_FALSE(par::Min(ex, vcol, vf).has_value());
  EXPECT_FALSE(par::Median(ex, hcol, hf).has_value());
  EXPECT_TRUE(par::Sum(ex, vcol, vf) == UInt128{0});
  EXPECT_TRUE(par::Sum(ex, hcol, hf) == UInt128{0});
}

TEST(ParallelAggTest, MoreThreadsThanSegments) {
  TestSession session(8);
  sched::QuerySession& ex = session.ex();
  std::vector<std::uint64_t> codes(70, 3);  // 2 segments
  const VbpColumn col = VbpColumn::Pack(codes, 4);
  FilterBitVector f(codes.size(), 64);
  f.SetAll();
  EXPECT_TRUE(par::Sum(ex, col, f) == UInt128{210});
  EXPECT_EQ(par::Median(ex, col, f), std::optional<std::uint64_t>(3));
}

TEST(ParallelAggTest, AggregateDispatcher) {
  TestSession session(4);
  sched::QuerySession& ex = session.ex();
  Random rng(5);
  std::vector<std::uint64_t> codes(3000);
  for (auto& c : codes) c = rng.UniformInt(0, 255);
  const HbpColumn col = HbpColumn::Pack(codes, 8);
  FilterBitVector f(codes.size(), col.values_per_segment());
  f.SetAll();
  const AggregateResult r = par::Aggregate(ex, col, f, AggKind::kMedian);
  EXPECT_EQ(r.value, hbp::Median(col, f));
  EXPECT_EQ(r.count, codes.size());
}

}  // namespace
}  // namespace icp
