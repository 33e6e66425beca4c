// Cooperative cancellation and deadline tests.
//
// The acceptance bar: a MEDIAN over 10M rows with a 1ms deadline must come
// back as kDeadlineExceeded well under 100ms of wall time, with every
// scheduler worker drained and the engine immediately reusable.

#include "util/cancellation.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "core/naive_aggregate.h"
#include "core/padded_aggregate.h"
#include "engine/engine.h"
#include "engine/table.h"
#include "obs/query_stats.h"
#include "scan/naive_scanner.h"
#include "scan/padded_scanner.h"
#include "simd/hbp_simd.h"
#include "simd/simd_parallel.h"
#include "simd/vbp_simd.h"
#include "test_session.h"
#include "util/random.h"

namespace icp {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

Table MakeBigTable(std::size_t n) {
  Random rng(123);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) {
    x = static_cast<std::int64_t>(rng.UniformInt(0, (1u << 20) - 1));
  }
  Table table;
  ICP_CHECK(table.AddColumn("v", v, {.layout = Layout::kVbp}).ok());
  return table;
}

Query MedianQuery() {
  Query q;
  q.agg = AggKind::kMedian;
  q.agg_column = "v";
  return q;
}

TEST(CancellationTokenTest, InertByDefault) {
  CancellationToken token;
  EXPECT_FALSE(token.can_cancel());
  token.RequestCancel();  // no-op, must not crash
  EXPECT_FALSE(token.IsCancelRequested());
}

TEST(CancellationTokenTest, CopiesShareTheFlag) {
  CancellationToken token = CancellationToken::Create();
  CancellationToken copy = token;
  EXPECT_FALSE(copy.IsCancelRequested());
  token.RequestCancel();
  EXPECT_TRUE(copy.IsCancelRequested());
}

TEST(CancelContextTest, LatchesFirstReason) {
  CancellationToken token = CancellationToken::Create();
  CancelContext ctx(token, std::nullopt);
  EXPECT_TRUE(ctx.active());
  EXPECT_FALSE(ctx.ShouldStop());
  EXPECT_TRUE(ctx.ToStatus().ok());
  token.RequestCancel();
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.ToStatus().code(), StatusCode::kCancelled);
}

TEST(CancelContextTest, PastDeadlineStops) {
  CancelContext ctx(CancellationToken(),
                    steady_clock::now() - milliseconds(1));
  EXPECT_TRUE(ctx.active());
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.ToStatus().code(), StatusCode::kDeadlineExceeded);
}

TEST(ForEachCancellableBatchTest, InactiveContextRunsOneBatch) {
  int batches = 0;
  std::size_t covered = 0;
  CancelContext inert;
  EXPECT_TRUE(ForEachCancellableBatch(&inert, 0, 3 * kCancelBatchSegments,
                                      [&](std::size_t b, std::size_t e) {
                                        ++batches;
                                        covered += e - b;
                                      }));
  EXPECT_EQ(batches, 1);
  EXPECT_EQ(covered, 3 * kCancelBatchSegments);
  // Null context behaves the same.
  batches = 0;
  EXPECT_TRUE(ForEachCancellableBatch(nullptr, 0, 10,
                                      [&](std::size_t, std::size_t) {
                                        ++batches;
                                      }));
  EXPECT_EQ(batches, 1);
}

TEST(ForEachCancellableBatchTest, ActiveContextBatchesAndStops) {
  CancellationToken token = CancellationToken::Create();
  CancelContext ctx(token, std::nullopt);
  int batches = 0;
  EXPECT_FALSE(ForEachCancellableBatch(
      &ctx, 0, 10 * kCancelBatchSegments, [&](std::size_t b, std::size_t e) {
        EXPECT_LE(e - b, kCancelBatchSegments);
        if (++batches == 2) token.RequestCancel();
      }));
  EXPECT_EQ(batches, 2) << "no batch may start after the cancel";
}

class CancelQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(CancelQueryTest, PreCancelledTokenReturnsCancelled) {
  const Table table = MakeBigTable(100000);
  CancellationToken token = CancellationToken::Create();
  token.RequestCancel();
  Engine engine(
      ExecOptions{.threads = GetParam(), .cancel_token = token});
  auto result = engine.Execute(table, MedianQuery());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_P(CancelQueryTest, ZeroDeadlineReturnsDeadlineExceeded) {
  const Table table = MakeBigTable(100000);
  Engine engine(ExecOptions{.threads = GetParam(),
                            .deadline = std::chrono::nanoseconds(0)});
  auto result = engine.Execute(table, MedianQuery());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_P(CancelQueryTest, NbpMethodIsCancellableToo) {
  const Table table = MakeBigTable(100000);
  CancellationToken token = CancellationToken::Create();
  token.RequestCancel();
  Engine engine(ExecOptions{.method = AggMethod::kNonBitParallel,
                            .threads = GetParam(),
                            .cancel_token = token});
  auto result = engine.Execute(table, MedianQuery());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

INSTANTIATE_TEST_SUITE_P(Threads, CancelQueryTest, ::testing::Values(1, 4));

// The ISSUE acceptance criterion, verbatim: MEDIAN over >= 10M rows with a
// 1ms deadline returns kDeadlineExceeded in under 100ms wall time, workers
// joined (proved by reusing the engine for a full run right after).
TEST(CancellationTest, TenMillionRowMedianHonoursOneMsDeadline) {
  const std::size_t kRows = 10'000'000;
  const Table table = MakeBigTable(kRows);

  Engine engine(ExecOptions{.threads = 4, .deadline = milliseconds(1)});
  const auto start = steady_clock::now();
  auto result = engine.Execute(table, MedianQuery());
  const auto elapsed = steady_clock::now() - start;

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(std::chrono::duration_cast<milliseconds>(elapsed).count(), 100)
      << "cancellation latency must stay far below the full query cost";

  // Workers drained and rejoined: the same pool finishes a real query.
  Engine unlimited(ExecOptions{.threads = 4});
  auto full = unlimited.Execute(table, MedianQuery());
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->count, kRows);
}

TEST(CancellationTest, CancelFromAnotherThreadMidQuery) {
  const Table table = MakeBigTable(4'000'000);
  CancellationToken token = CancellationToken::Create();
  Engine engine(ExecOptions{.threads = 4, .cancel_token = token});

  std::thread canceller([&] {
    std::this_thread::sleep_for(milliseconds(2));
    token.RequestCancel();
  });
  auto result = engine.Execute(table, MedianQuery());
  canceller.join();
  // The query may legitimately beat the 2ms fuse; if it lost the race the
  // status must be kCancelled, never a crash or a wrong error.
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
  // Either way the engine is reusable.
  Engine fresh(ExecOptions{.threads = 4});
  EXPECT_TRUE(fresh.Execute(table, MedianQuery()).ok());
}

TEST(CancellationTest, GenerousDeadlineDoesNotAffectResults) {
  const Table table = MakeBigTable(200000);
  Engine with(ExecOptions{.threads = 2, .deadline = std::chrono::hours(1)});
  Engine without(ExecOptions{.threads = 2});
  auto a = with.Execute(table, MedianQuery());
  auto b = without.Execute(table, MedianQuery());
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->decoded_value, b->decoded_value);
  EXPECT_EQ(a->count, b->count);
}

TEST(CancellationTest, MultiAndGroupByQueriesCancel) {
  Random rng(7);
  const std::size_t n = 100000;
  std::vector<std::int64_t> v(n), g(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::int64_t>(rng.UniformInt(0, 100000));
    g[i] = static_cast<std::int64_t>(rng.UniformInt(0, 4));
  }
  Table table;
  ASSERT_TRUE(table.AddColumn("v", v, {}).ok());
  ASSERT_TRUE(table.AddColumn("g", g, {.dictionary = true}).ok());

  CancellationToken token = CancellationToken::Create();
  token.RequestCancel();
  Engine engine(ExecOptions{.cancel_token = token});

  MultiQuery mq;
  mq.aggregates = {{AggKind::kSum, "v"}, {AggKind::kMin, "v"}};
  auto multi = engine.ExecuteMulti(table, mq);
  ASSERT_FALSE(multi.ok());
  EXPECT_EQ(multi.status().code(), StatusCode::kCancelled);

  Query q;
  q.agg = AggKind::kSum;
  q.agg_column = "v";
  auto grouped = engine.ExecuteGroupBy(table, q, "g");
  ASSERT_FALSE(grouped.ok());
  EXPECT_EQ(grouped.status().code(), StatusCode::kCancelled);
}

// The cancellation checks live inside the kernels, not just in the engine
// driver above them: a pre-stopped context must stop every kernel before it
// accumulates anything, and order statistics must come back empty.
TEST(CancellationTest, KernelsObserveStoppedContextDirectly) {
  Random rng(55);
  const std::size_t n = 300000;
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = static_cast<std::int64_t>(rng.UniformInt(1, 1000));
  Table table;
  ASSERT_TRUE(table.AddColumn("vbp", v, {.layout = Layout::kVbp}).ok());
  ASSERT_TRUE(table.AddColumn("hbp", v, {.layout = Layout::kHbp}).ok());
  ASSERT_TRUE(table.AddColumn("nv", v, {.layout = Layout::kNaive}).ok());
  ASSERT_TRUE(table.AddColumn("pd", v, {.layout = Layout::kPadded}).ok());

  CancellationToken token = CancellationToken::Create();
  token.RequestCancel();
  const CancelContext stopped(token, std::nullopt);

  auto filter_for = [&](const char* name) {
    const Table::Column& c = **table.GetColumn(name);
    FilterBitVector f(table.num_rows(), c.values_per_segment());
    f.SetAll();
    return f;
  };

  {
    const Table::Column& c = **table.GetColumn("nv");
    const FilterBitVector f = filter_for("nv");
    EXPECT_NE(naive::Sum(c.naive(), f), UInt128{0});
    EXPECT_EQ(naive::Sum(c.naive(), f, &stopped), UInt128{0});
    EXPECT_EQ(naive::SumBranchless(c.naive(), f, &stopped), UInt128{0});
    EXPECT_FALSE(naive::Median(c.naive(), f, &stopped).has_value());
  }
  {
    const Table::Column& c = **table.GetColumn("pd");
    const FilterBitVector f = filter_for("pd");
    EXPECT_NE(padded::Sum(c.padded(), f), UInt128{0});
    EXPECT_EQ(padded::Sum(c.padded(), f, &stopped), UInt128{0});
    EXPECT_FALSE(padded::Min(c.padded(), f, &stopped).has_value());
  }
  {
    const Table::Column& c = **table.GetColumn("vbp");
    const FilterBitVector f = filter_for("vbp");
    EXPECT_NE(simd::SumVbp(c.vbp_simd(), f), UInt128{0});
    EXPECT_EQ(simd::SumVbp(c.vbp_simd(), f, &stopped), UInt128{0});
    EXPECT_FALSE(simd::MaxVbp(c.vbp_simd(), f, &stopped).has_value());
    EXPECT_FALSE(
        simd::RankSelectVbp(c.vbp_simd(), f, n / 2, &stopped).has_value());
  }
  {
    const Table::Column& c = **table.GetColumn("hbp");
    const FilterBitVector f = filter_for("hbp");
    EXPECT_NE(simd::SumHbp(c.hbp_simd(), f), UInt128{0});
    EXPECT_EQ(simd::SumHbp(c.hbp_simd(), f, &stopped), UInt128{0});
    EXPECT_FALSE(simd::MinHbp(c.hbp_simd(), f, &stopped).has_value());
    EXPECT_FALSE(
        simd::RankSelectHbp(c.hbp_simd(), f, n / 2, &stopped).has_value());
  }
}

class SimdCancelQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(SimdCancelQueryTest, SimdPathIsCancellableToo) {
  const Table table = MakeBigTable(100000);
  CancellationToken token = CancellationToken::Create();
  token.RequestCancel();
  Engine engine(ExecOptions{
      .threads = GetParam(), .simd = true, .cancel_token = token});
  auto result = engine.Execute(table, MedianQuery());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

// Mid-scan cancellation with simd=true: the lanes=4 scans used to take no
// CancelContext, so a cancel landing during a scan waited for the whole
// column. They now poll every kCancelBatchSegments segments (serial) or
// once per morsel (scheduler).
TEST_P(SimdCancelQueryTest, ScanPollsTokenAndStopsMidScan) {
  const int threads = GetParam();
  const Table table = MakeBigTable(4'000'000);
  const VbpColumn& column = (*table.GetColumn("v"))->vbp_simd();
  constexpr std::uint64_t kBelow = 1u << 19;
  Query q;
  q.agg = AggKind::kCount;
  q.agg_column = "v";
  q.filter = FilterExpr::Compare("v", CompareOp::kLt, kBelow);

  // A live token is polled all through the scan.
  obs::QueryStats qs;
  Engine live(ExecOptions{.threads = threads,
                          .simd = true,
                          .cancel_token = CancellationToken::Create(),
                          .stats = &qs});
  auto full = live.Execute(table, q);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_GE(qs.cancel_checks, column.num_segments() / kCancelBatchSegments);

  // A stopped context cuts the scan before its first batch or morsel.
  CancellationToken fired = CancellationToken::Create();
  fired.RequestCancel();
  const CancelContext stopped(fired, std::nullopt);
  EXPECT_EQ(simd::ScanVbp(column, CompareOp::kLt, kBelow, 0, nullptr,
                          &stopped)
                .CountOnes(),
            0u);
  TestSession session(threads);
  EXPECT_EQ(
      simd::ScanVbp(session.ex(), column, CompareOp::kLt, kBelow, 0, &stopped)
          .CountOnes(),
      0u);

  // A cancel from another thread mid-query surfaces as kCancelled, unless
  // the query wins the race.
  CancellationToken token = CancellationToken::Create();
  Engine engine(
      ExecOptions{.threads = threads, .simd = true, .cancel_token = token});
  std::thread canceller([&] {
    std::this_thread::sleep_for(milliseconds(1));
    token.RequestCancel();
  });
  auto result = engine.Execute(table, q);
  canceller.join();
  if (result.ok()) {
    EXPECT_EQ(result->count, full->count);
  } else {
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, SimdCancelQueryTest,
                         ::testing::Values(1, 4));

// Mid-kernel cancellation on a large table through the SIMD path: the
// cancel lands while a kernel is running, not between engine phases.
TEST(CancellationTest, SimdQueryCancelsMidKernelOnLargeTable) {
  const Table table = MakeBigTable(4'000'000);
  CancellationToken token = CancellationToken::Create();
  Engine engine(ExecOptions{.threads = 1, .simd = true,
                            .cancel_token = token});

  std::thread canceller([&] {
    std::this_thread::sleep_for(milliseconds(2));
    token.RequestCancel();
  });
  auto result = engine.Execute(table, MedianQuery());
  canceller.join();
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
  // The engine stays usable and correct after the cancel.
  Engine fresh(ExecOptions{.threads = 1, .simd = true});
  auto full = fresh.Execute(table, MedianQuery());
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  Engine scalar(ExecOptions{.threads = 1});
  auto reference = scalar.Execute(table, MedianQuery());
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(full->decoded_value, reference->decoded_value);
}

TEST(CancellationTest, StandaloneFilterAndAggregateHonourToken) {
  const Table table = MakeBigTable(200000);
  CancellationToken token = CancellationToken::Create();
  token.RequestCancel();
  Engine engine(ExecOptions{.cancel_token = token});

  auto filter = engine.EvaluateFilter(
      table, FilterExpr::Compare("v", CompareOp::kLt, 1000), "v");
  ASSERT_FALSE(filter.ok());
  EXPECT_EQ(filter.status().code(), StatusCode::kCancelled);

  Engine clean;
  auto good_filter = clean.EvaluateFilter(
      table, FilterExpr::Compare("v", CompareOp::kLt, 1000), "v");
  ASSERT_TRUE(good_filter.ok());
  auto agg = engine.Aggregate(table, AggKind::kSum, "v", *good_filter);
  ASSERT_FALSE(agg.ok());
  EXPECT_EQ(agg.status().code(), StatusCode::kCancelled);
}

// Regression (found by ICP011): the scalar baseline scanners used to run
// their whole column with no cancellation polling, so a cancelled query
// on a naive/padded leaf had its latency bounded by the column length
// instead of one cancel batch. They now poll like every other driver.
TEST(CancellationTest, BaselineScannersObserveStoppedContext) {
  Random rng(56);
  const std::size_t n = 500000;
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = static_cast<std::int64_t>(rng.UniformInt(1, 1000));
  Table table;
  ASSERT_TRUE(table.AddColumn("nv", v, {.layout = Layout::kNaive}).ok());
  ASSERT_TRUE(table.AddColumn("pd", v, {.layout = Layout::kPadded}).ok());

  CancellationToken token = CancellationToken::Create();
  token.RequestCancel();
  const CancelContext stopped(token, std::nullopt);

  const Table::Column& nv = **table.GetColumn("nv");
  const FilterBitVector full_naive =
      NaiveScanner::Scan(nv.naive(), CompareOp::kGe, 1);
  EXPECT_GT(full_naive.CountOnes(), 0u);
  const FilterBitVector cut_naive = NaiveScanner::Scan(
      nv.naive(), CompareOp::kGe, 1, 0, kWordBits, &stopped);
  EXPECT_EQ(cut_naive.CountOnes(), 0u);  // stopped before the first batch

  const Table::Column& pd = **table.GetColumn("pd");
  const FilterBitVector full_padded =
      PaddedScanner::Scan(pd.padded(), CompareOp::kGe, 1);
  EXPECT_GT(full_padded.CountOnes(), 0u);
  const FilterBitVector cut_padded =
      PaddedScanner::Scan(pd.padded(), CompareOp::kGe, 1, 0, &stopped);
  EXPECT_EQ(cut_padded.CountOnes(), 0u);

  // Engine-level: a query over a baseline layout surfaces kCancelled.
  Query q;
  q.agg = AggKind::kCount;
  q.agg_column = "nv";
  q.filter = FilterExpr::Compare("nv", CompareOp::kGt, 10);
  Engine engine(ExecOptions{.cancel_token = token});
  auto result = engine.Execute(table, q);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace icp
