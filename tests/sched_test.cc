// Morsel scheduler + admission control (src/sched/): differential
// correctness against the serial aggregators, deterministic stealing,
// morsel-granular cancellation polling, bounded-queue load shedding, the
// degradation ladder, per-query scratch budgets, and the engine
// integration (ExecOptions::governor).

#include <gtest/gtest.h>
#include <time.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/hbp_aggregate.h"
#include "core/vbp_aggregate.h"
#include "engine/engine.h"
#include "obs/query_stats.h"
#include "sched/admission.h"
#include "sched/morsel.h"
#include "sched/scheduler.h"
#include "simd/simd_parallel.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace icp {
namespace {

using sched::AdmissionOptions;
using sched::MorselScheduler;
using sched::MorselStats;
using sched::QueryGovernor;
using sched::QuerySession;

CancellationToken InertToken() { return CancellationToken(); }

// ---------------------------------------------------------------------------
// MorselScheduler
// ---------------------------------------------------------------------------

TEST(MorselSchedulerTest, CallerOnlyRunsEveryMorselExactlyOnce) {
  MorselScheduler scheduler(0);
  const std::size_t total = 10 * sched::kMorselSegments + 7;
  std::vector<std::atomic<int>> seen(total);
  for (auto& s : seen) s.store(0);
  MorselStats stats;
  scheduler.RunRegion(
      4, total, nullptr,
      [&](int slot, std::size_t b, std::size_t e) {
        EXPECT_GE(slot, 0);
        EXPECT_LT(slot, 4);
        for (std::size_t i = b; i < e; ++i) seen[i].fetch_add(1);
      },
      &stats);
  for (std::size_t i = 0; i < total; ++i) {
    ASSERT_EQ(seen[i].load(), 1) << "segment " << i;
  }
  EXPECT_EQ(stats.dispatched, 11u);
  EXPECT_EQ(stats.completed, 11u);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_FALSE(stats.dropped);
}

TEST(MorselSchedulerTest, SoleParticipantStealsOtherShards) {
  // With zero workers the caller is the only participant: it drains its
  // own shard (16 morsels split over 4 shards -> 4 own) and must steal
  // the remaining 12 from the other shards.
  MorselScheduler scheduler(0);
  const std::size_t total = 16 * sched::kMorselSegments;
  MorselStats stats;
  scheduler.RunRegion(
      4, total, nullptr, [](int, std::size_t, std::size_t) {}, &stats);
  EXPECT_EQ(stats.dispatched, 16u);
  EXPECT_EQ(stats.completed, 16u);
  EXPECT_EQ(stats.steals, 12u);
}

TEST(MorselSchedulerTest, ParallelismClampsToMorselCount) {
  MorselScheduler scheduler(0);
  MorselStats stats;
  // 2 morsels but 64 requested slots: only slots 0/1 may be claimed.
  scheduler.RunRegion(
      sched::kMaxRegionSlots, 2 * sched::kMorselSegments, nullptr,
      [](int slot, std::size_t, std::size_t) { EXPECT_LT(slot, 2); },
      &stats);
  EXPECT_EQ(stats.dispatched, 2u);
}

TEST(MorselSchedulerTest, EveryMorselBoundaryPollsCancellation) {
  // The scheduler must poll the CancelContext at every morsel boundary:
  // a live (cancellable) context that never fires still gets one
  // ShouldStop() per dispatched morsel.
  MorselScheduler scheduler(0);
  CancellationToken token = CancellationToken::Create();
  CancelContext ctx(token, std::nullopt);
  ASSERT_TRUE(ctx.active());
  const std::size_t kMorsels = 8;
  MorselStats stats;
  scheduler.RunRegion(
      2, kMorsels * sched::kMorselSegments, &ctx,
      [](int, std::size_t, std::size_t) {}, &stats);
  EXPECT_EQ(stats.completed, kMorsels);
  EXPECT_GE(ctx.checks(), kMorsels);
}

TEST(MorselSchedulerTest, CancellationDrainsAtMorselGranularity) {
  MorselScheduler scheduler(0);
  CancellationToken token = CancellationToken::Create();
  CancelContext ctx(token, std::nullopt);
  const std::size_t kMorsels = 32;
  std::atomic<std::uint64_t> ran{0};
  MorselStats stats;
  scheduler.RunRegion(
      4, kMorsels * sched::kMorselSegments, &ctx,
      [&](int, std::size_t, std::size_t) {
        if (ran.fetch_add(1) == 2) token.RequestCancel();
      },
      &stats);
  // The cancel lands after the third morsel; everything still queued at
  // the next boundary drains without running.
  EXPECT_LT(ran.load(), kMorsels);
  EXPECT_GT(stats.cancelled, 0u);
  EXPECT_EQ(stats.completed + stats.cancelled, kMorsels);
}

TEST(MorselSchedulerTest, WorkersParticipate) {
  MorselScheduler scheduler(3);
  const std::size_t total = 64 * sched::kMorselSegments;
  std::vector<std::atomic<int>> seen(total);
  for (auto& s : seen) s.store(0);
  for (int round = 0; round < 10; ++round) {
    for (auto& s : seen) s.store(0);
    MorselStats stats;
    scheduler.RunRegion(
        4, total, nullptr,
        [&](int, std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) seen[i].fetch_add(1);
        },
        &stats);
    EXPECT_EQ(stats.completed, 64u);
    for (std::size_t i = 0; i < total; ++i) {
      ASSERT_EQ(seen[i].load(), 1) << "round " << round << " segment " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(AdmissionTest, SaturatedQueueShedsDeterministically) {
  MorselScheduler scheduler(0);
  QueryGovernor governor(scheduler,
                         {.max_concurrent = 1, .max_queued = 0});
  auto first = governor.Admit(InertToken(), std::nullopt);
  ASSERT_TRUE(first.ok());
  // Queue depth 0: while the slot is held every arrival sheds, every
  // time, with kResourceExhausted — never a block, never a hang.
  for (int i = 0; i < 3; ++i) {
    auto second = governor.Admit(InertToken(), std::nullopt);
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted) << i;
  }
  first.value().reset();  // release the slot
  auto third = governor.Admit(InertToken(), std::nullopt);
  EXPECT_TRUE(third.ok());
}

TEST(AdmissionTest, ExpiredDeadlineShedsWithoutDispatch) {
  MorselScheduler scheduler(0);
  QueryGovernor governor(scheduler, {.max_concurrent = 4, .max_queued = 4});
  const auto past =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  auto session = governor.Admit(InertToken(), past);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kDeadlineExceeded);
  // Shed before dispatch: no admission slot was consumed.
  EXPECT_EQ(governor.active(), 0);
}

TEST(AdmissionTest, DeadlineExpiresWhileQueued) {
  MorselScheduler scheduler(0);
  QueryGovernor governor(scheduler,
                         {.max_concurrent = 1, .max_queued = 2});
  auto held = governor.Admit(InertToken(), std::nullopt);
  ASSERT_TRUE(held.ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  auto queued = governor.Admit(InertToken(), deadline);
  ASSERT_FALSE(queued.ok());
  EXPECT_EQ(queued.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(governor.queued(), 0);  // the dead waiter left the queue
}

TEST(AdmissionTest, CancelledWhileQueued) {
  MorselScheduler scheduler(0);
  QueryGovernor governor(scheduler,
                         {.max_concurrent = 1, .max_queued = 2});
  auto held = governor.Admit(InertToken(), std::nullopt);
  ASSERT_TRUE(held.ok());
  CancellationToken token = CancellationToken::Create();
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    token.RequestCancel();
  });
  auto queued = governor.Admit(token, std::nullopt);
  canceller.join();
  ASSERT_FALSE(queued.ok());
  EXPECT_EQ(queued.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(governor.queued(), 0);
}

TEST(AdmissionTest, ReleaseGrantsEarliestDeadlineFirst) {
  MorselScheduler scheduler(0);
  QueryGovernor governor(scheduler,
                         {.max_concurrent = 1, .max_queued = 2});
  auto held = governor.Admit(InertToken(), std::nullopt);
  ASSERT_TRUE(held.ok());

  std::atomic<int> order{0};
  int no_deadline_rank = 0;
  int deadline_rank = 0;
  std::thread no_deadline([&] {
    auto s = governor.Admit(InertToken(), std::nullopt);
    ASSERT_TRUE(s.ok());
    no_deadline_rank = ++order;
  });
  while (governor.queued() < 1) std::this_thread::yield();
  std::thread with_deadline([&] {
    auto s = governor.Admit(InertToken(), std::chrono::steady_clock::now() +
                                              std::chrono::seconds(30));
    ASSERT_TRUE(s.ok());
    deadline_rank = ++order;
  });
  while (governor.queued() < 2) std::this_thread::yield();

  // EDF: the deadline-carrying waiter wins the released slot even though
  // it arrived second.
  held.value().reset();
  with_deadline.join();
  no_deadline.join();
  EXPECT_EQ(deadline_rank, 1);
  EXPECT_EQ(no_deadline_rank, 2);
}

TEST(AdmissionTest, DegradationLadderShrinksParallelismUnderLoad) {
  MorselScheduler scheduler(3);  // hardware cap: 3 workers + caller = 4
  QueryGovernor governor(scheduler, {.max_concurrent = 4, .max_queued = 0});
  auto first = governor.Admit(InertToken(), std::nullopt);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ((*first)->granted_parallelism(), 4);
  auto second = governor.Admit(InertToken(), std::nullopt);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*second)->granted_parallelism(), 2);  // cap / 2 active
  auto third = governor.Admit(InertToken(), std::nullopt);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ((*third)->granted_parallelism(), 1);  // max(1, 4/3)
}

TEST(AdmissionTest, ScratchBudgetLatchesResourceExhausted) {
  MorselScheduler scheduler(0);
  QueryGovernor governor(
      scheduler,
      {.max_concurrent = 1, .max_queued = 0, .max_scratch_bytes = 1024});
  auto session_or = governor.Admit(InertToken(), std::nullopt);
  ASSERT_TRUE(session_or.ok());
  QuerySession& session = *session_or.value();
  EXPECT_TRUE(session.AccountScratch(512));
  EXPECT_TRUE(session.Error().ok());
  EXPECT_FALSE(session.AccountScratch(1024));
  EXPECT_EQ(session.Error().code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Differential: governed drivers vs serial aggregators
// ---------------------------------------------------------------------------

TEST(SchedDifferentialTest, SessionExecutorMatchesSerialAggregates) {
  Random rng(20260809);
  // ~6K segments -> 7 morsels per region, so the governed run actually
  // exercises multi-morsel dispatch and stealing.
  const std::size_t n = 6 * sched::kMorselSegments * 64 + 1234;
  std::vector<std::uint64_t> codes(n);
  for (auto& c : codes) c = rng.UniformInt(0, LowMask(11));
  const VbpColumn vcol = VbpColumn::Pack(codes, 11);
  const HbpColumn hcol = HbpColumn::Pack(codes, 11);
  // The governed runs use the lanes=4 packing and drivers the engine uses.
  const VbpColumn vcol4 = VbpColumn::Pack(codes, 11, {.lanes = 4});
  const HbpColumn hcol4 = HbpColumn::Pack(codes, 11, {.lanes = 4});

  FilterBitVector vfilter(n, VbpColumn::kValuesPerSegment);
  vfilter.SetAll();
  FilterBitVector hfilter(n, hcol.values_per_segment());
  hfilter.SetAll();

  MorselScheduler scheduler(3);
  QueryGovernor governor(scheduler, {.max_concurrent = 2});
  auto session_or = governor.Admit(InertToken(), std::nullopt);
  ASSERT_TRUE(session_or.ok());
  QuerySession& ex = *session_or.value();

  for (AggKind kind :
       {AggKind::kCount, AggKind::kSum, AggKind::kMin, AggKind::kMax,
        AggKind::kMedian}) {
    const AggregateResult vserial = vbp::Aggregate(vcol, vfilter, kind, 0);
    const AggregateResult vgoverned =
        simd::AggregateVbp(ex, vcol4, vfilter, kind, 0);
    EXPECT_EQ(vgoverned.count, vserial.count);
    EXPECT_TRUE(vgoverned.sum == vserial.sum);
    EXPECT_EQ(vgoverned.value, vserial.value);

    const AggregateResult hserial = hbp::Aggregate(hcol, hfilter, kind, 0);
    const AggregateResult hgoverned =
        simd::AggregateHbp(ex, hcol4, hfilter, kind, 0);
    EXPECT_EQ(hgoverned.count, hserial.count);
    EXPECT_TRUE(hgoverned.sum == hserial.sum);
    EXPECT_EQ(hgoverned.value, hserial.value);
  }
  EXPECT_TRUE(ex.Error().ok());
  EXPECT_GT(ex.stats().dispatched, 0u);
}

// A region body may run a nested region (the retired barrier pool
// aborted on that): the nested caller participates in its own region,
// so both complete.
TEST(MorselSchedulerTest, NestedRegionsComplete) {
  MorselScheduler scheduler(2);
  std::atomic<std::uint64_t> inner_segments{0};
  MorselStats outer;
  scheduler.RunRegion(
      3, 4 * sched::kMorselSegments, nullptr,
      [&](int, std::size_t, std::size_t) {
        scheduler.RunRegion(
            2, 2 * sched::kMorselSegments, nullptr,
            [&](int, std::size_t b, std::size_t e) {
              inner_segments.fetch_add(e - b);
            },
            nullptr);
      },
      &outer);
  EXPECT_EQ(outer.completed, 4u);
  EXPECT_EQ(inner_segments.load(), 4 * 2 * sched::kMorselSegments);
}

// Regression: idle workers used to wake every millisecond even with no
// region registered (about 11 ms of CPU per idle 500 ms for three
// workers), and every threads > 1 engine owns workers. They now block
// until a region arrives.
TEST(MorselSchedulerTest, IdleWorkersDoNotPoll) {
  const auto cpu_ms = [] {
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
  };
  MorselScheduler scheduler(3);
  // One region first, so the workers have run the active-region path
  // and gone back to the idle wait.
  scheduler.RunRegion(4, 8 * sched::kMorselSegments, nullptr,
                      [](int, std::size_t, std::size_t) {}, nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const double before = cpu_ms();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_LT(cpu_ms() - before, 2.0) << "ms of CPU burnt while idle";
}

// ---------------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------------

class GovernedEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Random rng(555);
    const std::size_t n = 120000;
    a_.resize(n);
    b_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      a_[i] = static_cast<std::int64_t>(rng.UniformInt(0, 9999));
      b_[i] = static_cast<std::int64_t>(rng.UniformInt(0, 99));
    }
    ASSERT_TRUE(table_.AddColumn("a", a_, {.layout = Layout::kVbp}).ok());
    ASSERT_TRUE(table_.AddColumn("b", b_, {.layout = Layout::kHbp}).ok());
  }

  static Query SumBelow(std::int64_t threshold) {
    Query q;
    q.agg = AggKind::kSum;
    q.agg_column = "a";
    q.filter = FilterExpr::Compare("b", CompareOp::kLt, threshold);
    return q;
  }

  Table table_;
  std::vector<std::int64_t> a_;
  std::vector<std::int64_t> b_;
};

TEST_F(GovernedEngineTest, GovernedExecuteMatchesUngoverned) {
  MorselScheduler scheduler(3);
  QueryGovernor governor(scheduler, {.max_concurrent = 2});

  Engine plain(ExecOptions{.threads = 1});
  obs::QueryStats qs;
  ExecOptions governed_opts;
  governed_opts.stats = &qs;
  governed_opts.governor = &governor;
  Engine governed(governed_opts);

  for (std::int64_t threshold : {5, 37, 80}) {
    const Query q = SumBelow(threshold);
    auto expected = plain.Execute(table_, q);
    ASSERT_TRUE(expected.ok());
    auto got = governed.Execute(table_, q);
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_EQ(got->count, expected->count);
    EXPECT_EQ(got->value, expected->value);
  }
  // The governed run reports its scheduling: a granted parallelism and
  // morsel traffic in QueryStats.
  EXPECT_GT(qs.granted_parallelism, 0);
  EXPECT_GT(qs.sched_morsels_dispatched, 0u);
  EXPECT_EQ(qs.sched_morsels_dispatched, qs.sched_morsels_completed);
}

TEST_F(GovernedEngineTest, OverloadedGovernorShedsExecute) {
  MorselScheduler scheduler(0);
  QueryGovernor governor(scheduler,
                         {.max_concurrent = 1, .max_queued = 0});
  auto held = governor.Admit(CancellationToken(), std::nullopt);
  ASSERT_TRUE(held.ok());

  ExecOptions opts;
  opts.governor = &governor;
  Engine engine(opts);
  auto r = engine.Execute(table_, SumBelow(50));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(GovernedEngineTest, ScratchBudgetSurfacesThroughExecute) {
  MorselScheduler scheduler(0);
  // SUM needs slots * 64 * 8 bytes of partial state; a 16-byte budget
  // refuses the very first allocation.
  QueryGovernor governor(
      scheduler,
      {.max_concurrent = 1, .max_queued = 0, .max_scratch_bytes = 16});
  ExecOptions opts;
  opts.governor = &governor;
  Engine engine(opts);
  auto r = engine.Execute(table_, SumBelow(50));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  // The governor is reusable afterwards: the session released its slot.
  EXPECT_EQ(governor.active(), 0);
}

TEST_F(GovernedEngineTest, ExplainAnalyzeReportsScheduling) {
  MorselScheduler scheduler(3);
  QueryGovernor governor(scheduler, {.max_concurrent = 2});
  ExecOptions opts;
  opts.governor = &governor;
  Engine engine(opts);
  auto text = engine.ExplainAnalyze(table_, SumBelow(50));
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("sched:"), std::string::npos) << *text;
  EXPECT_NE(text->find("parallelism="), std::string::npos);
}

// Regression: governed simd=true and NBP queries used to run on the
// engine's private thread pool, outside the scheduler, so admission
// budgets and fairness never applied to them.
TEST_F(GovernedEngineTest, SimdAndNbpQueriesRunOnTheScheduler) {
  MorselScheduler scheduler(3);
  QueryGovernor governor(scheduler, {.max_concurrent = 2});
  Query q;
  q.agg = AggKind::kSum;
  q.agg_column = "a";
  auto expected = Engine().Execute(table_, q);
  ASSERT_TRUE(expected.ok());
  for (const bool simd : {true, false}) {
    obs::QueryStats qs;
    ExecOptions opts;
    opts.method = simd ? AggMethod::kBitParallel : AggMethod::kNonBitParallel;
    opts.simd = simd;
    opts.stats = &qs;
    opts.governor = &governor;
    Engine engine(opts);
    auto got = engine.Execute(table_, q);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->count, expected->count);
    EXPECT_TRUE(got->code_sum == expected->code_sum);
    EXPECT_GT(qs.sched_morsels_dispatched, 0u) << (simd ? "simd" : "nbp");
  }
}

TEST_F(GovernedEngineTest, NbpMedianHonoursScratchBudget) {
  MorselScheduler scheduler(0);
  // NBP MEDIAN buffers every passing value, twice over while selecting:
  // 120k rows need ~1.9 MB against a 64 KiB budget.
  QueryGovernor governor(scheduler, {.max_concurrent = 1,
                                     .max_queued = 0,
                                     .max_scratch_bytes = 64 << 10});
  ExecOptions opts;
  opts.method = AggMethod::kNonBitParallel;
  opts.governor = &governor;
  Engine engine(opts);
  Query q;
  q.agg = AggKind::kMedian;
  q.agg_column = "a";
  auto r = engine.Execute(table_, q);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(governor.active(), 0);
}

// ---------------------------------------------------------------------------
// Failpoints
// ---------------------------------------------------------------------------

class SchedFailpointTest : public GovernedEngineTest {
 protected:
  void SetUp() override {
    GovernedEngineTest::SetUp();
    if (!fail::Armed()) GTEST_SKIP() << "built without ICP_FAILPOINTS";
    fail::DisableAll();
  }
  void TearDown() override { fail::DisableAll(); }
};

TEST_F(SchedFailpointTest, AdmitShedsWithResourceExhausted) {
  MorselScheduler scheduler(0);
  QueryGovernor governor(scheduler, {.max_concurrent = 4});
  ExecOptions opts;
  opts.governor = &governor;
  Engine engine(opts);
  fail::EnableOneShot("sched/admit");
  auto shed = engine.Execute(table_, SumBelow(50));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  // One-shot: the next query is admitted and runs normally.
  auto ok = engine.Execute(table_, SumBelow(50));
  EXPECT_TRUE(ok.ok());
}

TEST_F(SchedFailpointTest, DroppedMorselSurfacesInternal) {
  MorselScheduler scheduler(0);
  QueryGovernor governor(scheduler, {.max_concurrent = 1});
  ExecOptions opts;
  opts.governor = &governor;
  Engine engine(opts);
  fail::EnableOneShot("sched/dequeue");
  auto r = engine.Execute(table_, SumBelow(50));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_EQ(governor.active(), 0);
  fail::DisableAll();
  auto ok = engine.Execute(table_, SumBelow(50));
  EXPECT_TRUE(ok.ok());
}

TEST_F(SchedFailpointTest, LostStealRaceIsBenign) {
  MorselScheduler scheduler(0);
  MorselStats stats;
  fail::EnableEveryNth("sched/steal", 2);
  scheduler.RunRegion(
      4, 16 * sched::kMorselSegments, nullptr,
      [](int, std::size_t, std::size_t) {}, &stats);
  fail::DisableAll();
  // Backed-off steals delay morsels but never lose them.
  EXPECT_EQ(stats.completed, 16u);
  EXPECT_FALSE(stats.dropped);
}

}  // namespace
}  // namespace icp
