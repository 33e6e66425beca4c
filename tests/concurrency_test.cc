// Concurrent readers: a Table is immutable after construction, so any
// number of Engines may query it from different threads simultaneously.
// The one mutable corner — the lazily built SIMD packing — packs once
// under a std::once_flag, raced by SimdEnginesPackOneFreshTableOnce.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/vbp_aggregate.h"
#include "engine/engine.h"
#include "util/random.h"

namespace icp {
namespace {

TEST(ConcurrencyTest, ParallelEnginesOnSharedTable) {
  Random rng(4242);
  const std::size_t n = 50000;
  std::vector<std::int64_t> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = static_cast<std::int64_t>(rng.UniformInt(0, 9999));
    b[i] = static_cast<std::int64_t>(rng.UniformInt(0, 99));
  }
  Table table;
  ASSERT_TRUE(table.AddColumn("a", a, {.layout = Layout::kVbp}).ok());
  ASSERT_TRUE(table.AddColumn("b", b, {.layout = Layout::kHbp}).ok());

  // Reference answers, one per thread's query.
  struct Case {
    std::int64_t threshold;
    double expected_sum;
    std::uint64_t expected_count;
  };
  std::vector<Case> cases;
  for (std::int64_t threshold : {10, 25, 40, 55, 70, 85}) {
    Case c{threshold, 0.0, 0};
    for (std::size_t i = 0; i < n; ++i) {
      if (b[i] < threshold) {
        c.expected_sum += static_cast<double>(a[i]);
        ++c.expected_count;
      }
    }
    cases.push_back(c);
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(cases.size());
  for (const Case& c : cases) {
    threads.emplace_back([&table, &failures, c] {
      // Each thread owns its Engine (Engines are not thread-safe; Tables
      // are).
      Engine engine(ExecOptions{.threads = 1, .simd = false});
      for (int round = 0; round < 20; ++round) {
        Query q;
        q.agg = AggKind::kSum;
        q.agg_column = "a";
        q.filter = FilterExpr::Compare("b", CompareOp::kLt, c.threshold);
        auto r = engine.Execute(table, q);
        if (!r.ok() || r->count != c.expected_count ||
            r->value != c.expected_sum) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrencyTest, ParallelAggregatorsOnSharedColumns) {
  Random rng(777);
  const std::size_t n = 100000;
  std::vector<std::uint64_t> codes(n);
  for (auto& c : codes) c = rng.UniformInt(0, LowMask(12));
  const VbpColumn column = VbpColumn::Pack(codes, 12);
  FilterBitVector filter(n, 64);
  filter.SetAll();

  const UInt128 expected = [&] {
    UInt128 s = 0;
    for (auto c : codes) s += c;
    return s;
  }();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        if (!(vbp::Sum(column, filter) == expected)) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// Regression: the lazy lanes=4 packings were built behind an
// unsynchronized `mutable bool`, so two simd=true engines racing on a
// fresh Table both packed (a data race TSan reports). Both threads now
// see one packing and the right answers; the TSan job runs this test.
TEST(ConcurrencyTest, SimdEnginesPackOneFreshTableOnce) {
  Random rng(9191);
  const std::size_t n = 40000;
  std::vector<std::int64_t> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = static_cast<std::int64_t>(rng.UniformInt(0, 9999));
    b[i] = static_cast<std::int64_t>(rng.UniformInt(0, 99));
  }
  Table table;
  ASSERT_TRUE(table.AddColumn("a", a, {.layout = Layout::kVbp}).ok());
  ASSERT_TRUE(table.AddColumn("b", b, {.layout = Layout::kHbp}).ok());
  Query q;
  q.agg = AggKind::kMax;
  q.agg_column = "a";
  q.filter = FilterExpr::Compare("b", CompareOp::kLt, 50);
  auto expected = Engine().Execute(table, q);
  ASSERT_TRUE(expected.ok());

  std::atomic<int> failures{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (const int engine_threads : {1, 2}) {
    threads.emplace_back([&, engine_threads] {
      Engine engine(ExecOptions{.threads = engine_threads, .simd = true});
      // Start gate, so both first vbp_simd() calls overlap.
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      auto r = engine.Execute(table, q);
      if (!r.ok() || r->decoded_value != expected->decoded_value) {
        ++failures;
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace icp
