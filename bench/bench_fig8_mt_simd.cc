// Figure 8 reproduction: speed-up of the bit-parallel algorithms from
// multi-threading (4 workers), SIMD (AVX2, 256-bit), and both combined,
// relative to the single-threaded scalar BP implementation.
//
// Paper shape (quad-core i7-4770): MT alone 2.1x-3.8x, SIMD alone up to
// 3.2x with HBP gaining more than VBP (no 256-bit POPCNT in AVX2), combined
// 2.2x-8.4x. NOTE: on a single-core host the MT bars are expected to be
// ~1x — the harness prints the detected hardware concurrency so the reader
// can interpret the bars (see EXPERIMENTS.md).
//
// The engine no longer has a "no SIMD" path: every Table column is packed
// once in the lanes=4 form and every query runs the 256-bit drivers. The
// base and MT bars therefore pack their own lanes=1 columns and call the
// lanes=1 kernels (vbp::/hbp:: and par::) directly; they measure those
// kernels, not anything a query can reach.

// The harness also measures the morsel scheduler's own cost: the par::
// drivers on a 0-worker scheduler session (parallelism 1, every morsel
// on the calling thread) against the serial kernels (the base bars),
// printing machine-greppable `sched_overhead_pct <layout> <agg> <pct>`
// lines; CI's stress job asserts the SUM overhead stays within budget.

#include <cstdio>
#include <memory>
#include <thread>

#include "bench_util.h"
#include "parallel/parallel_aggregate.h"
#include "sched/admission.h"
#include "sched/scheduler.h"
#include "simd/simd_parallel.h"

namespace icp::bench {
namespace {

constexpr int kValueWidth = 25;
constexpr double kSelectivity = 0.1;
constexpr int kThreads = 4;  // the paper pins 4 threads to 4 cores

// One admitted query on a private scheduler with `threads` - 1 workers
// plus the calling thread. Admission happens once, outside every timed
// region.
struct Session {
  explicit Session(int threads)
      : scheduler(threads - 1),
        governor(scheduler, {.max_concurrent = 1,
                             .max_queued = 0,
                             .max_parallelism = threads}) {
    auto admitted = governor.Admit(CancellationToken(), std::nullopt);
    ICP_CHECK(admitted.ok());
    session = std::move(admitted).value();
  }

  sched::MorselScheduler scheduler;
  sched::QueryGovernor governor;
  std::unique_ptr<sched::QuerySession> session;
};

// One Fig. 8 aggregate through one driver family, folded to a value the
// optimizer must keep.
template <typename Sum, typename Min, typename Median>
std::uint64_t RunAgg(BenchAgg agg, Sum sum, Min min, Median median) {
  switch (agg) {
    case BenchAgg::kSum:
      return static_cast<std::uint64_t>(sum());
    case BenchAgg::kMin:
      return min().value_or(0);
    default:
      return median().value_or(0);
  }
}

// Cycles per tuple of one aggregate: the serial kernels when `ex` is
// null, the par:: / simd:: drivers on `ex` otherwise; `simd` picks the
// lanes=4 packing.
double Measure(const Workload& w, ParallelExecutor* ex, Layout layout,
               BenchAgg agg, bool simd, int reps) {
  const FilterBitVector& fv = w.filter_vbp;
  const FilterBitVector& fh = w.filter_hbp;
  auto run = [&] {
    std::uint64_t r = 0;
    if (layout == Layout::kVbp) {
      const VbpColumn& c = simd ? w.vbp_simd : w.vbp;
      if (ex == nullptr && !simd) {
        r = RunAgg(
            agg, [&] { return vbp::Sum(c, fv); },
            [&] { return vbp::Min(c, fv); },
            [&] { return vbp::Median(c, fv); });
      } else if (ex == nullptr) {
        r = RunAgg(
            agg, [&] { return simd::SumVbp(c, fv); },
            [&] { return simd::MinVbp(c, fv); },
            [&] { return simd::MedianVbp(c, fv); });
      } else if (!simd) {
        r = RunAgg(
            agg, [&] { return par::Sum(*ex, c, fv); },
            [&] { return par::Min(*ex, c, fv); },
            [&] { return par::Median(*ex, c, fv); });
      } else {
        r = RunAgg(
            agg, [&] { return simd::SumVbp(*ex, c, fv); },
            [&] { return simd::MinVbp(*ex, c, fv); },
            [&] { return simd::MedianVbp(*ex, c, fv); });
      }
    } else {
      const HbpColumn& c = simd ? w.hbp_simd : w.hbp;
      if (ex == nullptr && !simd) {
        r = RunAgg(
            agg, [&] { return hbp::Sum(c, fh); },
            [&] { return hbp::Min(c, fh); },
            [&] { return hbp::Median(c, fh); });
      } else if (ex == nullptr) {
        r = RunAgg(
            agg, [&] { return simd::SumHbp(c, fh); },
            [&] { return simd::MinHbp(c, fh); },
            [&] { return simd::MedianHbp(c, fh); });
      } else if (!simd) {
        r = RunAgg(
            agg, [&] { return par::Sum(*ex, c, fh); },
            [&] { return par::Min(*ex, c, fh); },
            [&] { return par::Median(*ex, c, fh); });
      } else {
        r = RunAgg(
            agg, [&] { return simd::SumHbp(*ex, c, fh); },
            [&] { return simd::MinHbp(*ex, c, fh); },
            [&] { return simd::MedianHbp(*ex, c, fh); });
      }
    }
    DoNotOptimize(r);
  };
  return CyclesPerTuple(w.n, reps, run);
}

void Run() {
  const std::size_t n = TupleCount();
  const int reps = Repetitions();
  PrintHeader(
      "Figure 8: speed-up of BP aggregation from multi-threading and SIMD",
      n, reps);
  std::printf("AVX2 build: %s; hardware threads on this host: %u; MT "
              "session slots: %d\n",
              kHaveAvx2 ? "yes" : "no (portable 4x64 fallback)",
              std::thread::hardware_concurrency(), kThreads);

  Session mt(kThreads);
  Session morsel1(1);  // 0 workers: the morsel path at parallelism 1
  ParallelExecutor* mt_ex = mt.session.get();
  ParallelExecutor* one_ex = morsel1.session.get();

  std::printf("\n%-4s %-8s %10s %10s %10s %10s %10s  %8s %8s %8s\n", "lay",
              "agg", "base c/t", "MT c/t", "SIMD c/t", "both c/t",
              "morsel1 c/t", "MT x", "SIMD x", "both x");
  double overhead_pct[2][3] = {};
  for (int l = 0; l < 2; ++l) {
    const Layout layout = l == 0 ? Layout::kVbp : Layout::kHbp;
    for (int a = 0; a < 3; ++a) {
      const BenchAgg agg = static_cast<BenchAgg>(a);
      const Workload w =
          MakeWorkload(n, kValueWidth, kSelectivity, 4000 + l * 3 + a,
                       /*build_simd=*/true);
      const double base = Measure(w, nullptr, layout, agg, false, reps);
      const double mt_ct = Measure(w, mt_ex, layout, agg, false, reps);
      const double sd = Measure(w, nullptr, layout, agg, true, reps);
      const double both = Measure(w, mt_ex, layout, agg, true, reps);
      const double morsel = Measure(w, one_ex, layout, agg, false, reps);
      overhead_pct[l][a] = (morsel / base - 1.0) * 100.0;
      std::printf("%-4s %-8s %10.3f %10.3f %10.3f %10.3f %10.3f  %7.2fx "
                  "%7.2fx %7.2fx\n",
                  l == 0 ? "VBP" : "HBP", BenchAggName(agg), base, mt_ct, sd,
                  both, morsel, base / mt_ct, base / sd, base / both);
    }
  }

  // Machine-greppable: the morsel path at parallelism 1 vs the serial
  // kernel on the same single query (negative = morsels were faster this
  // run).
  std::printf("\n");
  for (int l = 0; l < 2; ++l) {
    for (int a = 0; a < 3; ++a) {
      std::printf("sched_overhead_pct %s %s %.2f\n", l == 0 ? "VBP" : "HBP",
                  BenchAggName(static_cast<BenchAgg>(a)),
                  overhead_pct[l][a]);
    }
  }
}

}  // namespace
}  // namespace icp::bench

int main() {
  icp::bench::Run();
  return 0;
}
