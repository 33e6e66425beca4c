// The repo benchmark's binary. Run through perfbench/run.py, which
// builds it; see perfbench/README.md.
//
//   perfbench --workload tpch_serial|groupby_card --seed N
//             --seconds S --trace 0|1 [--rows-log2 K]
//             [--perturb-reference] [--out-dir DIR]
//
// Prints one metadata line, then the result line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when any statement failed or disagreed with its
// reference, 2 on a bad invocation or an unmeasurable configuration.

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "simd/dispatch.h"
#include "workloads.h"

namespace {

using perfbench::Clock;

struct HostProbe {
  double alu_ms = 0;
  double stream_ms = 0;
};

/// A fixed dependent-multiply loop and a fixed 32 MiB streaming read. The
/// first tracks the core's clock, the second the memory system; stored as
/// run metadata so a run in a slow host phase can be told apart from a
/// regression.
HostProbe ProbeHost() {
  HostProbe probe;
  auto start = Clock::now();
  std::uint64_t x = 1;
  for (int i = 0; i < 100'000'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  probe.alu_ms = perfbench::SecondsSince(start) * 1e3;
  std::vector<std::uint64_t> buffer((32u << 20) / sizeof(std::uint64_t), x);
  start = Clock::now();
  std::uint64_t sum = 0;
  for (int pass = 0; pass < 64; ++pass) {
    for (std::uint64_t v : buffer) sum += v;
  }
  probe.stream_ms = perfbench::SecondsSince(start) * 1e3;
  if (sum == 42) std::fprintf(stderr, "#");  // keeps the loops live
  return probe;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "tpch_serial|groupby_card --seed N --seconds S "
               "--trace 0|1 [--rows-log2 K] [--perturb-reference] "
               "[--out-dir DIR]\n",
               message);
  return 2;
}

void PrintMetrics(const perfbench::Metrics& metrics) {
  std::printf("\"metrics\": {");
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config cfg;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--perturb-reference") {
      cfg.perturb_reference = true;
    } else if (!has_value) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      cfg.workload = argv[++i];
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = true;
    } else if (arg == "--trace") {
      cfg.trace = std::strcmp(argv[++i], "1") == 0;
      have_trace = true;
    } else if (arg == "--rows-log2") {
      cfg.rows_log2 = std::atoi(argv[++i]);
    } else if (arg == "--out-dir") {
      cfg.out_dir = argv[++i];
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  using Fn = void (*)(const perfbench::Config&, perfbench::Tracer*, bool,
                      perfbench::Outcome&);
  const std::pair<const char*, Fn> workloads[] = {
      {"tpch_serial", perfbench::TpchSerial},
      {"groupby_card", perfbench::GroupByCard}};
  int index = -1;
  for (int w = 0; w < 2; ++w) {
    if (cfg.workload == workloads[w].first) index = w;
  }
  if (index < 0) return Usage("unknown --workload");
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  if (cfg.seconds <= 0 || cfg.rows_log2 < 10 || cfg.rows_log2 > 26) {
    return Usage("--seconds must be > 0 and --rows-log2 in [10, 26]");
  }

  // Parent and change must measure the same configuration.
  if (std::getenv("ICP_FORCE_KERNEL") != nullptr) {
    return Usage("ICP_FORCE_KERNEL is set; refusing to measure a forced tier");
  }
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  return Usage("built without optimisation; use a Release build");
#endif
  cfg.nproc = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  mkdir(cfg.out_dir.c_str(), 0755);

  const HostProbe before = ProbeHost();
  perfbench::Outcome outcome;
  std::unique_ptr<perfbench::Tracer> tracer;
  std::string trace_path;
  if (!cfg.trace) {
    workloads[index].second(cfg, nullptr, true, outcome);
  } else {
    tracer = std::make_unique<perfbench::Tracer>();
    for (int w = 0; w < 2; ++w) {
      workloads[w].second(cfg, tracer.get(), w == index, outcome);
    }
    perfbench::SqlGoverned(cfg, *tracer, outcome);
    trace_path = cfg.out_dir + "/trace_" + cfg.workload + ".json";
    if (!tracer->WriteChromeTrace(trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
      return 2;
    }
  }
  const HostProbe after = ProbeHost();

  std::string setup_times;
  for (double t : outcome.setup_times_s) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.4f", setup_times.empty() ? "" : ", ",
                  t);
    setup_times += buf;
  }

  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %d, "
      "\"kernel_tier\": \"%s\", \"compiler\": \"%s\", \"build_type\": "
      "\"%s\", \"rows\": %zu, \"setup_times_s\": [%s], \"seconds\": %g, "
      "\"measured_statements\": %zu, \"latency_p95_ms\": %.6g, "
      "\"trace_file\": \"%s\", "
      "\"host_probe\": {\"before\": {\"alu_ms\": %.3f, \"stream_ms\": %.3f},"
      " \"after\": {\"alu_ms\": %.3f, \"stream_ms\": %.3f}}}}\n",
      cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
      cfg.nproc, icp::kern::TierName(icp::kern::ActiveTier()),
      PERFBENCH_CXX_COMPILER, PERFBENCH_BUILD_TYPE, cfg.rows(),
      setup_times.c_str(), cfg.seconds, outcome.measured_statements,
      outcome.latency_p95_ms, trace_path.c_str(), before.alu_ms,
      before.stream_ms, after.alu_ms, after.stream_ms);
  const bool correct =
      outcome.tally.failed == 0 && outcome.tally.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.tally.attempted),
              static_cast<unsigned long long>(outcome.tally.failed));
  PrintMetrics(outcome.metrics);
  std::printf("}\n");
  return correct ? 0 : 1;
}
