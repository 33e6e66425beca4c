// sql_governed: sql_shell's serving configuration, run by every traced
// run for the parse, admission, scheduler and lanes=4 layers. nproc
// client threads each parse SQL text with ParseStatement and run it
// through Engine::Execute with {threads = nproc, simd = true, governor};
// all clients share one MorselScheduler(nproc - 1) and one QueryGovernor
// that admits nproc / 2 queries at a time and queues the rest. Closed
// loop: a client sends its next statement when the previous one returns.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "engine/query_parser.h"
#include "sched/admission.h"
#include "sched/scheduler.h"
#include "util/dates.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

using icp::AggKind;
using icp::FilterExpr;
using icp::Layout;
using icp::Table;

constexpr std::int64_t kMinDistance = 200, kMaxDistance = 30000;
constexpr std::int64_t kDays = 181;
const std::int64_t kFirstDay = icp::DaysFromCivil(2024, 1, 1);

struct RawTrips {
  std::vector<std::int64_t> distance, fare, tip, passengers, pickup_day;
  std::vector<bool> tip_known;

  RawTable Columns() const {
    return {{"distance", {&distance}},
            {"fare", {&fare}},
            {"tip", {&tip, &tip_known}},
            {"passengers", {&passengers}},
            {"pickup_day", {&pickup_day}}};
  }
};

/// The trips table of sql_shell, generated from the run's seed.
RawTrips GenerateTrips(std::size_t n, std::uint64_t seed) {
  icp::Random rng(seed);
  RawTrips t;
  t.distance.resize(n);
  t.fare.resize(n);
  t.tip.resize(n);
  t.passengers.resize(n);
  t.pickup_day.resize(n);
  t.tip_known.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    t.distance[i] =
        static_cast<std::int64_t>(rng.UniformInt(kMinDistance, kMaxDistance));
    t.fare[i] = 250 + t.distance[i] / 8 +
                static_cast<std::int64_t>(rng.UniformInt(0, 500));
    t.tip_known[i] = !rng.Bernoulli(0.35);  // cash tips unrecorded -> NULL
    t.tip[i] = t.tip_known[i]
                   ? static_cast<std::int64_t>(rng.UniformInt(0, 2000))
                   : 0;
    t.passengers[i] = static_cast<std::int64_t>(rng.UniformInt(1, 6));
    t.pickup_day[i] =
        kFirstDay + static_cast<std::int64_t>(rng.UniformInt(0, kDays - 1));
  }
  return t;
}

std::string DateLiteral(std::int64_t days) {
  // Civil-from-days (proleptic Gregorian), the inverse of DaysFromCivil.
  days += 719468;
  const std::int64_t era = (days >= 0 ? days : days - 146096) / 146097;
  const std::int64_t doe = days - era * 146097;
  const std::int64_t yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const std::int64_t mp = (5 * doy + 2) / 153;
  const std::int64_t d = doy - (153 * mp + 2) / 5 + 1;
  const std::int64_t m = mp < 10 ? mp + 3 : mp - 9;
  const std::int64_t y = yoe + era * 400 + (m <= 2 ? 1 : 0);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "'%04d-%02d-%02d'", static_cast<int>(y),
                static_cast<int>(m), static_cast<int>(d));
  return buf;
}

struct SqlStatement {
  std::string sql;
  AggKind kind;
  std::string column;
  icp::FilterExprPtr filter;  // what `sql` means, for the reference
};

/// A range [lo, hi] covering `share` of [min, max], at a seeded offset.
std::pair<std::int64_t, std::int64_t> Range(icp::Random& rng, std::int64_t min,
                                            std::int64_t max, double share) {
  const auto width = static_cast<std::int64_t>(
      std::max(0.0, share * static_cast<double>(max - min + 1) - 1.0));
  const std::int64_t lo = min + static_cast<std::int64_t>(rng.UniformInt(
                                    0, static_cast<std::uint64_t>(
                                           max - min - width)));
  return {lo, lo + width};
}

/// Six templates (SUM/AVG/MIN/MAX/COUNT/MEDIAN over BETWEEN, IN,
/// IS NOT NULL and NOT) at four target selectivities. The seed moves the
/// ranges, never their widths, so every seed sees the same mix of work.
std::vector<SqlStatement> MakeStatements(std::uint64_t seed) {
  icp::Random rng(seed ^ 0x5eedULL);
  std::vector<SqlStatement> out;
  for (double s : {0.01, 0.1, 0.5, 0.9}) {
    const auto distance = [&](double share) {
      const auto [lo, hi] = Range(rng, kMinDistance, kMaxDistance, share);
      return std::make_pair(
          "distance BETWEEN " + std::to_string(lo) + " AND " +
              std::to_string(hi),
          FilterExpr::Between("distance", lo, hi));
    };
    const auto days = [&](double share) {
      const auto [lo, hi] =
          Range(rng, kFirstDay, kFirstDay + kDays - 1, share);
      return std::make_pair("pickup_day BETWEEN " + DateLiteral(lo) +
                                " AND " + DateLiteral(hi),
                            FilterExpr::Between("pickup_day", lo, hi));
    };
    const auto not_null = FilterExpr::IsNotNull("tip");
    {
      auto [text, expr] = distance(s);
      out.push_back({"SELECT SUM(fare) WHERE " + text, AggKind::kSum, "fare",
                     expr});
    }
    {
      auto [text, expr] = days(s);
      out.push_back({"SELECT AVG(tip) WHERE " + text + " AND tip IS NOT NULL",
                     AggKind::kAvg, "tip", FilterExpr::And({expr, not_null})});
    }
    {
      auto [text, expr] = distance(1.0 - s);
      out.push_back({"SELECT MIN(fare) WHERE NOT (" + text + ")",
                     AggKind::kMin, "fare", FilterExpr::Not(expr)});
    }
    {
      // passengers is uniform over 1..6: m values keep m/6 of the rows.
      const int m = std::clamp(static_cast<int>(std::ceil(6 * s)), 1, 6);
      std::vector<std::int64_t> values;
      std::string list;
      const int first = static_cast<int>(rng.UniformInt(0, 5));
      for (int i = 0; i < m; ++i) {
        values.push_back(1 + (first + i) % 6);
        list += (i ? ", " : "") + std::to_string(values.back());
      }
      auto [text, expr] = distance(std::min(1.0, s * 6.0 / m));
      out.push_back({"SELECT MAX(tip) WHERE passengers IN (" + list +
                         ") AND " + text,
                     AggKind::kMax, "tip",
                     FilterExpr::And({FilterExpr::In("passengers", values),
                                      expr})});
    }
    {
      auto [text, expr] = days(s);
      out.push_back({"SELECT COUNT(tip) WHERE " + text, AggKind::kCount,
                     "tip", expr});
    }
    {
      auto [text, expr] = distance(s);
      out.push_back({"SELECT MEDIAN(fare) WHERE " + text +
                         " AND tip IS NOT NULL",
                     AggKind::kMedian, "fare",
                     FilterExpr::And({expr, not_null})});
    }
  }
  return out;
}

struct State {
  Table table;
  std::vector<SqlStatement> statements;
  std::vector<Expected> expected;
  std::unique_ptr<icp::sched::MorselScheduler> scheduler;
  std::unique_ptr<icp::sched::QueryGovernor> governor;
};

/// Set-up: generate, compute the references, build the table, warm
/// every column's lanes=4 packing from this thread, start the scheduler
/// and the governor.
void Setup(const Config& cfg, Tracer& tracer, State& st) {
  RawTrips raw;
  {
    ScopedSpan span(&tracer, "sql.generate");
    raw = GenerateTrips(cfg.rows(), cfg.seed);
  }
  st.statements = MakeStatements(cfg.seed);
  const RawTable columns = raw.Columns();
  for (const auto& s : st.statements) {
    st.expected.push_back(
        ReferenceAggregate(columns.at(s.column), s.kind,
                           ReferenceFilter(columns, s.filter, cfg.rows())));
  }
  if (cfg.perturb_reference) {
    st.expected.front() = Perturbed(st.expected.front());
  }
  {
    ScopedSpan span(&tracer, "sql.build");
    Table& t = st.table;
    ICP_CHECK(t.AddColumn("distance", raw.distance, {}).ok());
    ICP_CHECK(t.AddColumn("fare", raw.fare, {.layout = Layout::kHbp}).ok());
    ICP_CHECK(t.AddNullableColumn("tip", raw.tip, raw.tip_known, {}).ok());
    ICP_CHECK(t.AddColumn("passengers", raw.passengers,
                          {.layout = Layout::kHbp, .dictionary = true})
                  .ok());
    ICP_CHECK(t.AddColumn("pickup_day", raw.pickup_day, {}).ok());
  }
  for (const auto& name : st.table.column_names()) {
    const Table::Column& col = **st.table.GetColumn(name);
    if (col.spec().layout == Layout::kVbp) {
      ScopedSpan span(&tracer, "layout.pack4.vbp");
      (void)col.vbp_simd();
    } else {
      ScopedSpan span(&tracer, "layout.pack4.hbp");
      (void)col.hbp_simd();
    }
  }
  st.scheduler =
      std::make_unique<icp::sched::MorselScheduler>(cfg.nproc - 1);
  st.governor = std::make_unique<icp::sched::QueryGovernor>(
      *st.scheduler,
      icp::sched::AdmissionOptions{
          .max_concurrent = std::max(1, cfg.nproc / 2),
          .max_queued = 2 * cfg.nproc});
}

/// Per-statement QueryStats fields the layer metrics use.
struct StatSample {
  std::uint64_t admit_queued_cycles, scan_cycles, agg_cycles, steals;
  int granted_parallelism;
};

struct SqlPhase {
  PhaseResult phase;
  std::vector<StatSample> samples;
};

SqlPhase MeasuredPhase(const Config& cfg, State& st, double seconds,
                       Tracer& tracer, std::atomic<std::uint64_t>& stmt_id) {
  const int clients = cfg.nproc;
  const std::size_t pool = st.statements.size();
  std::vector<SqlPhase> per_client(clients);
  std::atomic<bool> go{false};
  Clock::time_point start, deadline;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      icp::obs::QueryStats qs;
      icp::ExecOptions options;
      options.threads = cfg.nproc;
      options.simd = true;
      options.stats = &qs;
      options.governor = st.governor.get();
      icp::Engine engine(options);
      SqlPhase& mine = per_client[c];
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      // Clients start spread over the pool and walk it in order, so every
      // statement runs equally often.
      for (std::size_t i = c * pool / clients; Clock::now() < deadline; ++i) {
        const std::size_t s = i % pool;
        ScopedSpan span(&tracer, "sql.statement",
                        stmt_id.fetch_add(1, std::memory_order_relaxed) + 1);
        const auto t0 = Clock::now();
        icp::StatusOr<icp::Statement> parsed = icp::Status::Internal("unset");
        {
          ScopedSpan parse(&tracer, "parse.statement");
          parsed = icp::ParseStatement(st.statements[s].sql);
        }
        icp::StatusOr<icp::QueryResult> got = icp::Status::Internal("unset");
        if (parsed.ok()) {
          ScopedSpan execute(&tracer, "engine.execute.simd");
          got = engine.Execute(st.table, parsed->query);
        }
        mine.phase.latencies_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count());
        const bool ok = got.ok() && Matches(*got, st.expected[s]);
        mine.phase.tally.Record(
            ok, st.statements[s].sql + " -> " + got.status().ToString());
        if (got.ok()) {
          mine.samples.push_back({qs.admit_queued_cycles, qs.scan_cycles,
                                  qs.agg_cycles, qs.sched_steals,
                                  qs.granted_parallelism});
        }
      }
    });
  }
  start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  SqlPhase all;
  all.phase.wall_s = SecondsSince(start);
  for (auto& c : per_client) {
    all.phase.latencies_ms.insert(all.phase.latencies_ms.end(),
                                  c.phase.latencies_ms.begin(),
                                  c.phase.latencies_ms.end());
    all.phase.tally.Add(c.phase.tally);
    all.samples.insert(all.samples.end(), c.samples.begin(),
                       c.samples.end());
  }
  return all;
}

void Layers(const SqlPhase& traced, Tracer& tracer, std::size_t rows,
            Outcome& out) {
  const double cycles_per_ns = MeasureCyclesPerNs();
  const auto ms = [&](std::uint64_t cycles) {
    return static_cast<double>(cycles) / cycles_per_ns / 1e6;
  };
  std::vector<double> wait_ms;
  double scan_ms = 0, agg_ms = 0, granted = 0, steals = 0;
  for (const StatSample& s : traced.samples) {
    wait_ms.push_back(ms(s.admit_queued_cycles));
    scan_ms += ms(s.scan_cycles);
    agg_ms += ms(s.agg_cycles);
    granted += s.granted_parallelism;
    steals += static_cast<double>(s.steals);
  }
  const double n = static_cast<double>(traced.samples.size());
  const auto self = tracer.SelfTimes();
  const auto& parse = self.at("parse.statement");
  out.metrics["parse.us_per_stmt"] = {
      parse.first / static_cast<double>(parse.second) / 1e3, "us"};
  out.metrics["admission.wait_ms.p50"] = {Quantile(wait_ms, 0.5), "ms"};
  out.metrics["admission.wait_ms.p95"] = {Quantile(wait_ms, 0.95), "ms"};
  out.metrics["sched.granted_parallelism"] = {granted / n, "slots"};
  out.metrics["sched.steals_per_stmt"] = {steals / n, "count"};
  out.metrics["scan.ms_per_stmt.simd"] = {scan_ms / n, "ms"};
  out.metrics["agg.ms_per_stmt.simd"] = {agg_ms / n, "ms"};
  for (const char* l : {"vbp", "hbp"}) {
    const auto& pack = self.at(std::string("layout.pack4.") + l);
    out.metrics[std::string("layout.pack4_ns_per_value.") + l] = {
        pack.first / (static_cast<double>(pack.second * rows)), "ns/value"};
  }
}

}  // namespace

void SqlGoverned(const Config& cfg, Tracer& tracer, Outcome& out) {
  State st;
  std::atomic<std::uint64_t> stmt_id{0};
  Setup(cfg, tracer, st);
  const SqlPhase traced = MeasuredPhase(cfg, st, std::min(2.0, cfg.seconds),
                                        tracer, stmt_id);
  out.tally.Add(traced.phase.tally);
  Layers(traced, tracer, cfg.rows(), out);
}

}  // namespace perfbench
