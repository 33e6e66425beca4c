// tpch_serial: the nine Table II queries through Engine::ExecuteMulti with
// default ExecOptions (one thread, lanes=1 kernels), on one VBP and one
// HBP copy of the generated wide table. One client, closed loop; a round
// is the 18 statements.

#include <memory>

#include "encode/column_encoder.h"
#include "layout/hbp_column.h"
#include "layout/vbp_column.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "workloads.h"

namespace perfbench {
namespace {

using icp::Layout;
using icp::Table;

struct State {
  std::unique_ptr<icp::tpch::WideTableData> data;
  Table tables[2];  // VBP, HBP
  std::vector<icp::tpch::QuerySpec> queries;
  /// expected[q][a]: reference of aggregate a of query q.
  std::vector<std::vector<Expected>> expected;
};

const char* const kLayoutName[2] = {"vbp", "hbp"};

RawTable RawColumns(const icp::tpch::WideTableData& d) {
  const std::pair<const char*, const std::vector<std::int64_t>*> cols[] = {
      {"l_quantity", &d.quantity},       {"l_extendedprice", &d.extendedprice},
      {"l_discount", &d.discount},       {"l_tax", &d.tax},
      {"o_orderdate", &d.orderdate},     {"l_shipdate", &d.shipdate},
      {"l_receiptdate", &d.receiptdate}, {"l_returnflag", &d.returnflag},
      {"l_linestatus", &d.linestatus},   {"supp_nation", &d.supp_nation},
      {"cust_nation", &d.cust_nation},   {"part_green", &d.part_green},
      {"part_promo", &d.part_promo},     {"ps_supplycost", &d.supplycost},
      {"ps_availqty", &d.availqty},      {"disc_price", &d.disc_price},
      {"charge", &d.charge},             {"disc_revenue", &d.disc_revenue},
      {"promo_volume", &d.promo_volume}, {"amount", &d.amount},
      {"supp_value", &d.supp_value}};
  RawTable raw;
  for (const auto& [name, values] : cols) raw[name] = RawColumn{values};
  return raw;
}

void ComputeReferences(const Config& cfg, State& st) {
  const RawTable raw = RawColumns(*st.data);
  st.expected.clear();
  for (const auto& q : st.queries) {
    const auto pass = ReferenceFilter(raw, q.filter, st.data->num_rows());
    std::vector<Expected> per_agg;
    for (const auto& [kind, column] : q.aggregates) {
      per_agg.push_back(ReferenceAggregate(raw.at(column), kind, pass));
    }
    st.expected.push_back(std::move(per_agg));
  }
  if (cfg.perturb_reference) {
    st.expected.front().front() = Perturbed(st.expected.front().front());
  }
}

/// One set-up: generate, then build the VBP and HBP tables. Returns its
/// wall time, excluding the reference computation (done on the first
/// set-up only).
double SetupOnce(const Config& cfg, Tracer* tracer, State& st) {
  const auto start = Clock::now();
  {
    ScopedSpan span(tracer, "tpch.generate");
    st.data = std::make_unique<icp::tpch::WideTableData>(
        icp::tpch::GenerateWideTable({.num_rows = cfg.rows(),
                                      .seed = cfg.seed}));
  }
  double reference_s = 0.0;
  if (st.expected.empty()) {
    const auto ref_start = Clock::now();
    st.queries = icp::tpch::MakeQueries();
    ComputeReferences(cfg, st);
    reference_s = SecondsSince(ref_start);
  }
  for (int l = 0; l < 2; ++l) {
    ScopedSpan span(tracer, std::string("table.build.") + kLayoutName[l]);
    auto table = icp::tpch::BuildTable(
        *st.data, l == 0 ? Layout::kVbp : Layout::kHbp);
    ICP_CHECK(table.ok());
    st.tables[l] = std::move(table).value();
  }
  return SecondsSince(start) - reference_s;
}

bool CheckMulti(const icp::StatusOr<std::vector<icp::QueryResult>>& got,
                const std::vector<Expected>& want) {
  if (!got.ok() || got->size() != want.size()) return false;
  for (std::size_t a = 0; a < want.size(); ++a) {
    if (!Matches((*got)[a], want[a])) return false;
  }
  return true;
}

/// Closed-loop phase: whole rounds of the 18 statements until `seconds`
/// have passed. A traced phase wraps each statement in a span.
PhaseResult MeasuredPhase(State& st, double seconds, Tracer* tracer,
                          std::uint64_t& stmt_id) {
  icp::Engine engine;
  PhaseResult phase;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  do {
    for (int l = 0; l < 2; ++l) {
      const std::string suffix = std::string(".") + kLayoutName[l];
      for (std::size_t q = 0; q < st.queries.size(); ++q) {
        const icp::MultiQuery mq{st.queries[q].aggregates,
                                 st.queries[q].filter};
        ScopedSpan span(tracer, "tpch.statement", ++stmt_id);
        auto got =
            phase.Time([&] { return engine.ExecuteMulti(st.tables[l], mq); });
        phase.tally.Record(CheckMulti(got, st.expected[q]),
                           st.queries[q].id + suffix);
      }
    }
  } while (Clock::now() < deadline);
  phase.wall_s = SecondsSince(start);
  return phase;
}

/// One untimed round so the first measured statement finds warm caches.
void WarmUp(State& st, Tally& tally) {
  std::uint64_t unused = 0;
  tally.Add(MeasuredPhase(st, 0.0, nullptr, unused).tally);
}

/// Standalone encode + lanes=1 pack of every raw column, the pieces
/// Table::AddColumn runs internally.
void EncodeAndPackLayers(const State& st, Tracer& tracer, Outcome& out) {
  const RawTable raw = RawColumns(*st.data);
  std::size_t values = 0;
  for (const auto& [name, col] : raw) {
    std::vector<std::uint64_t> codes;
    int k = 0;
    {
      ScopedSpan span(&tracer, "encode.column");
      const bool dict = name == "l_returnflag" || name == "l_linestatus";
      const auto encoder =
          dict ? icp::ColumnEncoder::ForDictionary(*col.values)
               : icp::ColumnEncoder::FitRange(*col.values);
      codes = encoder.EncodeAll(*col.values);
      k = encoder.bit_width();
    }
    {
      ScopedSpan span(&tracer, "layout.pack.vbp");
      const auto packed = icp::VbpColumn::Pack(codes, k);
    }
    {
      ScopedSpan span(&tracer, "layout.pack.hbp");
      const auto packed = icp::HbpColumn::Pack(codes, k);
    }
    values += codes.size();
  }
  const auto self = tracer.SelfTimes();
  const double n = static_cast<double>(values);
  out.metrics["encode.ns_per_value"] = {self.at("encode.column").first / n,
                                        "ns/value"};
  for (const char* l : kLayoutName) {
    const std::string layer = std::string("layout.pack.") + l;
    out.metrics[std::string("layout.pack_ns_per_value.") + l] = {
        self.at(layer).first / n, "ns/value"};
  }
}

/// Each statement once through ExecuteMulti and once decomposed into
/// EvaluateFilter + one Aggregate per aggregate, three rounds.
void StatementLayers(State& st, Tracer& tracer, std::uint64_t& stmt_id,
                     Outcome& out) {
  constexpr int kRounds = 3;
  const std::size_t rows = st.tables[0].num_rows();
  icp::obs::QueryStats qs;
  icp::ExecOptions options;
  options.stats = &qs;
  icp::Engine engine(options);
  std::uint64_t early_stopped = 0, segments = 0, passing = 0, total = 0;
  std::uint64_t statements = 0;
  for (int r = 0; r < kRounds; ++r) {
    for (int l = 0; l < 2; ++l) {
      const std::string suffix = std::string(".") + kLayoutName[l];
      const Table& table = st.tables[l];
      for (std::size_t q = 0; q < st.queries.size(); ++q) {
        const auto& spec = st.queries[q];
        ScopedSpan stmt(&tracer, "tpch.statement", ++stmt_id);
        ++statements;
        {
          ScopedSpan span(&tracer, "engine.execute_multi" + suffix);
          auto got =
              engine.ExecuteMulti(table, {spec.aggregates, spec.filter});
          out.tally.Record(CheckMulti(got, st.expected[q]), spec.id + suffix);
        }
        early_stopped += qs.segments_early_stopped;
        segments += qs.segments_scanned;
        passing += qs.rows_passing;
        total += qs.rows_total;
        ScopedSpan decomposed(&tracer, "tpch.decomposed");
        // A filter bit vector is shaped for one segment size; HBP columns
        // of different widths need their own, so scan once per shape.
        std::map<int, icp::FilterBitVector> filters;
        for (std::size_t a = 0; a < spec.aggregates.size(); ++a) {
          const std::string& column = spec.aggregates[a].second;
          const int shape = (*table.GetColumn(column))->values_per_segment();
          if (!filters.count(shape)) {
            ScopedSpan span(&tracer, "scan.evaluate_filter" + suffix);
            auto filter = engine.EvaluateFilter(table, spec.filter, column);
            if (!filter.ok()) {
              out.tally.Record(false, spec.id + suffix + " EvaluateFilter");
              break;
            }
            filters.emplace(shape, std::move(filter).value());
          }
          ScopedSpan span(&tracer, "agg.aggregate" + suffix);
          auto got = engine.Aggregate(table, spec.aggregates[a].first, column,
                                      filters.at(shape));
          out.tally.Record(got.ok() && Matches(*got, st.expected[q][a]),
                           spec.id + suffix + " " + column);
        }
      }
    }
  }
  const auto self = tracer.SelfTimes();
  double execute_ns = 0.0, decomposed_ns = 0.0, agg_ns = 0.0;
  for (const char* l : kLayoutName) {
    const std::string suffix = std::string(".") + l;
    const auto& scan = self.at("scan.evaluate_filter" + suffix);
    const auto& agg = self.at("agg.aggregate" + suffix);
    out.metrics["scan.ns_per_row" + suffix] = {
        scan.first / static_cast<double>(scan.second * rows), "ns/row"};
    out.metrics["agg.ns_per_row" + suffix] = {
        agg.first / static_cast<double>(agg.second * rows), "ns/row"};
    execute_ns += tracer.TotalNs("engine.execute_multi" + suffix);
    decomposed_ns += scan.first + agg.first;
    agg_ns += agg.first;
  }
  out.metrics["agg.share"] = {agg_ns / execute_ns, "ratio"};
  out.metrics["engine.glue_ms"] = {
      (execute_ns - decomposed_ns) / static_cast<double>(statements) / 1e6,
      "ms"};
  out.metrics["scan.early_stop_ratio"] = {
      static_cast<double>(early_stopped) / static_cast<double>(segments),
      "ratio"};
  out.metrics["scan.selectivity"] = {
      static_cast<double>(passing) / static_cast<double>(total), "ratio"};
}

}  // namespace

void TpchSerial(const Config& cfg, Tracer* tracer, bool measure,
                Outcome& out) {
  State st;
  const std::size_t rss_start = ResidentBytes();
  if (tracer == nullptr) {
    // The heap is trimmed before each set-up, so every set-up faults its
    // pages in afresh, as a restarted process would.
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
      st.tables[0] = Table();
      st.tables[1] = Table();
      TrimHeap();
      setups.push_back(SetupOnce(cfg, nullptr, st));
      st.data.reset();
    }
    TrimHeap();
    const double rss_per_row =
        static_cast<double>(ResidentBytes() - rss_start) /
        static_cast<double>(cfg.rows());
    WarmUp(st, out.tally);
    std::uint64_t stmt_id = 0;
    const PhaseResult phase = MeasuredPhase(st, cfg.seconds, nullptr, stmt_id);
    out.tally.Add(phase.tally);
    AddEndToEnd(phase, setups, rss_per_row, out);
    return;
  }

  SetupOnce(cfg, tracer, st);
  const auto self = tracer->SelfTimes();
  out.metrics["tpch.generate_s"] = {self.at("tpch.generate").first / 1e9, "s"};
  for (int l = 0; l < 2; ++l) {
    const std::string suffix = std::string(".") + kLayoutName[l];
    out.metrics["table.build_s" + suffix] = {
        self.at("table.build" + suffix).first / 1e9, "s"};
    std::size_t bytes = 0;
    for (const auto& name : st.tables[l].column_names()) {
      bytes += (*st.tables[l].GetColumn(name))->MemoryBytes();
    }
    out.metrics["layout.packed_bytes_per_row" + suffix] = {
        static_cast<double>(bytes) / static_cast<double>(cfg.rows()),
        "B/row"};
  }
  EncodeAndPackLayers(st, *tracer, out);
  st.data.reset();
  std::uint64_t stmt_id = 0;
  StatementLayers(st, *tracer, stmt_id, out);
  if (measure) {
    WarmUp(st, out.tally);
    const PhaseResult plain =
        MeasuredPhase(st, cfg.seconds / 2, nullptr, stmt_id);
    const PhaseResult traced =
        MeasuredPhase(st, cfg.seconds / 2, tracer, stmt_id);
    out.tally.Add(plain.tally);
    out.tally.Add(traced.tally);
    out.metrics["trace.overhead"] = {traced.Qps() / plain.Qps(), "ratio"};
  }
}

}  // namespace perfbench
