// groupby_card: SUM(v) WHERE v < 50 GROUP BY dictionary columns of 2^4,
// 2^12 and 2^18 codes (each stored once as VBP and once as HBP), plus
// MEDIAN(v) GROUP BY the 2^4 column, through Engine::ExecuteGroupBy with
// no governor. One client, closed loop; a round is the seven statements.
// Set-up loads the table with io::ReadTable from a file an untimed
// preparation step wrote.

#include <algorithm>
#include <cstdio>
#include <unistd.h>

#include "io/table_io.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

using icp::AggKind;
using icp::Layout;
using icp::Table;

constexpr int kGroupBits[3] = {4, 12, 18};
constexpr std::int64_t kMaxV = 99;
constexpr std::int64_t kFilterBelow = 50;  // v < 50 keeps about half

std::string GroupColumn(int g, Layout layout) {
  static const char* const kNames[3][2] = {
      {"g4_vbp", "g4_hbp"}, {"g12_vbp", "g12_hbp"}, {"g18_vbp", "g18_hbp"}};
  return kNames[g][layout == Layout::kVbp ? 0 : 1];
}

/// The dictionary value of group code c (distinct and ordered like c).
std::int64_t GroupValue(std::uint64_t c) {
  return 1000 + 3 * static_cast<std::int64_t>(c);
}

using GroupResult = std::vector<std::pair<std::int64_t, Expected>>;

struct Statement {
  AggKind kind;
  int group;  // index into kGroupBits
  Layout layout;
  const char* layer;  // span name of the strategy it exercises
  std::string column() const { return GroupColumn(group, layout); }
  std::string Describe() const {
    return std::string(icp::AggKindToString(kind)) +
           "(v) WHERE v < 50 GROUP BY " + column();
  }
};

const std::vector<Statement>& Statements() {
  static const std::vector<Statement> kStatements = {
      {AggKind::kSum, 0, Layout::kVbp, "groupby.direct"},
      {AggKind::kSum, 0, Layout::kHbp, "groupby.direct"},
      {AggKind::kSum, 1, Layout::kVbp, "groupby.direct"},
      {AggKind::kSum, 1, Layout::kHbp, "groupby.direct"},
      {AggKind::kSum, 2, Layout::kVbp, "groupby.spill"},
      {AggKind::kSum, 2, Layout::kHbp, "groupby.spill"},
      {AggKind::kMedian, 0, Layout::kVbp, "groupby.naive"},
  };
  return kStatements;
}

struct State {
  std::string path;
  Table table;
  icp::FilterExprPtr filter =
      icp::FilterExpr::Compare("v", icp::CompareOp::kLt, kFilterBelow);
  /// expected[s]: per-group reference of statement s.
  std::vector<GroupResult> expected;
};

/// Untimed preparation: generate the columns, compute the references,
/// build the table and write it where set-up will read it.
void Prepare(const Config& cfg, Tracer* tracer, State& st, Outcome& out) {
  const std::size_t n = cfg.rows();
  icp::Random rng(cfg.seed);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = static_cast<std::int64_t>(rng.UniformInt(0, kMaxV));
  std::vector<std::int64_t> groups[3];
  for (int g = 0; g < 3; ++g) {
    const std::uint64_t cardinality = std::uint64_t{1} << kGroupBits[g];
    auto& codes = groups[g];
    codes.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      // The first rows cover every code once, so the dictionary has
      // exactly 2^bits entries; the shuffle spreads them out.
      codes[i] = static_cast<std::int64_t>(
          i < cardinality ? i : rng.UniformInt(0, cardinality - 1));
    }
    for (std::size_t i = n - 1; i > 0; --i) {
      std::swap(codes[i], codes[rng.UniformInt(0, i)]);
    }
  }

  for (const Statement& s : Statements()) {
    const std::uint64_t cardinality = std::uint64_t{1} << kGroupBits[s.group];
    std::vector<Expected> per_group(cardinality);
    std::vector<std::uint64_t> rows(cardinality, 0);
    std::vector<std::vector<std::int64_t>> values(
        s.kind == AggKind::kMedian ? cardinality : 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (v[i] >= kFilterBelow) continue;
      const auto c = static_cast<std::uint64_t>(groups[s.group][i]);
      ++rows[c];
      per_group[c].count += 1;
      per_group[c].sum += v[i];
      if (s.kind == AggKind::kMedian) values[c].push_back(v[i]);
    }
    GroupResult result;
    for (std::uint64_t c = 0; c < cardinality; ++c) {
      if (rows[c] == 0) continue;
      Expected e = per_group[c];
      e.kind = s.kind;
      if (s.kind == AggKind::kMedian) {
        auto& vals = values[c];
        const std::size_t rank = icp::LowerMedianRank(vals.size()) - 1;
        std::nth_element(vals.begin(), vals.begin() + rank, vals.end());
        e.value = vals[rank];
        e.has_value = true;
      }
      result.emplace_back(GroupValue(c), e);
    }
    st.expected.push_back(std::move(result));
  }
  if (cfg.perturb_reference) {
    auto& first = st.expected.front().front().second;
    first = Perturbed(first);
  }

  Table table;
  ICP_CHECK(table.AddColumn("v", v, {.layout = Layout::kVbp}).ok());
  for (int g = 0; g < 3; ++g) {
    std::vector<std::int64_t> values(n);
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = GroupValue(static_cast<std::uint64_t>(groups[g][i]));
    }
    for (Layout layout : {Layout::kVbp, Layout::kHbp}) {
      ICP_CHECK(table
                    .AddColumn(GroupColumn(g, layout), values,
                               {.layout = layout, .dictionary = true})
                    .ok());
    }
  }
  st.path = cfg.out_dir + "/groupby_" + std::to_string(cfg.seed) + "_" +
            std::to_string(getpid()) + ".icpt";
  {
    ScopedSpan span(tracer, "io.write");
    const icp::Status status = icp::io::WriteTable(table, st.path);
    ICP_CHECK(status.ok());
  }
  if (tracer != nullptr) {
    std::FILE* f = std::fopen(st.path.c_str(), "rb");
    ICP_CHECK(f != nullptr);
    std::fseek(f, 0, SEEK_END);
    out.metrics["io.file_bytes_per_row"] = {
        static_cast<double>(std::ftell(f)) / static_cast<double>(n),
        "B/row"};
    std::fclose(f);
  }
}

bool Check(const icp::StatusOr<std::vector<
               std::pair<std::int64_t, icp::QueryResult>>>& got,
           const GroupResult& want) {
  if (!got.ok() || got->size() != want.size()) return false;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if ((*got)[i].first != want[i].first ||
        !Matches((*got)[i].second, want[i].second)) {
      return false;
    }
  }
  return true;
}

icp::Query MakeQuery(const State& st, const Statement& s) {
  return icp::Query{.agg = s.kind, .agg_column = "v", .filter = st.filter};
}

/// Closed-loop phase: whole rounds of the seven statements until
/// `seconds` have passed. Statements run single-threaded: at threads =
/// nproc a statement waits for its slowest worker, and on a host whose
/// vCPUs are shared the run-to-run spread of every figure exceeded 0.35
/// (see README.md). parallel.speedup in the traced run covers nproc.
PhaseResult MeasuredPhase(State& st, double seconds, Tracer* tracer,
                          std::uint64_t& stmt_id) {
  icp::Engine engine;
  PhaseResult phase;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  do {
    for (std::size_t s = 0; s < Statements().size(); ++s) {
      const Statement& stmt = Statements()[s];
      ScopedSpan span(tracer, "groupby.statement", ++stmt_id);
      auto got = phase.Time([&] {
        return engine.ExecuteGroupBy(st.table, MakeQuery(st, stmt),
                                     stmt.column());
      });
      phase.tally.Record(Check(got, st.expected[s]), stmt.Describe());
    }
  } while (Clock::now() < deadline);
  phase.wall_s = SecondsSince(start);
  return phase;
}

/// The group-by statements decomposed by strategy on the engine the
/// measured phase uses (one thread), the SUM statements again at threads =
/// nproc for parallel.speedup, and the filter scan alone. Each span covers
/// the engine call only; results are checked and freed after it closes.
void Layers(const Config& cfg, State& st, Tracer& tracer,
            std::uint64_t& stmt_id, Outcome& out) {
  constexpr int kRounds = 2;
  const double rows = static_cast<double>(st.table.num_rows());
  icp::Engine serial;
  icp::ExecOptions options;
  options.threads = cfg.nproc;
  icp::Engine parallel(options);
  const auto timed = [&](icp::Engine& engine, const char* layer,
                         const Statement& stmt) {
    ScopedSpan span(&tracer, layer);
    return engine.ExecuteGroupBy(st.table, MakeQuery(st, stmt),
                                 stmt.column());
  };
  for (int r = 0; r < kRounds; ++r) {
    {
      auto filter = [&] {
        ScopedSpan span(&tracer, "groupby.filter");
        return serial.EvaluateFilter(st.table, st.filter, "v");
      }();
      out.tally.Record(filter.ok(), "groupby filter v < 50");
    }
    for (std::size_t s = 0; s < Statements().size(); ++s) {
      const Statement& stmt = Statements()[s];
      {
        ScopedSpan statement(&tracer, "groupby.statement", ++stmt_id);
        auto got = timed(serial, stmt.layer, stmt);
        out.tally.Record(Check(got, st.expected[s]), stmt.Describe());
      }
      if (stmt.kind == AggKind::kMedian) continue;
      ScopedSpan statement(&tracer, "groupby.statement", ++stmt_id);
      auto got = timed(parallel, "groupby.threads_nproc", stmt);
      out.tally.Record(Check(got, st.expected[s]),
                       stmt.Describe() + " (threads nproc)");
    }
  }

  // Exact counts from one more untimed single-thread pass with stats on.
  icp::obs::QueryStats qs;
  icp::ExecOptions counted_options;
  counted_options.stats = &qs;
  icp::Engine counted(counted_options);
  std::uint64_t spilled = 0, passing = 0;
  for (std::size_t s = 0; s < Statements().size(); ++s) {
    const Statement& stmt = Statements()[s];
    if (stmt.kind == AggKind::kMedian) continue;
    auto got = counted.ExecuteGroupBy(st.table, MakeQuery(st, stmt),
                                      stmt.column());
    out.tally.Record(Check(got, st.expected[s]),
                     stmt.Describe() + " (stats)");
    spilled += qs.groupby_spilled_rows;
    passing += qs.rows_passing;
  }

  const auto self = tracer.SelfTimes();
  const auto per_call_ms = [&](const char* name) {
    const auto& e = self.at(name);
    return e.first / static_cast<double>(e.second) / 1e6;
  };
  const auto per_row_ns = [&](const char* name) {
    const auto& e = self.at(name);
    return e.first / (static_cast<double>(e.second) * rows);
  };
  out.metrics["io.write_s"] = {per_call_ms("io.write") / 1e3, "s"};
  out.metrics["io.read_s"] = {per_call_ms("io.read") / 1e3, "s"};
  out.metrics["groupby.filter_ms"] = {per_call_ms("groupby.filter"), "ms"};
  out.metrics["groupby.ns_per_row.direct"] = {per_row_ns("groupby.direct"),
                                              "ns/row"};
  out.metrics["groupby.ns_per_row.spill"] = {per_row_ns("groupby.spill"),
                                             "ns/row"};
  out.metrics["groupby.naive_ms"] = {per_call_ms("groupby.naive"), "ms"};
  out.metrics["groupby.spill_ratio"] = {
      static_cast<double>(spilled) / static_cast<double>(passing), "ratio"};
  out.metrics["parallel.speedup"] = {
      (tracer.TotalNs("groupby.direct") + tracer.TotalNs("groupby.spill")) /
          tracer.TotalNs("groupby.threads_nproc"),
      "ratio"};
}

}  // namespace

void GroupByCard(const Config& cfg, Tracer* tracer, bool measure,
                 Outcome& out) {
  State st;
  Prepare(cfg, tracer, st, out);
  TrimHeap();
  const std::size_t rss_start = ResidentBytes();
  // The heap is trimmed before each set-up, so every set-up faults its
  // pages in afresh, as a restarted process would.
  std::vector<double> setups;
  for (int i = 0; i < (tracer == nullptr ? kSetups : 1); ++i) {
    st.table = Table();
    TrimHeap();
    const auto start = Clock::now();
    ScopedSpan span(tracer, "io.read");
    auto table = icp::io::ReadTable(st.path);
    ICP_CHECK(table.ok());
    st.table = std::move(table).value();
    setups.push_back(SecondsSince(start));
  }
  std::remove(st.path.c_str());
  TrimHeap();
  const double rss_per_row =
      static_cast<double>(ResidentBytes() - rss_start) /
      static_cast<double>(cfg.rows());

  std::uint64_t stmt_id = 0;
  if (tracer == nullptr) {
    std::uint64_t unused = 0;
    out.tally.Add(MeasuredPhase(st, 0.0, nullptr, unused).tally);
    const PhaseResult phase =
        MeasuredPhase(st, cfg.seconds, nullptr, stmt_id);
    out.tally.Add(phase.tally);
    AddEndToEnd(phase, setups, rss_per_row, out);
    return;
  }
  Layers(cfg, st, *tracer, stmt_id, out);
  if (measure) {
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
