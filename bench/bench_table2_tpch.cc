// Table II reproduction: TPC-H queries under HBP and VBP.
//
// Per the paper's configuration: scans are bit-parallel, multi-threading
// (4 workers) and SIMD are enabled (every VBP/HBP column is packed once in
// the lanes=4 form, so both engines below run the 256-bit kernels), and
// the aggregation phase is measured with the NBP baseline and with the
// paper's BP algorithms. Reported cost
// is cycles per tuple; the paper's rows are reproduced per query together
// with the per-layout averages (paper: aggregation improvement 28.1% HBP /
// 55.0% VBP; overall improvement 20.4% HBP / 44.4% VBP).
//
// Data: built-in mini-dbgen wide table (see src/tpch/ and DESIGN.md for the
// SF-10 substitution). Row count via ICP_BENCH_TUPLES (default 2^21).

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "engine/engine.h"
#include "tpch/generator.h"
#include "tpch/queries.h"

namespace icp::bench {
namespace {

struct QueryCost {
  std::string id;
  double selectivity = 0;
  double scan_ct = 0;
  double agg_nbp_ct = 0;
  double agg_bp_ct = 0;
};

QueryCost RunQuery(const Table& table, const tpch::QuerySpec& spec,
                   Engine& bp_engine, Engine& nbp_engine, int reps) {
  const double n = static_cast<double>(table.num_rows());
  QueryCost cost;
  cost.id = spec.id;

  const std::string& shape_column = spec.aggregates[0].second;
  // Warm-up pass: triggers the lazy lanes == 4 SIMD packing of the touched
  // columns so it is not billed to the scan measurement.
  {
    auto f = bp_engine.EvaluateFilter(table, spec.filter, shape_column);
    ICP_CHECK(f.ok());
  }
  // Scan phase (bit-parallel, shared by both methods).
  FilterBitVector filter(1, 1);
  cost.scan_ct = CyclesPerTuple(table.num_rows(), reps, [&] {
    auto f = bp_engine.EvaluateFilter(table, spec.filter, shape_column);
    ICP_CHECK(f.ok());
    filter = std::move(f).value();
  });
  cost.selectivity =
      static_cast<double>(filter.CountOnes()) / n;

  // Under HBP the values-per-segment of the filter depends on each
  // column's bit-group size, so pre-reshape the filter once per aggregate
  // column (a real system would align tau across co-queried columns).
  std::vector<FilterBitVector> shaped;
  shaped.reserve(spec.aggregates.size());
  for (const auto& [kind, column] : spec.aggregates) {
    const int vps = (*table.GetColumn(column))->values_per_segment();
    shaped.push_back(filter.values_per_segment() == vps
                         ? filter
                         : filter.Reshape(vps));
  }

  // Aggregation phase: every aggregate the query computes, summed.
  // One untimed warm-up pass first (triggers lazy SIMD packings of the
  // aggregate columns and faults the packed data in).
  auto measure_aggs = [&](Engine& engine) {
    auto run_all = [&] {
      for (std::size_t i = 0; i < spec.aggregates.size(); ++i) {
        const auto& [kind, column] = spec.aggregates[i];
        auto r = engine.Aggregate(table, kind, column, shaped[i]);
        ICP_CHECK(r.ok());
        DoNotOptimize(r->count + r->agg_cycles);
      }
    };
    run_all();
    return CyclesPerTuple(table.num_rows(), reps, run_all);
  };
  cost.agg_nbp_ct = measure_aggs(nbp_engine);
  cost.agg_bp_ct = measure_aggs(bp_engine);
  return cost;
}

void PrintLayoutTable(const char* name, const std::vector<QueryCost>& costs) {
  std::printf("\n--- %s ---  (cycles per tuple, as in Table II)\n", name);
  std::printf("%-6s %12s %10s %12s %12s %9s %12s %12s %9s\n", "query",
              "selectivity", "scan", "agg NBP", "agg BP", "agg impr",
              "total NBP", "total BP", "overall");
  double sum_agg_impr = 0;
  double sum_total_impr = 0;
  for (const QueryCost& c : costs) {
    const double total_nbp = c.scan_ct + c.agg_nbp_ct;
    const double total_bp = c.scan_ct + c.agg_bp_ct;
    const double agg_impr = 100.0 * (c.agg_nbp_ct - c.agg_bp_ct) /
                            (c.agg_nbp_ct > 0 ? c.agg_nbp_ct : 1);
    const double total_impr = 100.0 * (total_nbp - total_bp) / total_nbp;
    sum_agg_impr += agg_impr;
    sum_total_impr += total_impr;
    std::printf("%-6s %12.3f %10.2f %12.2f %12.2f %8.1f%% %12.2f %12.2f "
                "%8.1f%%\n",
                c.id.c_str(), c.selectivity, c.scan_ct, c.agg_nbp_ct,
                c.agg_bp_ct, agg_impr, total_nbp, total_bp, total_impr);
  }
  std::printf("%-6s %12s %10s %12s %12s %8.1f%% %12s %12s %8.1f%%\n", "Avg",
              "", "", "", "", sum_agg_impr / costs.size(), "", "",
              sum_total_impr / costs.size());
}

void Run() {
  const std::size_t rows = TupleCount(std::size_t{1} << 21);
  const int reps = Repetitions();
  PrintHeader(
      "Table II: TPC-H queries, BP scan + {NBP, BP} aggregation "
      "(multi-threaded + SIMD)",
      rows, reps);

  std::printf("generating wide table (%zu rows)...\n", rows);
  const tpch::WideTableData data =
      tpch::GenerateWideTable({.num_rows = rows, .seed = 10});
  const auto queries = tpch::MakeQueries();

  for (Layout layout : {Layout::kHbp, Layout::kVbp}) {
    auto table_or = tpch::BuildTable(data, layout);
    ICP_CHECK(table_or.ok());
    const Table& table = *table_or;

    Engine bp_engine(
        ExecOptions{.method = AggMethod::kBitParallel, .threads = 4});
    Engine nbp_engine(
        ExecOptions{.method = AggMethod::kNonBitParallel, .threads = 4});
    std::vector<QueryCost> costs;
    for (const auto& spec : queries) {
      costs.push_back(RunQuery(table, spec, bp_engine, nbp_engine, reps));
    }
    PrintLayoutTable(layout == Layout::kHbp ? "HBP" : "VBP", costs);
  }
  std::printf(
      "\nPaper averages: agg improvement 28.1%% (HBP) / 55.0%% (VBP); "
      "overall 20.4%% / 44.4%%.\n");
}

}  // namespace
}  // namespace icp::bench

int main() {
  icp::bench::Run();
  return 0;
}
