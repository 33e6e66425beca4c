// End-to-end data pipeline: ingest a CSV order export (with NULLs), persist
// the bit-packed table to disk, reload it, and run grouped / percentile /
// multi-aggregate analytics — the full public API in one walkthrough.
//
// Build & run:   ./build/examples/retail_pipeline

#include <cstdio>
#include <fstream>
#include <string>

#include "engine/engine.h"
#include "io/csv_loader.h"
#include "io/table_io.h"
#include "util/random.h"

namespace {

using namespace icp;

// Synthesizes a messy order export: some rows are missing the coupon value.
std::string WriteOrdersCsv(const std::string& path, std::size_t rows) {
  Random rng(20240601);
  std::ofstream out(path);
  out << "order_id,region,total,coupon,order_date,items\n";
  const char* months[] = {"01", "02", "03", "04", "05", "06"};
  for (std::size_t i = 0; i < rows; ++i) {
    const int region = static_cast<int>(rng.UniformInt(0, 4));
    const double total =
        static_cast<double>(rng.UniformInt(500, 250000)) / 100.0;
    const bool has_coupon = rng.Bernoulli(0.3);
    const double coupon =
        has_coupon ? static_cast<double>(rng.UniformInt(100, 2000)) / 100.0
                   : 0.0;
    out << i << ',' << region << ',';
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.2f", total);
    out << buffer << ',';
    if (has_coupon) {
      std::snprintf(buffer, sizeof buffer, "%.2f", coupon);
      out << buffer;
    }  // else: empty field -> NULL
    const int day = static_cast<int>(1 + rng.UniformInt(0, 27));
    out << ",2024-" << months[rng.UniformInt(0, 5)] << '-'
        << (day < 10 ? "0" : "") << day << ',' << rng.UniformInt(1, 12)
        << '\n';
  }
  return path;
}

}  // namespace

int main() {
  const std::string csv_path = "/tmp/icp_orders.csv";
  const std::string table_path = "/tmp/icp_orders.icptbl";
  const std::size_t rows = 500000;

  std::printf("1. writing synthetic CSV export (%zu orders)...\n", rows);
  WriteOrdersCsv(csv_path, rows);

  std::printf("2. ingesting CSV into bit-packed columns...\n");
  auto table_or = io::LoadCsv(
      csv_path,
      {
          {.name = "order_id",
           .type = io::CsvColumnSpec::Type::kInt64,
           .scale = 0,
           .storage = {.layout = Layout::kVbp}},
          {.name = "region",
           .type = io::CsvColumnSpec::Type::kInt64,
           .scale = 0,
           .storage = {.layout = Layout::kVbp, .dictionary = true}},
          {.name = "total",
           .type = io::CsvColumnSpec::Type::kDecimal,
           .scale = 2,
           .storage = {.layout = Layout::kVbp}},
          {.name = "coupon",  // empty fields -> NULL
           .type = io::CsvColumnSpec::Type::kDecimal,
           .scale = 2,
           .storage = {.layout = Layout::kHbp}},
          {.name = "order_date",
           .type = io::CsvColumnSpec::Type::kDate,
           .scale = 0,
           .storage = {.layout = Layout::kVbp}},
          {.name = "items",
           .type = io::CsvColumnSpec::Type::kInt64,
           .scale = 0,
           .storage = {.layout = Layout::kHbp}},
      });
  ICP_CHECK(table_or.ok());

  std::printf("3. persisting the packed table (%s)...\n",
              table_path.c_str());
  ICP_CHECK(io::WriteTable(*table_or, table_path).ok());
  auto loaded = io::ReadTable(table_path);
  ICP_CHECK(loaded.ok());
  const Table& table = *loaded;
  std::printf("   reloaded %zu rows x %zu columns\n", table.num_rows(),
              table.num_columns());

  Engine engine(ExecOptions{.threads = 4});
  const double n = static_cast<double>(table.num_rows());

  std::printf("\n4. revenue summary for big orders (one scan, four "
              "aggregates):\n");
  MultiQuery mq;
  mq.filter = FilterExpr::Compare("total", CompareOp::kGe, 100000);  // cents
  mq.aggregates = {{AggKind::kCount, "total"},
                   {AggKind::kSum, "total"},
                   {AggKind::kAvg, "items"},
                   {AggKind::kMax, "total"}};
  auto multi = engine.ExecuteMulti(table, mq);
  ICP_CHECK(multi.ok());
  std::printf("   orders >= $1000: %llu,  revenue $%.2f,  avg items %.2f, "
              "largest $%.2f\n",
              static_cast<unsigned long long>((*multi)[0].count),
              (*multi)[1].value / 100.0, (*multi)[2].value,
              (*multi)[3].value / 100.0);

  std::printf("\n5. per-region order medians (group-by over the "
              "dictionary column):\n");
  Query q;
  q.agg = AggKind::kMedian;
  q.agg_column = "total";
  auto groups = engine.ExecuteGroupBy(table, q, "region");
  ICP_CHECK(groups.ok());
  for (const auto& [region, result] : *groups) {
    std::printf("   region %lld: median order $%.2f over %llu orders\n",
                static_cast<long long>(region), result.value / 100.0,
                static_cast<unsigned long long>(result.count));
  }

  std::printf("\n6. coupon statistics (NULL-aware: only redeemed "
              "coupons count):\n");
  q = Query{};
  q.agg = AggKind::kCount;
  q.agg_column = "order_id";
  q.filter = FilterExpr::IsNotNull("coupon");
  auto redeemed = engine.Execute(table, q);
  ICP_CHECK(redeemed.ok());
  q.agg = AggKind::kAvg;
  q.agg_column = "coupon";
  q.filter = nullptr;  // aggregates skip NULLs on their own
  auto avg_coupon = engine.Execute(table, q);
  ICP_CHECK(avg_coupon.ok());
  std::printf("   redeemed on %llu orders (%.1f%%), average $%.2f\n",
              static_cast<unsigned long long>(redeemed->count),
              100.0 * static_cast<double>(redeemed->count) / n,
              avg_coupon->value / 100.0);

  std::printf("\n7. p95 order value in March (rank aggregate):\n");
  q = Query{};
  q.agg_column = "total";
  q.agg = AggKind::kCount;
  q.filter = FilterExpr::Between("order_date",
                                 io::ParseDate("2024-03-01").value(),
                                 io::ParseDate("2024-03-31").value());
  const std::uint64_t march = engine.Execute(table, q)->count;
  q.agg = AggKind::kRank;
  q.rank = static_cast<std::uint64_t>(0.95 * static_cast<double>(march));
  auto p95 = engine.Execute(table, q);
  ICP_CHECK(p95.ok());
  std::printf("   %llu March orders, p95 = $%.2f\n",
              static_cast<unsigned long long>(march), p95->value / 100.0);

  std::remove(csv_path.c_str());
  std::remove(table_path.c_str());
  return 0;
}
