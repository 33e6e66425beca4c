#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>
#include <unistd.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "util/rdtsc.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::size_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size_pages = 0;
  std::size_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

void TrimHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

double MeasureCyclesPerNs() {
  const auto t0 = Clock::now();
  const std::uint64_t c0 = icp::ReadCycleCounter();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::uint64_t c1 = icp::ReadCycleCounter();
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  return static_cast<double>(c1 - c0) / ns;
}

void Tally::Record(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  if (++failed <= 5) {
    std::fprintf(stderr, "perfbench: wrong or failed result: %s\n",
                 what.c_str());
  }
}

void AddEndToEnd(const PhaseResult& phase,
                 const std::vector<double>& setup_times_s,
                 double resident_bytes_per_row, Outcome& out) {
  Metrics& m = out.metrics;
  m["latency_p50_ms"] = {Quantile(phase.latencies_ms, 0.50), "ms"};
  m["throughput_qps"] = {phase.Qps(), "1/s"};
  m["setup_s"] = {Quantile(setup_times_s, 0.5), "s"};
  m["resident_bytes_per_row"] = {resident_bytes_per_row, "B/row"};
  out.measured_statements = phase.latencies_ms.size();
  out.latency_p95_ms = Quantile(phase.latencies_ms, 0.95);
  out.setup_times_s = setup_times_s;
}

// ---------------------------------------------------------------------

namespace {

// Positions in spans_ of the calling thread's open spans, innermost last.
thread_local std::vector<std::size_t> open_index;

}  // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

void Tracer::Begin(const std::string& name, std::uint64_t stmt) {
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  std::lock_guard<std::mutex> lock(mu_);
  const auto key = static_cast<std::uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
  Span span;
  span.name = name;
  span.tid =
      thread_ids_.emplace(key, static_cast<int>(thread_ids_.size()))
          .first->second;
  span.id = next_id_++;
  span.stmt = stmt;
  if (!open_index.empty()) {
    const Span& parent = spans_[open_index.back()];
    span.parent = parent.id;
    if (stmt == 0) span.stmt = parent.stmt;
  }
  span.start_ns = now;
  open_index.push_back(spans_.size());
  spans_.push_back(std::move(span));
}

void Tracer::End() {
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[open_index.back()];
  span.dur_ns = now - span.start_ns;
  open_index.pop_back();
}

std::map<std::string, std::pair<double, std::uint64_t>> Tracer::SelfTimes()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::uint64_t, std::int64_t> child_ns;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.dur_ns;
  }
  std::map<std::string, std::pair<double, std::uint64_t>> out;
  for (const Span& s : spans_) {
    auto& entry = out[s.name];
    const auto it = child_ns.find(s.id);
    entry.first += static_cast<double>(
        s.dur_ns - (it == child_ns.end() ? 0 : it->second));
    entry.second += 1;
  }
  return out;
}

double Tracer::TotalNs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += static_cast<double>(s.dur_ns);
  }
  return total;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"span\":%llu,"
                 "\"parent\":%llu,\"stmt\":%llu}}",
                 first ? "" : ",", s.name.c_str(),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3, s.tid,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.stmt));
    first = false;
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------

namespace {

enum : std::uint8_t { kFalse = 0, kTrue = 1, kUnknown = 2 };

bool CompareValue(icp::CompareOp op, std::int64_t v, std::int64_t a,
                  std::int64_t b) {
  switch (op) {
    case icp::CompareOp::kEq:
      return v == a;
    case icp::CompareOp::kNe:
      return v != a;
    case icp::CompareOp::kLt:
      return v < a;
    case icp::CompareOp::kLe:
      return v <= a;
    case icp::CompareOp::kGt:
      return v > a;
    case icp::CompareOp::kGe:
      return v >= a;
    case icp::CompareOp::kBetween:
      return a <= v && v <= b;
  }
  return false;
}

// Three-valued truth of `expr` on every row, one byte per row.
std::vector<std::uint8_t> Eval(const RawTable& table,
                               const icp::FilterExpr& expr,
                               std::size_t rows) {
  using Kind = icp::FilterExpr::Kind;
  std::vector<std::uint8_t> out(rows, kFalse);
  switch (expr.kind()) {
    case Kind::kLeaf:
    case Kind::kIsNull:
    case Kind::kIsNotNull: {
      const RawColumn& col = table.at(expr.column());
      for (std::size_t i = 0; i < rows; ++i) {
        const bool valid = col.valid == nullptr || (*col.valid)[i];
        if (expr.kind() == Kind::kIsNull) {
          out[i] = valid ? kFalse : kTrue;
        } else if (expr.kind() == Kind::kIsNotNull) {
          out[i] = valid ? kTrue : kFalse;
        } else if (!valid) {
          out[i] = kUnknown;
        } else {
          out[i] = CompareValue(expr.op(), (*col.values)[i], expr.value(),
                                expr.value2())
                       ? kTrue
                       : kFalse;
        }
      }
      break;
    }
    case Kind::kAnd:
    case Kind::kOr: {
      const bool is_and = expr.kind() == Kind::kAnd;
      std::fill(out.begin(), out.end(), is_and ? kTrue : kFalse);
      for (const auto& child : expr.children()) {
        const auto c = Eval(table, *child, rows);
        for (std::size_t i = 0; i < rows; ++i) {
          const std::uint8_t dominant = is_and ? kFalse : kTrue;
          if (out[i] == dominant || c[i] == dominant) {
            out[i] = dominant;
          } else if (out[i] == kUnknown || c[i] == kUnknown) {
            out[i] = kUnknown;
          }
        }
      }
      break;
    }
    case Kind::kNot: {
      out = Eval(table, *expr.children().front(), rows);
      for (auto& v : out) {
        if (v != kUnknown) v = v == kTrue ? kFalse : kTrue;
      }
      break;
    }
  }
  return out;
}

}  // namespace

std::vector<std::uint8_t> ReferenceFilter(const RawTable& table,
                                          const icp::FilterExprPtr& filter,
                                          std::size_t rows) {
  if (filter == nullptr) return std::vector<std::uint8_t>(rows, 1);
  auto tri = Eval(table, *filter, rows);
  for (auto& v : tri) v = v == kTrue ? 1 : 0;
  return tri;
}

Expected ReferenceAggregate(const RawColumn& column, icp::AggKind kind,
                            const std::vector<std::uint8_t>& pass) {
  Expected e;
  e.kind = kind;
  std::vector<std::int64_t> selected;
  const auto& values = *column.values;
  for (std::size_t i = 0; i < pass.size(); ++i) {
    if (!pass[i]) continue;
    if (column.valid != nullptr && !(*column.valid)[i]) continue;
    ++e.count;
    e.sum += values[i];
    if (kind == icp::AggKind::kMedian) selected.push_back(values[i]);
    if (kind == icp::AggKind::kMin &&
        (!e.has_value || values[i] < e.value)) {
      e.value = values[i];
      e.has_value = true;
    }
    if (kind == icp::AggKind::kMax &&
        (!e.has_value || values[i] > e.value)) {
      e.value = values[i];
      e.has_value = true;
    }
  }
  if (kind == icp::AggKind::kMedian && !selected.empty()) {
    const std::size_t rank = icp::LowerMedianRank(selected.size()) - 1;
    std::nth_element(selected.begin(), selected.begin() + rank,
                     selected.end());
    e.value = selected[rank];
    e.has_value = true;
  }
  return e;
}

bool Matches(const icp::QueryResult& got, const Expected& want) {
  if (got.kind != want.kind || got.count != want.count) return false;
  const auto close = [](double a, double b) {
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
  };
  switch (want.kind) {
    case icp::AggKind::kCount:
      return true;
    case icp::AggKind::kSum:
      return close(got.value, static_cast<double>(want.sum));
    case icp::AggKind::kAvg:
      return want.count == 0 ||
             close(got.value, static_cast<double>(want.sum) /
                                  static_cast<double>(want.count));
    case icp::AggKind::kMin:
    case icp::AggKind::kMax:
    case icp::AggKind::kMedian:
    case icp::AggKind::kRank:
      if (!want.has_value) return !got.decoded_value.has_value();
      return got.decoded_value.has_value() &&
             *got.decoded_value == want.value;
  }
  return false;
}

Expected Perturbed(Expected e) {
  e.count += 1;
  e.sum += 1;
  e.value += 1;
  return e;
}

}  // namespace perfbench
