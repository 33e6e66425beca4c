// CSV import: load delimited text files into bit-packed Tables.
//
// The loader handles integer columns directly and fixed-scale decimal and
// ISO-8601 date columns by mapping them to integers (cents / days since
// epoch), matching the paper's footnote-3 convention that numerics with
// limited precision are scaled to unsigned integers. Empty fields become
// NULLs (the column turns nullable automatically).

#ifndef ICP_IO_CSV_LOADER_H_
#define ICP_IO_CSV_LOADER_H_

#include <string>
#include <vector>

#include "engine/table.h"
#include "util/status.h"

namespace icp::io {

/// How to parse and encode one CSV column.
struct CsvColumnSpec {
  std::string name;

  enum class Type {
    kInt64,    // plain integer
    kDecimal,  // fixed-point decimal, stored as value * 10^scale
    kDate,     // YYYY-MM-DD, stored as days since 1970-01-01
    kSkip,     // column present in the file but not loaded
  };
  Type type = Type::kInt64;

  /// Decimal digits kept for kDecimal (2 -> cents).
  int scale = 2;

  /// Storage configuration for the resulting table column.
  ColumnSpec storage{};
};

struct CsvOptions {
  char delimiter = ',';
  /// Skip the first line.
  bool has_header = true;
  /// Maximum number of data rows to load (0 = all).
  std::size_t max_rows = 0;
};

/// Parses `path` into a Table with one column per non-kSkip spec entry.
/// The spec order must match the file's column order. Fields that fail to
/// parse yield an error with the offending line number; empty fields load
/// as NULL.
StatusOr<Table> LoadCsv(const std::string& path,
                        const std::vector<CsvColumnSpec>& columns,
                        const CsvOptions& options = CsvOptions());

/// Parses CSV text from a string (testing / embedded data).
StatusOr<Table> LoadCsvFromString(const std::string& text,
                                  const std::vector<CsvColumnSpec>& columns,
                                  const CsvOptions& options = CsvOptions());

/// Parses "YYYY-MM-DD" into days since 1970-01-01.
StatusOr<std::int64_t> ParseDate(const std::string& field);

/// Parses a decimal with up to `scale` fractional digits into
/// value * 10^scale (e.g. "12.3", scale 2 -> 1230).
StatusOr<std::int64_t> ParseDecimal(const std::string& field, int scale);

}  // namespace icp::io

#endif  // ICP_IO_CSV_LOADER_H_
