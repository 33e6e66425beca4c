// Table: a set of named, encoded, bit-packed columns.
//
// This is the wide-table abstraction the paper adopts from [11]/[12]: joins
// and group-bys are assumed to have been denormalized/materialized away, so
// every query is a filter scan over some columns plus an aggregate over one
// column. Each column chooses its layout (VBP/HBP/padded/naive), bit-group
// size and bit width at load time. A VBP or HBP column is packed once, at
// load time, in the lanes == 4 segment-quad form: the same (plane or
// sub-segment) word of four consecutive segments is one 256-bit load, and
// every bit-parallel scan and aggregate runs on that one packing.

#ifndef ICP_ENGINE_TABLE_H_
#define ICP_ENGINE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bitvector/filter_bit_vector.h"
#include "encode/column_encoder.h"
#include "layout/hbp_column.h"
#include "layout/layout.h"
#include "layout/naive_column.h"
#include "layout/padded_column.h"
#include "layout/vbp_column.h"
#include "util/status.h"

namespace icp {

/// Per-column storage configuration.
struct ColumnSpec {
  Layout layout = Layout::kVbp;
  /// Bit-group size; 0 = layout default (VBP: 4, HBP: analytic choice).
  int tau = 0;
  /// Code width; 0 = narrowest width that fits the value range.
  int bit_width = 0;
  /// Use an order-preserving dictionary instead of range encoding
  /// (for sparse domains; disables SUM/AVG decoding).
  bool dictionary = false;
};

class Table {
 public:
  Table() = default;

  /// Adds a column of raw values; they are encoded to unsigned codes and
  /// packed according to `spec`. All columns must have the same row count.
  Status AddColumn(const std::string& name,
                   const std::vector<std::int64_t>& values, ColumnSpec spec);

  /// Adds a nullable column: rows whose `valid` bit is false are NULL.
  /// NULLs are stored as code 0 but never pass a predicate and never
  /// contribute to an aggregate (the bit-slice validity technique of
  /// O'Neil & Quass [10], which the paper defers NULL handling to).
  Status AddNullableColumn(const std::string& name,
                           const std::vector<std::int64_t>& values,
                           const std::vector<bool>& valid, ColumnSpec spec);

  /// Adds a pre-encoded column (codes already in [0, 2^bit_width)). The
  /// encoder is the identity range encoder over [0, 2^bit_width).
  Status AddEncodedColumn(const std::string& name,
                          const std::vector<std::uint64_t>& codes,
                          int bit_width, ColumnSpec spec);

  std::size_t num_rows() const { return num_rows_; }
  std::size_t num_columns() const { return columns_.size(); }
  std::vector<std::string> column_names() const;

  /// Column handle used by the engine.
  class Column {
   public:
    const std::string& name() const { return name_; }
    const ColumnSpec& spec() const { return spec_; }
    const ColumnEncoder& encoder() const { return encoder_; }
    int bit_width() const { return encoder_.bit_width(); }

    /// Tuples covered by one filter segment for this column's layout.
    int values_per_segment() const;

    /// The column's one packing; VBP and HBP are lanes == 4.
    const VbpColumn& vbp() const { return vbp_; }
    const HbpColumn& hbp() const { return hbp_; }
    const NaiveColumn& naive() const { return naive_; }
    const PaddedColumn& padded() const { return padded_; }

    /// Aliases of vbp() / hbp(), kept for callers written against the
    /// former lazily-built second packing.
    const VbpColumn& vbp_simd() const { return vbp_; }
    const HbpColumn& hbp_simd() const { return hbp_; }

    /// True if the column can contain NULLs.
    bool nullable() const { return nullable_; }
    /// Validity bit vector (1 = non-NULL), shaped like this column's filter
    /// segments. Only meaningful when nullable().
    const FilterBitVector& validity() const { return validity_; }

    /// The column's encoded codes (one per row); used by GROUP BY and
    /// serialization.
    const std::vector<std::uint64_t>& codes() const { return codes_; }

    /// Size of the column's packing, in bytes.
    std::size_t MemoryBytes() const;

   private:
    friend class Table;

    std::string name_;
    ColumnSpec spec_;
    ColumnEncoder encoder_;
    std::vector<std::uint64_t> codes_;
    VbpColumn vbp_;
    HbpColumn hbp_;
    NaiveColumn naive_;
    PaddedColumn padded_;
    bool nullable_ = false;
    FilterBitVector validity_;
  };

  /// Looks up a column by name.
  StatusOr<const Column*> GetColumn(const std::string& name) const;

 private:
  Status AddColumnImpl(const std::string& name, ColumnSpec spec,
                       ColumnEncoder encoder,
                       std::vector<std::uint64_t> codes,
                       const std::vector<bool>* valid = nullptr);

  std::size_t num_rows_ = 0;
  // unique_ptr keeps Column* handles stable across AddColumn calls.
  std::vector<std::unique_ptr<Column>> columns_;
};

}  // namespace icp

#endif  // ICP_ENGINE_TABLE_H_
