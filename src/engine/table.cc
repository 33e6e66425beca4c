#include "engine/table.h"

#include <algorithm>
#include <utility>

namespace icp {

int Table::Column::values_per_segment() const {
  switch (spec_.layout) {
    case Layout::kVbp:
      return VbpColumn::kValuesPerSegment;
    case Layout::kHbp:
      return hbp_.values_per_segment();
    case Layout::kNaive:
    case Layout::kPadded:
      return kWordBits;
  }
  return kWordBits;
}

std::size_t Table::Column::MemoryBytes() const {
  switch (spec_.layout) {
    case Layout::kVbp:
      return vbp_.MemoryBytes();
    case Layout::kHbp:
      return hbp_.MemoryBytes();
    case Layout::kNaive:
      return naive_.MemoryBytes();
    case Layout::kPadded:
      return padded_.MemoryBytes();
  }
  return 0;
}

std::vector<std::string> Table::column_names() const {
  std::vector<std::string> names;
  names.reserve(columns_.size());
  for (const auto& column : columns_) names.push_back(column->name_);
  return names;
}

namespace {

// Builds the encoder for `values` restricted to positions where `valid` is
// true (or all positions when valid == nullptr).
StatusOr<ColumnEncoder> MakeEncoder(const std::string& name,
                                    const std::vector<std::int64_t>& values,
                                    const std::vector<bool>* valid,
                                    const ColumnSpec& spec) {
  std::vector<std::int64_t> live;
  const std::vector<std::int64_t>* domain = &values;
  if (valid != nullptr) {
    live.reserve(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      if ((*valid)[i]) live.push_back(values[i]);
    }
    if (live.empty()) {
      return Status::InvalidArgument("column '" + name +
                                     "' has only NULL values");
    }
    domain = &live;
  }
  if (spec.dictionary) {
    ColumnEncoder encoder = ColumnEncoder::ForDictionary(*domain);
    if (spec.bit_width != 0 && spec.bit_width < encoder.bit_width()) {
      return Status::InvalidArgument("bit_width too small for dictionary");
    }
    return encoder;
  }
  const auto [lo, hi] = std::minmax_element(domain->begin(), domain->end());
  if (spec.bit_width == 0) {
    return ColumnEncoder::ForRange(*lo, *hi);
  }
  const std::uint64_t span =
      static_cast<std::uint64_t>(*hi) - static_cast<std::uint64_t>(*lo);
  if (spec.bit_width < BitsFor(span)) {
    return Status::InvalidArgument("bit_width too small for value range");
  }
  return ColumnEncoder::ForRangeWithWidth(*lo, *hi, spec.bit_width);
}

}  // namespace

Status Table::AddColumn(const std::string& name,
                        const std::vector<std::int64_t>& values,
                        ColumnSpec spec) {
  if (values.empty()) {
    return Status::InvalidArgument("column '" + name + "' has no values");
  }
  auto encoder_or = MakeEncoder(name, values, nullptr, spec);
  ICP_RETURN_IF_ERROR(encoder_or.status());
  return AddColumnImpl(name, spec, *encoder_or,
                       encoder_or->EncodeAll(values));
}

Status Table::AddNullableColumn(const std::string& name,
                                const std::vector<std::int64_t>& values,
                                const std::vector<bool>& valid,
                                ColumnSpec spec) {
  if (values.empty()) {
    return Status::InvalidArgument("column '" + name + "' has no values");
  }
  if (valid.size() != values.size()) {
    return Status::InvalidArgument(
        "validity size does not match value count in '" + name + "'");
  }
  auto encoder_or = MakeEncoder(name, values, &valid, spec);
  ICP_RETURN_IF_ERROR(encoder_or.status());
  const ColumnEncoder& encoder = *encoder_or;
  std::vector<std::uint64_t> codes(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    codes[i] = valid[i] ? encoder.Encode(values[i]) : 0;  // NULL -> code 0
  }
  return AddColumnImpl(name, spec, encoder, std::move(codes), &valid);
}

Status Table::AddEncodedColumn(const std::string& name,
                               const std::vector<std::uint64_t>& codes,
                               int bit_width, ColumnSpec spec) {
  if (codes.empty()) {
    return Status::InvalidArgument("column '" + name + "' has no values");
  }
  if (bit_width < 1 || bit_width > kWordBits - 1) {
    return Status::InvalidArgument("bit_width out of range");
  }
  const std::uint64_t max_code = LowMask(bit_width);
  for (std::uint64_t code : codes) {
    if (code > max_code) {
      return Status::InvalidArgument("code exceeds bit_width in column '" +
                                     name + "'");
    }
  }
  spec.bit_width = bit_width;
  ColumnEncoder encoder = ColumnEncoder::ForRangeWithWidth(
      0, static_cast<std::int64_t>(max_code), bit_width);
  return AddColumnImpl(name, spec, encoder, codes);
}

Status Table::AddColumnImpl(const std::string& name, ColumnSpec spec,
                            ColumnEncoder encoder,
                            std::vector<std::uint64_t> codes,
                            const std::vector<bool>* valid) {
  if (num_rows_ != 0 && codes.size() != num_rows_) {
    return Status::InvalidArgument("column '" + name + "' has " +
                                   std::to_string(codes.size()) +
                                   " rows, table has " +
                                   std::to_string(num_rows_));
  }
  for (const auto& column : columns_) {
    if (column->name_ == name) {
      return Status::InvalidArgument("duplicate column '" + name + "'");
    }
  }

  auto column = std::make_unique<Column>();
  column->name_ = name;
  column->spec_ = spec;
  column->encoder_ = std::move(encoder);
  const int k = column->encoder_.bit_width();
  switch (spec.layout) {
    case Layout::kVbp:
      column->vbp_ = VbpColumn::Pack(codes, k, {.tau = spec.tau, .lanes = 4});
      break;
    case Layout::kHbp:
      column->hbp_ = HbpColumn::Pack(codes, k, {.tau = spec.tau, .lanes = 4});
      break;
    case Layout::kNaive:
      column->naive_ = NaiveColumn::Pack(codes, k);
      break;
    case Layout::kPadded:
      column->padded_ = PaddedColumn::Pack(codes, k);
      break;
  }
  // Allocation failure (real exhaustion or the "aligned_buffer/alloc"
  // failpoint) leaves the packed column empty; report it instead of handing
  // out a column whose kernels would read null storage.
  const bool storage_ok = [&] {
    switch (spec.layout) {
      case Layout::kVbp:
        return column->vbp_.storage_ok();
      case Layout::kHbp:
        return column->hbp_.storage_ok();
      case Layout::kNaive:
        return column->naive_.storage_ok();
      case Layout::kPadded:
        return column->padded_.storage_ok();
    }
    return true;
  }();
  if (!storage_ok) {
    return Status::Internal("allocation failed packing column '" + name +
                            "'");
  }
  column->codes_ = std::move(codes);
  if (valid != nullptr) {
    column->nullable_ = true;
    column->validity_ =
        FilterBitVector::FromBools(*valid, column->values_per_segment());
  }
  num_rows_ = column->codes_.size();
  columns_.push_back(std::move(column));
  return Status::Ok();
}

StatusOr<const Table::Column*> Table::GetColumn(
    const std::string& name) const {
  for (const auto& column : columns_) {
    if (column->name_ == name) return static_cast<const Column*>(column.get());
  }
  return Status::NotFound("no column named '" + name + "'");
}

}  // namespace icp
