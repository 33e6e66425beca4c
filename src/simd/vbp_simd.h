// 256-bit SIMD kernels for VBP scan and aggregation (paper Section IV-B).
//
// A lanes == 4 VbpColumn interleaves the words of four consecutive segments,
// so the same (bit, segment-quad) load brings one 256-bit register holding
// bit j of 256 values — VBP algorithms use only bitwise operations and
// popcounts, so they run unchanged on the wide word. Popcounts decompose
// into four scalar POPCNTs (no 256-bit POPCNT in AVX2), which is why the
// paper observes smaller SIMD gains for VBP than for HBP.
//
// All kernels take [quad_begin, quad_end) super-segment (segment-quad)
// ranges so the multi-threaded driver can partition work; full-range
// convenience wrappers are provided.

#ifndef ICP_SIMD_VBP_SIMD_H_
#define ICP_SIMD_VBP_SIMD_H_

#include <cstdint>
#include <optional>

#include "bitvector/filter_bit_vector.h"
#include "core/aggregate.h"
#include "layout/vbp_column.h"
#include "scan/predicate.h"
#include "simd/word256.h"
#include "util/cancellation.h"

namespace icp::simd {

/// Number of segment-quads of a lanes == 4 column.
inline std::size_t NumQuads(const VbpColumn& column) {
  return column.num_segments() / 4;
}

/// Bit-parallel scan; requires column.lanes() == 4. `stats`, when
/// non-null, receives the analytic model of RecordModeledScan (the SIMD
/// kernel is uninstrumented inside). The optional CancelContext is
/// polled every kCancelBatchSegments segments, as VbpScanner::Scan does;
/// a stopped scan's output is meaningless.
[[nodiscard]] FilterBitVector ScanVbp(const VbpColumn& column, CompareOp op,
                                      std::uint64_t c1, std::uint64_t c2 = 0,
                                      ScanStats* stats = nullptr,
                                      const CancelContext* cancel = nullptr);
void ScanVbpRange(const VbpColumn& column, CompareOp op, std::uint64_t c1,
                  std::uint64_t c2, std::size_t quad_begin,
                  std::size_t quad_end, FilterBitVector* out);

/// SUM: per-bit popcount accumulation on 256-bit words.
void AccumulateBitSumsVbp(const VbpColumn& column,
                          const FilterBitVector& filter,
                          std::size_t quad_begin, std::size_t quad_end,
                          std::uint64_t* bit_sums);
[[nodiscard]] UInt128 SumVbp(const VbpColumn& column,
                             const FilterBitVector& filter,
                             const CancelContext* cancel = nullptr);

/// MIN/MAX: 256-value slot-wise extreme state, 4*k words — plane j's four
/// lane words at temp[j*4 .. j*4+3] (the layout kern::vbp_extreme_fold
/// consumes; no alignment requirement).
void InitSlotExtremeVbp(int k, bool is_min, Word* temp);
void SlotExtremeRangeVbp(const VbpColumn& column,
                         const FilterBitVector& filter,
                         std::size_t quad_begin, std::size_t quad_end,
                         bool is_min, Word* temp);
/// Collapses a 256-slot state to the extreme value.
std::uint64_t ExtremeOfSlotsVbp(const Word* temp, int k, bool is_min);
[[nodiscard]] std::optional<std::uint64_t> MinVbp(
    const VbpColumn& column, const FilterBitVector& filter,
    const CancelContext* cancel = nullptr);
[[nodiscard]] std::optional<std::uint64_t> MaxVbp(
    const VbpColumn& column, const FilterBitVector& filter,
    const CancelContext* cancel = nullptr);

/// MEDIAN / r-selection on 256-bit candidate vectors.
[[nodiscard]] std::optional<std::uint64_t> RankSelectVbp(
    const VbpColumn& column, const FilterBitVector& filter, std::uint64_t r,
    const CancelContext* cancel = nullptr);
[[nodiscard]] std::optional<std::uint64_t> MedianVbp(
    const VbpColumn& column, const FilterBitVector& filter,
    const CancelContext* cancel = nullptr);

/// Dispatcher mirroring vbp::Aggregate. `stats`, when non-null, carries
/// the CountFilterSegments liveness summary for every kind (the SIMD fold
/// kernels report no per-fold counters).
AggregateResult AggregateVbp(const VbpColumn& column,
                             const FilterBitVector& filter, AggKind kind,
                             std::uint64_t rank = 0,
                             const CancelContext* cancel = nullptr,
                             AggStats* stats = nullptr);

}  // namespace icp::simd

#endif  // ICP_SIMD_VBP_SIMD_H_
