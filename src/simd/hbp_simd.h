// 256-bit SIMD kernels for HBP scan and aggregation (paper Section IV-B).
//
// HBP algorithms rely on shifts, additions and subtractions whose carries
// must stay inside a segment; AVX2 provides them per 64-bit lane, so the
// kernels run four independent 64-bit algorithm instances — one segment per
// lane — exactly as the paper describes. A lanes == 4 HbpColumn interleaves
// four consecutive segments' words so each (group, sub-segment) access is
// one aligned 256-bit load, and the four segments' filter words are
// contiguous in the filter bit vector.
//
// The SUM / MIN/MAX / rank counting loops route through the kernel
// registry (simd/dispatch.h) with lanes == 4; the per-tier bodies —
// including the AVX2 widened-accumulator IN-WORD-SUM and the AVX-512
// vpmullq multiply plan — live in simd/agg_kernels.cc.

#ifndef ICP_SIMD_HBP_SIMD_H_
#define ICP_SIMD_HBP_SIMD_H_

#include <cstdint>
#include <optional>

#include "bitvector/filter_bit_vector.h"
#include "core/aggregate.h"
#include "layout/hbp_column.h"
#include "scan/predicate.h"
#include "simd/word256.h"
#include "util/cancellation.h"

namespace icp::simd {

/// Number of segment-quads of a lanes == 4 column.
inline std::size_t NumQuads(const HbpColumn& column) {
  return column.num_segments() / 4;
}

/// Per-field X >= C on four lanes (delimiter-borrow trick per lane).
inline Word256 FieldGe256(Word256 x, Word256 c, Word256 md) {
  return Sub64(x | md, c) & md;
}

/// Bit-parallel scan; requires column.lanes() == 4. `stats`, when
/// non-null, receives the counted work (see ScanHbpRange) and advances
/// the scan.* counters. The optional CancelContext is polled every
/// kCancelBatchSegments segments, as VbpScanner::Scan does; a stopped
/// scan's output is meaningless.
[[nodiscard]] FilterBitVector ScanHbp(const HbpColumn& column, CompareOp op,
                                      std::uint64_t c1, std::uint64_t c2 = 0,
                                      ScanStats* stats = nullptr,
                                      const CancelContext* cancel = nullptr);
/// Scans quads [quad_begin, quad_end) into `out`. `stats`, when non-null,
/// receives (and the scan.* counters advance by) the live segments
/// processed, the live segments of quads that early-stopped before the
/// last bit-group, and the sub-segment words loaded for live segments.
void ScanHbpRange(const HbpColumn& column, CompareOp op, std::uint64_t c1,
                  std::uint64_t c2, std::size_t quad_begin,
                  std::size_t quad_end, FilterBitVector* out,
                  ScanStats* stats = nullptr);

/// SUM: vectorized GET-VALUE-FILTER + IN-WORD-SUM per lane.
void AccumulateGroupSumsHbp(const HbpColumn& column,
                            const FilterBitVector& filter,
                            std::size_t quad_begin, std::size_t quad_end,
                            std::uint64_t* group_sums);
[[nodiscard]] UInt128 SumHbp(const HbpColumn& column,
                             const FilterBitVector& filter,
                             const CancelContext* cancel = nullptr);

/// MIN/MAX: four running extreme sub-segments (one per lane), 4 words per
/// group — group g's lane words at temp[g*4 .. g*4+3] (the layout
/// kern::hbp_extreme_fold consumes; no alignment requirement).
void InitSubSlotExtremeHbp(const HbpColumn& column, bool is_min, Word* temp);
/// `stats`, when non-null, receives (and the agg.* counters advance by)
/// the fold kernel's counters.
void SubSlotExtremeRangeHbp(const HbpColumn& column,
                            const FilterBitVector& filter,
                            std::size_t quad_begin, std::size_t quad_end,
                            bool is_min, Word* temp,
                            AggStats* stats = nullptr);
std::uint64_t ExtremeOfSubSlotsHbp(const HbpColumn& column, const Word* temp,
                                   bool is_min);
[[nodiscard]] std::optional<std::uint64_t> MinHbp(
    const HbpColumn& column, const FilterBitVector& filter,
    const CancelContext* cancel = nullptr, AggStats* stats = nullptr);
[[nodiscard]] std::optional<std::uint64_t> MaxHbp(
    const HbpColumn& column, const FilterBitVector& filter,
    const CancelContext* cancel = nullptr, AggStats* stats = nullptr);

/// MEDIAN / r-selection: vectorized candidate narrowing; histogram slot
/// extraction stays scalar per lane (gather-style work, as in Alg. 6).
[[nodiscard]] std::optional<std::uint64_t> RankSelectHbp(
    const HbpColumn& column, const FilterBitVector& filter, std::uint64_t r,
    const CancelContext* cancel = nullptr);
[[nodiscard]] std::optional<std::uint64_t> MedianHbp(
    const HbpColumn& column, const FilterBitVector& filter,
    const CancelContext* cancel = nullptr);

/// Dispatcher mirroring hbp::Aggregate. `stats`, when non-null, carries
/// the fold counters for MIN/MAX and the CountFilterSegments liveness
/// summary for SUM/AVG/MEDIAN/RANK.
AggregateResult AggregateHbp(const HbpColumn& column,
                             const FilterBitVector& filter, AggKind kind,
                             std::uint64_t rank = 0,
                             const CancelContext* cancel = nullptr,
                             AggStats* stats = nullptr);

}  // namespace icp::simd

#endif  // ICP_SIMD_HBP_SIMD_H_
