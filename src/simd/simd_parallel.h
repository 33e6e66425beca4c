// Combined multi-threading + SIMD drivers (the shaded bars of Fig. 8).
//
// Every driver runs on a ParallelExecutor (in practice a
// sched::QuerySession) with morsels counted in segment-quads: each morsel
// runs the 256-bit Range kernels from vbp_simd.h / hbp_simd.h over its
// quads and folds into per-slot partial state, merged exactly as in
// parallel/parallel_aggregate.cc.

#ifndef ICP_SIMD_SIMD_PARALLEL_H_
#define ICP_SIMD_SIMD_PARALLEL_H_

#include <cstdint>
#include <optional>

#include "bitvector/filter_bit_vector.h"
#include "core/aggregate.h"
#include "layout/hbp_column.h"
#include "layout/vbp_column.h"
#include "parallel/executor.h"
#include "scan/predicate.h"
#include "simd/hbp_simd.h"
#include "simd/vbp_simd.h"
#include "util/cancellation.h"

namespace icp::simd {

/// `stats`, when non-null, receives the work the slots counted (summed
/// on the calling thread after the region). The executor polls `cancel`
/// once per morsel; a stopped scan's output is meaningless.
FilterBitVector ScanVbp(ParallelExecutor& ex, const VbpColumn& column,
                        CompareOp op, std::uint64_t c1, std::uint64_t c2 = 0,
                        const CancelContext* cancel = nullptr,
                        ScanStats* stats = nullptr);
FilterBitVector ScanHbp(ParallelExecutor& ex, const HbpColumn& column,
                        CompareOp op, std::uint64_t c1, std::uint64_t c2 = 0,
                        const CancelContext* cancel = nullptr,
                        ScanStats* stats = nullptr);

UInt128 SumVbp(ParallelExecutor& ex, const VbpColumn& column,
               const FilterBitVector& filter,
               const CancelContext* cancel = nullptr);
UInt128 SumHbp(ParallelExecutor& ex, const HbpColumn& column,
               const FilterBitVector& filter,
               const CancelContext* cancel = nullptr);

std::optional<std::uint64_t> MinVbp(ParallelExecutor& ex,
                                    const VbpColumn& column,
                                    const FilterBitVector& filter,
                                    const CancelContext* cancel = nullptr,
                                    AggStats* stats = nullptr);
std::optional<std::uint64_t> MaxVbp(ParallelExecutor& ex,
                                    const VbpColumn& column,
                                    const FilterBitVector& filter,
                                    const CancelContext* cancel = nullptr,
                                    AggStats* stats = nullptr);
std::optional<std::uint64_t> MinHbp(ParallelExecutor& ex,
                                    const HbpColumn& column,
                                    const FilterBitVector& filter,
                                    const CancelContext* cancel = nullptr,
                                    AggStats* stats = nullptr);
std::optional<std::uint64_t> MaxHbp(ParallelExecutor& ex,
                                    const HbpColumn& column,
                                    const FilterBitVector& filter,
                                    const CancelContext* cancel = nullptr,
                                    AggStats* stats = nullptr);

std::optional<std::uint64_t> RankSelectVbp(ParallelExecutor& ex,
                                           const VbpColumn& column,
                                           const FilterBitVector& filter,
                                           std::uint64_t r,
                                           const CancelContext* cancel =
                                               nullptr);
std::optional<std::uint64_t> RankSelectHbp(ParallelExecutor& ex,
                                           const HbpColumn& column,
                                           const FilterBitVector& filter,
                                           std::uint64_t r,
                                           const CancelContext* cancel =
                                               nullptr);
std::optional<std::uint64_t> MedianVbp(ParallelExecutor& ex,
                                       const VbpColumn& column,
                                       const FilterBitVector& filter,
                                       const CancelContext* cancel = nullptr);
std::optional<std::uint64_t> MedianHbp(ParallelExecutor& ex,
                                       const HbpColumn& column,
                                       const FilterBitVector& filter,
                                       const CancelContext* cancel = nullptr);

/// `stats`, when non-null, carries the fold counters for MIN/MAX and the
/// CountFilterSegments liveness summary for SUM/AVG/MEDIAN/RANK.
AggregateResult AggregateVbp(ParallelExecutor& ex, const VbpColumn& column,
                             const FilterBitVector& filter, AggKind kind,
                             std::uint64_t rank = 0,
                             const CancelContext* cancel = nullptr,
                             AggStats* stats = nullptr);
AggregateResult AggregateHbp(ParallelExecutor& ex, const HbpColumn& column,
                             const FilterBitVector& filter, AggKind kind,
                             std::uint64_t rank = 0,
                             const CancelContext* cancel = nullptr,
                             AggStats* stats = nullptr);

}  // namespace icp::simd

#endif  // ICP_SIMD_SIMD_PARALLEL_H_
