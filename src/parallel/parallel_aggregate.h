// Multi-threaded drivers for the bit-parallel scans and aggregates
// (paper Section IV-B).
//
// Every driver runs against a ParallelExecutor (executor.h) — in
// practice a sched::QuerySession, whose morsel-driven scheduler hands
// [0, num_segments) to worker slots in small morsels and shares workers
// across concurrent queries with stealing and admission control.
//
// Partial state per kind:
//   SUM    — per-slot bSum / group-sum arrays, added together;
//   MIN/MAX — per-slot running extreme segments, folded with SLOTMIN;
//   MEDIAN — the bit/bit-group loop is inherently global: every iteration
//            runs one parallel popcount/histogram reduction and one
//            parallel candidate update, synchronizing on the shared
//            counter exactly as the paper notes for Algorithm 3's line 8;
//   COUNT  — parallel popcount.
//
// Because an executor may hand one slot many disjoint subranges
// (morsels), per-slot accumulators are initialized up front on the
// calling thread and folded with += / merge semantics.

#ifndef ICP_PARALLEL_PARALLEL_AGGREGATE_H_
#define ICP_PARALLEL_PARALLEL_AGGREGATE_H_

#include <cstdint>
#include <optional>

#include "bitvector/filter_bit_vector.h"
#include "core/aggregate.h"
#include "layout/hbp_column.h"
#include "layout/vbp_column.h"
#include "parallel/executor.h"
#include "util/cancellation.h"

namespace icp::par {

/// Parallel COUNT: popcount of the filter, partitioned across slots.
std::uint64_t Count(ParallelExecutor& ex, const FilterBitVector& filter);

/// Every entry point below takes an optional CancelContext: the executor
/// checks it at least once per subrange (morsel) and stops issuing work
/// once it fires. Participants always drain cleanly; the partial result
/// is meaningless and the caller surfaces the context's Status.
///
/// Parallel SUM. The per-slot partial arrays count against the
/// executor's scratch budget; a refused budget returns 0 and the
/// executor latches kResourceExhausted for the engine to surface.
UInt128 Sum(ParallelExecutor& ex, const VbpColumn& column,
            const FilterBitVector& filter,
            const CancelContext* cancel = nullptr);
UInt128 Sum(ParallelExecutor& ex, const HbpColumn& column,
            const FilterBitVector& filter,
            const CancelContext* cancel = nullptr);

/// Parallel MIN / MAX. `stats`, when non-null, receives the fold
/// instrumentation summed across slots after the region completes.
std::optional<std::uint64_t> Min(ParallelExecutor& ex,
                                 const VbpColumn& column,
                                 const FilterBitVector& filter,
                                 const CancelContext* cancel = nullptr,
                                 AggStats* stats = nullptr);
std::optional<std::uint64_t> Max(ParallelExecutor& ex,
                                 const VbpColumn& column,
                                 const FilterBitVector& filter,
                                 const CancelContext* cancel = nullptr,
                                 AggStats* stats = nullptr);
std::optional<std::uint64_t> Min(ParallelExecutor& ex,
                                 const HbpColumn& column,
                                 const FilterBitVector& filter,
                                 const CancelContext* cancel = nullptr,
                                 AggStats* stats = nullptr);
std::optional<std::uint64_t> Max(ParallelExecutor& ex,
                                 const HbpColumn& column,
                                 const FilterBitVector& filter,
                                 const CancelContext* cancel = nullptr,
                                 AggStats* stats = nullptr);

/// Parallel r-selection / MEDIAN. The iterative loops additionally check
/// the context between bit / bit-group iterations and bail out with
/// nullopt.
std::optional<std::uint64_t> RankSelect(ParallelExecutor& ex,
                                        const VbpColumn& column,
                                        const FilterBitVector& filter,
                                        std::uint64_t r,
                                        const CancelContext* cancel = nullptr);
std::optional<std::uint64_t> RankSelect(ParallelExecutor& ex,
                                        const HbpColumn& column,
                                        const FilterBitVector& filter,
                                        std::uint64_t r,
                                        const CancelContext* cancel = nullptr);
std::optional<std::uint64_t> Median(ParallelExecutor& ex,
                                    const VbpColumn& column,
                                    const FilterBitVector& filter,
                                    const CancelContext* cancel = nullptr);
std::optional<std::uint64_t> Median(ParallelExecutor& ex,
                                    const HbpColumn& column,
                                    const FilterBitVector& filter,
                                    const CancelContext* cancel = nullptr);

}  // namespace icp::par

#endif  // ICP_PARALLEL_PARALLEL_AGGREGATE_H_
