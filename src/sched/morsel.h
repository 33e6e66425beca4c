// A morsel: one small contiguous segment range, the scheduling unit of
// the shared worker pool (Leis et al., SIGMOD'14).

#ifndef ICP_SCHED_MORSEL_H_
#define ICP_SCHED_MORSEL_H_

#include <cstddef>
#include <utility>

#include "util/check.h"

namespace icp::sched {

/// Half-open segment range [begin, end) of one parallel-for region.
struct Morsel {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Segments per morsel. 1024 segments is ~64K tuples under VBP — tens of
/// microseconds of kernel work per morsel, so:
///   * worst-case cancellation latency is one in-flight morsel per slot
///     (the queue itself drains instantly);
///   * the per-morsel dispatch cost (one mutex-guarded deque pop plus a
///     std::function call) is amortized over enough kernel work to keep
///     the parallelism-1 morsel path within 5% of the serial kernel, as
///     CI guards (see docs/scheduler.md and EXPERIMENTS.md);
///   * a 1M-row column still yields dozens of morsels, enough for
///     stealing to rebalance skewed shards.
inline constexpr std::size_t kMorselSegments = 1024;

}  // namespace icp::sched

namespace icp {

/// The begin/end of chunk `index` when splitting `total` items
/// into `parts` contiguous chunks as evenly as possible.
inline std::pair<std::size_t, std::size_t> PartitionRange(std::size_t total,
                                                          int parts,
                                                          int index) {
  ICP_DCHECK(parts >= 1 && index >= 0 && index < parts);
  const std::size_t base = total / parts;
  const std::size_t extra = total % parts;
  const std::size_t idx = static_cast<std::size_t>(index);
  const std::size_t begin = idx * base + (idx < extra ? idx : extra);
  return {begin, begin + base + (idx < extra ? 1 : 0)};
}

}  // namespace icp

#endif  // ICP_SCHED_MORSEL_H_
