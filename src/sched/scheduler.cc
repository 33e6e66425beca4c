#include "sched/scheduler.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <deque>

#include "obs/obs.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace icp::sched {

// One parallel-for region: per-slot morsel deques plus the completion
// accounting. Shared-ptr held by the submitting caller and by every
// worker snapshot that touches it, so draining/finishing never races
// destruction.
struct MorselScheduler::Region {
  // Guards `shards` (pops, steals, drains). Morsel bodies run outside it.
  Mutex mu;
  std::vector<std::deque<Morsel>> shards ICP_GUARDED_BY(mu);
  // not-guarded: set before the region is published (free_slots release
  // store) and read-only afterwards.
  int parallelism = 0;

  /// Bitmask of claimable slots; bit i free <=> no participant currently
  /// runs morsels as slot i.
  std::atomic<std::uint64_t> free_slots{0};
  /// Morsels still sitting in shards (fast emptiness probe).
  std::atomic<std::uint64_t> queued{0};
  /// Morsels not yet completed or drained; 0 <=> region done. Decrements
  /// use acq_rel so the caller's final acquire load sees all fn writes.
  std::atomic<std::uint64_t> remaining{0};

  std::atomic<std::uint64_t> cancelled{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> drops{0};

  // not-guarded: set before publication, read-only afterwards.
  const CancelContext* cancel = nullptr;
  // not-guarded: set before publication, read-only afterwards.
  const std::function<void(int, std::size_t, std::size_t)>* fn = nullptr;

  Mutex done_mu;
  std::condition_variable_any done_cv;
};

// Completes `n` morsels and pokes the region's caller (which may be
// waiting either for completion or for a freed slot). The empty critical
// section pairs with the caller's predicate check under done_mu.
void MorselScheduler::FinishAndNotify(Region& r, std::uint64_t n) {
  // order: acq_rel(region-remaining) — the release half publishes this
  // morsel's fn writes to the caller's final acquire load; the acquire
  // half chains prior participants' decrements.
  r.remaining.fetch_sub(n, std::memory_order_acq_rel);
  { MutexLock lock(r.done_mu); }
  r.done_cv.notify_all();
}

MorselScheduler::MorselScheduler(int num_workers) {
  ICP_CHECK_GE(num_workers, 0);
  workers_.reserve(static_cast<std::size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

MorselScheduler::~MorselScheduler() {
  {
    MutexLock lock(mu_);
    ICP_CHECK(regions_.empty());  // sessions must not outlive the scheduler
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

// cancellation: checks — polls the region's CancelContext before every
// morsel it runs and drains the queue once the context fires.
bool MorselScheduler::TryRunOneMorsel(Region& r) {
  // Claim a free slot; without one this participant cannot help (the
  // region is already running at its granted parallelism).
  // order: acquire(free-slots) — pairs with the release fetch_or/store
  // publishing the slot, so the claimer sees the region fully set up.
  std::uint64_t mask = r.free_slots.load(std::memory_order_acquire);
  int slot = 0;
  while (true) {
    if (mask == 0) return false;
    slot = std::countr_zero(mask);
    // order: acq_rel(free-slots) — acquire on the claim synchronizes
    // with the releasing side; release keeps the claim visible to the
    // next CAS contender. Failure reloads with acquire for the retry.
    if (r.free_slots.compare_exchange_weak(
            mask, mask & ~(std::uint64_t{1} << slot),
            std::memory_order_acq_rel, std::memory_order_acquire)) {
      break;
    }
  }

  Morsel m;
  bool got = false;
  bool stolen = false;
  {
    MutexLock lock(r.mu);
    std::deque<Morsel>& own = r.shards[static_cast<std::size_t>(slot)];
    if (!own.empty()) {
      m = own.front();
      own.pop_front();
      got = true;
    } else {
      for (int j = 1; j < r.parallelism && !got; ++j) {
        std::deque<Morsel>& other =
            r.shards[static_cast<std::size_t>((slot + j) % r.parallelism)];
        if (other.empty()) continue;
        // "sched/steal" simulates a lost steal race: the thief backs off
        // and the morsel stays queued for another participant.
        if (ICP_FAILPOINT("sched/steal")) continue;
        m = other.back();
        other.pop_back();
        got = true;
        stolen = true;
      }
    }
  }
  if (!got) {
    // order: release(free-slots) — returns the untouched slot; pairs
    // with the next claimer's acquire.
    r.free_slots.fetch_or(std::uint64_t{1} << slot,
                          std::memory_order_release);
    return false;
  }
  // order: relaxed — fast emptiness probe only; the authoritative count
  // is `remaining`, which carries the ordering.
  r.queued.fetch_sub(1, std::memory_order_relaxed);

  // Morsel-boundary cancellation: poll before running; once the context
  // fires, drain the whole queue so the query releases its cores within
  // one in-flight morsel per slot.
  if (r.cancel != nullptr && r.cancel->active() && r.cancel->ShouldStop()) {
    std::uint64_t cleared = 0;
    {
      MutexLock lock(r.mu);
      // cancellation: exempt — this loop IS the post-cancel drain; it
      // discards queued morsels and must run to completion.
      for (std::deque<Morsel>& shard : r.shards) {
        cleared += shard.size();
        shard.clear();
      }
    }
    // order: relaxed — emptiness probe; `remaining` (below, via
    // FinishAndNotify) carries the ordering for completion.
    if (cleared > 0) r.queued.fetch_sub(cleared, std::memory_order_relaxed);
    // order: relaxed — statistics; read after the region joined.
    r.cancelled.fetch_add(cleared + 1, std::memory_order_relaxed);
    ICP_OBS_ADD(SchedMorselsCancelled, cleared + 1);
    // order: release(free-slots) — returns the slot after the drain;
    // pairs with the next claimer's acquire.
    r.free_slots.fetch_or(std::uint64_t{1} << slot,
                          std::memory_order_release);
    FinishAndNotify(r, cleared + 1);
    return true;
  }

  // "sched/dequeue" simulates a dispatch that loses its morsel (worker
  // death between pop and run): the morsel never executes but the region
  // still completes; the drop surfaces as Status Internal via the
  // session.
  if (ICP_FAILPOINT("sched/dequeue")) {
    // order: relaxed — statistics; read after the region joined.
    r.drops.fetch_add(1, std::memory_order_relaxed);
    // order: release(free-slots) — returns the slot; pairs with the
    // next claimer's acquire.
    r.free_slots.fetch_or(std::uint64_t{1} << slot,
                          std::memory_order_release);
    FinishAndNotify(r, 1);
    return true;
  }

  {
    ICP_OBS_TRACE_SPAN("sched.morsel", slot);
    (*r.fn)(slot, m.begin, m.end);
  }
  if (stolen) {
    // order: relaxed — statistics; read after the region joined.
    r.steals.fetch_add(1, std::memory_order_relaxed);
    ICP_OBS_INCREMENT(SchedSteals);
  }
  ICP_OBS_INCREMENT(SchedMorselsCompleted);
  // order: release(free-slots) — returns the slot after running fn;
  // pairs with the next claimer's acquire.
  r.free_slots.fetch_or(std::uint64_t{1} << slot,
                        std::memory_order_release);
  FinishAndNotify(r, 1);
  return true;
}

void MorselScheduler::WorkerLoop() {
  std::size_t cursor = 0;
  std::vector<std::shared_ptr<Region>> snapshot;
  while (true) {
    std::uint64_t seen = 0;
    {
      MutexLock lock(mu_);
      if (shutdown_) return;
      snapshot = regions_;
      seen = epoch_;
    }
    bool did_work = false;
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
      Region& region = *snapshot[(cursor + i) % snapshot.size()];
      if (TryRunOneMorsel(region)) {
        did_work = true;
        // Rotate the scan start so K concurrent queries share this
        // worker at morsel granularity instead of one query hogging it.
        ++cursor;
        break;
      }
    }
    snapshot.clear();
    if (did_work) continue;
    MutexLock lock(mu_);
    if (shutdown_) return;
    if (epoch_ != seen) continue;
    if (regions_.empty()) {
      // Idle: RunRegion bumps the epoch and notifies under mu_, and the
      // destructor does the same for shutdown, so no wake can be lost.
      cv_.wait(lock);
    } else {
      // The timeout is a liveness backstop while a region is active:
      // freed slots do not bump the epoch, so without it a worker could
      // sleep while work remains.
      cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
  }
}

void MorselScheduler::RunRegion(
    int parallelism, std::size_t total, const CancelContext* cancel,
    const std::function<void(int, std::size_t, std::size_t)>& fn,
    MorselStats* stats) {
  if (total == 0) return;
  const std::size_t num_morsels =
      (total + kMorselSegments - 1) / kMorselSegments;
  int p = std::clamp(parallelism, 1, kMaxRegionSlots);
  p = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(p), num_morsels));

  auto region = std::make_shared<Region>();
  region->parallelism = p;
  region->cancel = cancel;
  region->fn = &fn;
  {
    // Uncontended (the region is unpublished); taken so the guarded
    // shards are only ever touched under their lock.
    Region& r = *region;
    MutexLock lock(r.mu);
    r.shards.resize(static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i) {
      // Contiguous pre-distribution: uncontended, the region touches
      // memory in the same order as a static split.
      const auto [mb, me] = PartitionRange(num_morsels, p, i);
      for (std::size_t j = mb; j < me; ++j) {
        r.shards[static_cast<std::size_t>(i)].push_back(
            Morsel{j * kMorselSegments,
                   std::min(total, (j + 1) * kMorselSegments)});
      }
    }
  }
  // order: relaxed — initialization before publication; the free_slots
  // release store below (and the regions_ mutex) publish these counts.
  region->queued.store(num_morsels, std::memory_order_relaxed);
  // order: relaxed — see `queued` above; published by free_slots.
  region->remaining.store(num_morsels, std::memory_order_relaxed);
  // order: release(free-slots) — publishes the fully built region
  // (shards, counters, fn) to the first claimer's acquire.
  region->free_slots.store(
      p == kMaxRegionSlots ? ~std::uint64_t{0}
                           : (std::uint64_t{1} << p) - 1,
      std::memory_order_release);
  ICP_OBS_ADD(SchedMorselsDispatched, num_morsels);

  {
    MutexLock lock(mu_);
    regions_.push_back(region);
    ++epoch_;
  }
  cv_.notify_all();

  // The caller participates, then waits for completion — re-engaging
  // whenever a slot frees while morsels remain queued.
  while (true) {
    while (TryRunOneMorsel(*region)) {
    }
    // order: acquire(region-remaining) — pairs with FinishAndNotify's
    // acq_rel decrement so the caller sees every morsel's fn writes.
    if (region->remaining.load(std::memory_order_acquire) == 0) break;
    MutexLock lock(region->done_mu);
    region->done_cv.wait_for(
        lock, std::chrono::milliseconds(1), [&region] {
          // order: acquire(region-remaining) — same pairing as the
          // break check above; the wake predicate must not run ahead
          // of the finishing morsel's writes.
          return region->remaining.load(std::memory_order_acquire) == 0 ||
                 // order: relaxed — wake heuristics only; a stale read
                 // re-polls one wait_for tick later.
                 (region->queued.load(std::memory_order_relaxed) > 0 &&
                  region->free_slots.load(std::memory_order_relaxed) != 0);
        });
  }

  {
    MutexLock lock(mu_);
    regions_.erase(std::find(regions_.begin(), regions_.end(), region));
  }

  if (stats != nullptr) {
    // order: relaxed — statistics reads after the acquire on
    // `remaining` already ordered every participant's writes.
    const std::uint64_t cancelled =
        region->cancelled.load(std::memory_order_relaxed);
    // order: relaxed — statistics read; see `cancelled` above.
    const std::uint64_t drops =
        region->drops.load(std::memory_order_relaxed);
    stats->dispatched += num_morsels;
    stats->completed += num_morsels - cancelled - drops;
    stats->cancelled += cancelled;
    // order: relaxed — statistics read; see `cancelled` above.
    stats->steals += region->steals.load(std::memory_order_relaxed);
    stats->dropped = stats->dropped || drops > 0;
  }
}

}  // namespace icp::sched
