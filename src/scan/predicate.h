// Comparison operators supported by the bit-parallel scans of [2]
// (Li & Patel, BitWeaving, SIGMOD 2013), which this library implements as
// the substrate for the paper's aggregation algorithms.

#ifndef ICP_SCAN_PREDICATE_H_
#define ICP_SCAN_PREDICATE_H_

#include <cstdint>

#include "obs/obs.h"
#include "simd/dispatch.h"

namespace icp {

enum class CompareOp {
  kEq,       // v == c1
  kNe,       // v != c1
  kLt,       // v <  c1
  kLe,       // v <= c1
  kGt,       // v >  c1
  kGe,       // v >= c1
  kBetween,  // c1 <= v <= c2 (inclusive)
};

/// Human-readable operator name ("==", "BETWEEN", ...).
const char* CompareOpToString(CompareOp op);

/// Scalar reference semantics, used by the naive scanner and by tests.
inline bool EvalCompare(std::uint64_t v, CompareOp op, std::uint64_t c1,
                        std::uint64_t c2 = 0) {
  switch (op) {
    case CompareOp::kEq:
      return v == c1;
    case CompareOp::kNe:
      return v != c1;
    case CompareOp::kLt:
      return v < c1;
    case CompareOp::kLe:
      return v <= c1;
    case CompareOp::kGt:
      return v > c1;
    case CompareOp::kGe:
      return v >= c1;
    case CompareOp::kBetween:
      return c1 <= v && v <= c2;
  }
  return false;
}

/// Normalizes scan constants against the k-bit code domain. Returns true if
/// the scan is degenerate (uniformly all-pass or none-pass, reported via
/// `*all_pass`) because a constant lies outside [0, 2^k). For BETWEEN, `*c2`
/// is clamped to the domain maximum when the scan is not degenerate.
bool ScanIsDegenerate(int k, CompareOp op, std::uint64_t c1, std::uint64_t* c2,
                      bool* all_pass);

/// Statistics a scan can optionally report (used by EXPLAIN ANALYZE and
/// the early-stopping and word-group ablation benchmarks): the kernel
/// registry's own counter struct, which the scan kernels fill in place.
using ScanStats = kern::ScanCounters;

/// Adds `from` into `*to`, field by field.
inline void AddScanStats(const ScanStats& from, ScanStats* to) {
  to->words_examined += from.words_examined;
  to->segments_processed += from.segments_processed;
  to->segments_early_stopped += from.segments_early_stopped;
}

/// Adds the per-slot stats of a parallel region into `stats` (when
/// non-null) once the region completes; the slots' scan ranges already
/// advanced the process-wide counters.
inline void AddSlotScanStats(const ScanStats* slots, int n,
                             ScanStats* stats) {
  if (stats == nullptr) return;
  for (int i = 0; i < n; ++i) AddScanStats(slots[i], stats);
}

/// Adds one scan range's locally counted work to `stats` and advances the
/// process-wide scan.* counters: one batched add per range, so the kernel
/// loops carry no counter traffic. No-op when `stats` is null.
inline void MergeScanStats(const ScanStats& local, ScanStats* stats) {
  if (stats == nullptr) return;
  AddScanStats(local, stats);
  ICP_OBS_ADD(ScanWordsExamined, local.words_examined);
  ICP_OBS_ADD(ScanSegmentsProcessed, local.segments_processed);
  ICP_OBS_ADD(ScanSegmentsEarlyStopped, local.segments_early_stopped);
}

}  // namespace icp

#endif  // ICP_SCAN_PREDICATE_H_
