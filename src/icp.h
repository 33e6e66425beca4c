// Umbrella header: the library's public API in one include.
//
//   #include "icp.h"
//
// Downstream users who only need a subset should include the specific
// headers instead (they are all self-contained).

#ifndef ICP_ICP_H_
#define ICP_ICP_H_

// Utilities.
#include "util/bits.h"           // IWYU pragma: export
#include "util/cancellation.h"   // IWYU pragma: export
#include "util/dates.h"          // IWYU pragma: export
#include "util/failpoint.h"      // IWYU pragma: export
#include "util/random.h"         // IWYU pragma: export
#include "util/rdtsc.h"          // IWYU pragma: export
#include "util/status.h"         // IWYU pragma: export

// Storage.
#include "bitvector/filter_bit_vector.h"  // IWYU pragma: export
#include "encode/column_encoder.h"        // IWYU pragma: export
#include "layout/hbp_column.h"            // IWYU pragma: export
#include "layout/layout.h"                // IWYU pragma: export
#include "layout/naive_column.h"          // IWYU pragma: export
#include "layout/padded_column.h"         // IWYU pragma: export
#include "layout/vbp_column.h"            // IWYU pragma: export

// Scans.
#include "scan/hbp_scanner.h"     // IWYU pragma: export
#include "scan/naive_scanner.h"   // IWYU pragma: export
#include "scan/padded_scanner.h"  // IWYU pragma: export
#include "scan/predicate.h"       // IWYU pragma: export
#include "scan/vbp_scanner.h"     // IWYU pragma: export

// Aggregation (the paper's contribution and its baselines).
#include "core/aggregate.h"         // IWYU pragma: export
#include "core/hbp_aggregate.h"     // IWYU pragma: export
#include "core/in_word_sum.h"       // IWYU pragma: export
#include "core/naive_aggregate.h"   // IWYU pragma: export
#include "core/nbp_aggregate.h"     // IWYU pragma: export
#include "core/padded_aggregate.h"  // IWYU pragma: export
#include "core/top_k.h"            // IWYU pragma: export
#include "core/vbp_aggregate.h"     // IWYU pragma: export

// Observability (process counters, histograms, the query journal,
// stage timers, tracing, and the embedded admin plane).
#include "obs/admin_server.h"  // IWYU pragma: export
#include "obs/histogram.h"     // IWYU pragma: export
#include "obs/journal.h"       // IWYU pragma: export
#include "obs/metrics.h"       // IWYU pragma: export
#include "obs/obs.h"           // IWYU pragma: export
#include "obs/query_stats.h"   // IWYU pragma: export
#include "obs/stage_timer.h"   // IWYU pragma: export
#include "obs/trace.h"         // IWYU pragma: export

// Parallel and SIMD execution; overload-safe scheduling and admission.
#include "parallel/executor.h"            // IWYU pragma: export
#include "parallel/parallel_aggregate.h"  // IWYU pragma: export
#include "parallel/parallel_nbp.h"        // IWYU pragma: export
#include "sched/admission.h"              // IWYU pragma: export
#include "sched/morsel.h"                 // IWYU pragma: export
#include "sched/scheduler.h"              // IWYU pragma: export
#include "simd/hbp_simd.h"                // IWYU pragma: export
#include "simd/simd_parallel.h"           // IWYU pragma: export
#include "simd/vbp_simd.h"                // IWYU pragma: export
#include "simd/word256.h"                 // IWYU pragma: export

// Query engine and I/O.
#include "engine/engine.h"      // IWYU pragma: export
#include "engine/expression.h"    // IWYU pragma: export
#include "engine/query_parser.h"  // IWYU pragma: export
#include "engine/table.h"       // IWYU pragma: export
#include "io/csv_loader.h"      // IWYU pragma: export
#include "io/table_io.h"        // IWYU pragma: export

#endif  // ICP_ICP_H_
