// Chrome trace-event recording: spans per worker thread, written as a
// trace.json loadable in chrome://tracing / Perfetto.
//
// Spans are recorded in raw TSC cycles (the StageTimer clock) and
// converted to microseconds at write time using a paired
// (rdtsc, steady_clock) calibration taken when tracing was enabled and
// again when the file is written. Recording takes a mutex — spans are
// region-granularity (one per morsel / engine stage), never per-word,
// so contention is irrelevant and the hot loops stay untouched.
//
// The whole facility compiles out under ICP_OBS=0: the macros expand to
// nothing and the inline stubs below keep callers linking.

#ifndef ICP_OBS_TRACE_H_
#define ICP_OBS_TRACE_H_

#include "obs/obs.h"  // for the ICP_OBS switch

#include <cstddef>
#include <cstdint>
#include <string>

namespace icp::obs {

#if ICP_OBS

/// Starts recording spans and takes the cycle/wall calibration sample.
/// Idempotent; does not clear previously recorded spans.
void EnableTracing();

/// Stops recording (spans stay buffered until ClearTrace).
void DisableTracing();

bool TracingEnabled();

/// Records one completed span. `name` must be a string literal or other
/// process-lifetime string; `tid` is the worker index (track in the
/// trace viewer). No-op unless tracing is enabled.
void RecordSpan(const char* name, int tid, std::uint64_t start_cycles,
                std::uint64_t dur_cycles);

/// Number of spans currently buffered (tests).
std::size_t TraceSpanCount();

/// Number of TraceSpans currently open (constructed while tracing was
/// enabled and not yet destroyed). WriteChromeTrace emits these as
/// clamped-duration events so a mid-flight dump shows active work.
std::size_t OpenTraceSpanCount();

/// Drops all buffered spans (tests / between queries).
void ClearTrace();

/// Writes the buffered spans to `path` as Chrome trace-event JSON
/// ({"traceEvents": [...], "displayTimeUnit": "ms"}). Returns false if
/// the file could not be written.
bool WriteChromeTrace(const std::string& path);

/// RAII span: records [construction, destruction) under `name` on track
/// `tid` if tracing is enabled when it closes. While open (and tracing
/// was enabled at construction) the span is registered so a trace
/// written mid-flight still shows it, with the duration clamped to the
/// write time.
class TraceSpan {
 public:
  TraceSpan(const char* name, int tid);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  int tid_;
  std::uint64_t start_;
  /// Registered in the open-span table at construction (tracing was on).
  bool registered_;
};

#else  // !ICP_OBS

inline void EnableTracing() {}
inline void DisableTracing() {}
inline bool TracingEnabled() { return false; }
inline void RecordSpan(const char*, int, std::uint64_t, std::uint64_t) {}
inline std::size_t TraceSpanCount() { return 0; }
inline std::size_t OpenTraceSpanCount() { return 0; }
inline void ClearTrace() {}
inline bool WriteChromeTrace(const std::string&) { return false; }

#endif  // ICP_OBS

}  // namespace icp::obs

/// Scoped span macro for instrumented regions:
///   ICP_OBS_TRACE_SPAN("sched.morsel", slot);
/// Expands to nothing under ICP_OBS=0 so hot TUs carry no obs symbols.
#if ICP_OBS
#define ICP_OBS_TRACE_SPAN(name, tid) \
  ::icp::obs::TraceSpan icp_obs_span_##__LINE__(name, tid)
#else
#define ICP_OBS_TRACE_SPAN(name, tid) \
  do {                                \
  } while (false)
#endif

#endif  // ICP_OBS_TRACE_H_
