// dsx::obs tracing - per-request timelines into per-thread lock-free rings,
// exported as Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
//
// Answering "where did this request's 40 ms go?" needs a timeline, not a
// histogram. Head sampling (DSX_TRACE=N -> 1-in-N; off by default) is
// drawn per request in serve::BatchCore::execute, before the batch runs -
// submit never touches obs. A request's lifecycle reaches the rings through
// ONE emitter, flight::emit (obs/flight.hpp), shared by head-sampled and
// flight-promoted requests, so a request that is both lands once, under its
// sampled id. Its spans are complete ("X") events on a synthetic
// per-request track (pid = kRequestPid, tid = trace id; every span carries
// args latency_us and model):
//
//   request                 submit -> reply          (the latency sample)
//     queue_wait            submit -> batch formation
//     batch_assemble        micro-batch tensor assembly
//     batch_execute         CompiledModel::run
//       <layer name>        one event per plan layer (ScopedLayerSink)
//     reply                 output split + promise fulfillment
//
// Hot-path contract (hard): when tracing is off every instrumentation site
// costs at most ONE relaxed atomic load (trace_enabled()); and tracing NEVER
// perturbs float evaluation order - events are built from timestamps taken
// around the existing execution path, after the batch ran, so bit-identity
// suites hold with instrumentation compiled in.
//
// Recording is per-thread single-writer rings (overwrite-oldest, bounded
// memory); export drains every ring. Readers racing writers may observe a
// torn in-flight slot - acceptable for a best-effort flight recorder.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace dsx::obs {

/// Synthetic "process" grouping the per-request tracks in the trace UI.
inline constexpr uint64_t kRequestPid = 1;

/// One complete ("X") trace event. `name`/`cat`/string args must be
/// string literals or intern()ed strings (the ring stores pointers).
struct TraceEvent {
  const char* name = "";
  const char* cat = "";
  uint64_t pid = kRequestPid;
  uint64_t tid = 0;
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  const char* arg_name = nullptr;  // optional integer argument
  int64_t arg_value = 0;
  const char* sarg_name = nullptr;  // optional string argument
  const char* sarg_value = nullptr;
};

namespace detail {
/// 0 = tracing off, N >= 1 = sample one request in N.
std::atomic<int>& sampling_atomic();
}  // namespace detail

/// The one relaxed load every instrumentation site is allowed when off.
inline bool trace_enabled() {
  return detail::sampling_atomic().load(std::memory_order_relaxed) > 0;
}

/// Current sampling rate (0 = off).
int trace_sampling();
/// Sets the sampling rate: 0/negative = off, N = 1-in-N requests traced.
/// Initialised from DSX_TRACE ("off"/"0" = off, N = 1-in-N) on first use.
void set_trace_sampling(int n);

/// Draws the next trace id under the sampling rate: 0 = not sampled, else a
/// process-unique nonzero id. One relaxed load when tracing is off.
uint64_t sample_trace_id();

/// Nanoseconds on the steady clock relative to the process trace origin
/// (negative-free for any timestamp taken after process start).
int64_t now_ns();
/// Converts a steady_clock time_point (e.g. Request::enqueued) to the same
/// origin-relative nanoseconds.
int64_t steady_ns(std::chrono::steady_clock::time_point tp);

/// Appends `ev` to the calling thread's ring (registering the ring on first
/// use). Wait-free single-writer; oldest events are overwritten when full.
void record_event(const TraceEvent& ev);

struct TraceStats {
  int64_t recorded = 0;   // events ever recorded
  int64_t retained = 0;   // events currently held across all rings
  int64_t dropped = 0;    // events overwritten before export
  int threads = 0;        // rings registered
};
TraceStats trace_stats();

/// Publishes trace_stats() into the metrics registry as
/// dsx_obs_trace_retained / dsx_obs_trace_threads gauges and the
/// dsx_obs_trace_dropped_total counter (monotone even across clear_trace(),
/// which resets the underlying drop counters - the published counter only
/// ever advances by positive deltas). Call at scrape time.
void publish_trace_stats();

/// Copies every retained event, oldest-first per ring, sorted by start_ns.
std::vector<TraceEvent> trace_snapshot();

/// Empties every ring (drop counters reset too). Recording may continue.
void clear_trace();

/// The retained events as Chrome trace-event JSON (the {"traceEvents": [...]}
/// wrapper, "X" events with ts/dur in microseconds, plus "M" metadata naming
/// the request tracks). Loadable in Perfetto and chrome://tracing.
std::string chrome_trace_json();
/// Writes chrome_trace_json() to `path`. Returns false (with a message on
/// stderr) when the file cannot be written.
bool export_chrome_trace(const std::string& path);

/// Interns `s` into a process-lifetime string pool and returns a stable
/// pointer - the bridge from std::string names (layers, models) to the
/// ring's const char* fields. Takes a mutex; call OUTSIDE hot loops when
/// possible (per traced batch, not per request).
const char* intern(const std::string& s);

// ---- per-layer timing sink ------------------------------------------------

/// One timed layer execution, recorded by nn::Sequential::forward_inference
/// when a sink is installed on the current thread.
struct LayerRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
};

namespace detail {
extern thread_local std::vector<LayerRecord>* tl_layer_sink;
}  // namespace detail

/// The current thread's layer sink (null = per-layer timing off; the check
/// is one thread-local load per Sequential forward).
inline std::vector<LayerRecord>* layer_sink() { return detail::tl_layer_sink; }

/// RAII installer: the batch engine scopes a sink around CompiledModel::run
/// only for batches with a head-sampled request or with flight capture on,
/// so other batches never pay for per-layer timing.
class ScopedLayerSink {
 public:
  explicit ScopedLayerSink(std::vector<LayerRecord>* sink)
      : saved_(detail::tl_layer_sink) {
    detail::tl_layer_sink = sink;
  }
  ~ScopedLayerSink() { detail::tl_layer_sink = saved_; }
  ScopedLayerSink(const ScopedLayerSink&) = delete;
  ScopedLayerSink& operator=(const ScopedLayerSink&) = delete;

 private:
  std::vector<LayerRecord>* saved_;
};

}  // namespace dsx::obs
