// dsx::obs flight recorder - tail-based trace capture with reply-time
// verdicts, and the one path by which a request's spans reach the trace
// rings.
//
// Head sampling (DSX_TRACE, 1-in-N) is drawn per request in
// BatchCore::execute, before the run - so it decides BEFORE anyone knows a
// request will be slow, and the p99.9 stragglers that trip the SLO engine
// are only traced by luck. The flight recorder closes that gap with the
// tail-based idiom production tracing stacks use: every request's spans are
// observed anyway (timestamps the batch engine already takes, plus the
// per-layer sink), and at REPLY time - once the outcome is known - a verdict
// promotes the capture iff the request turned out interesting:
//
//   kAbsolute   latency >= the absolute threshold (DSX_FLIGHT=<ms>)
//   kAdaptive   latency above a threshold derived from the model's own
//               windowed p99 (LogHistogram::delta_snapshot over the
//               model's exported dsx_serve_request_latency_us series)
//   kArmed      the SLO engine downgraded the model's health, arming
//               aggressive capture for a cooldown window: anything above
//               the windowed p50 promotes until the window closes
//   kError      the batch threw - every request in it is promoted
//   kShed       the deadline batcher shed the request before execution
//
// One builder and one emitter serve both paths: request_spans() builds a
// request's timeline (full, or queue_wait only for thrown and shed
// requests) and emit() writes a capture's spans into the trace rings. A
// request that is only head-sampled is emitted under its sampled id and
// never filed; a request with a verdict goes through promote(), which emits
// it (under its sampled id when it has one, else a flight id from a
// distinct high range) and files it in a bounded global retained ring plus
// a bounded per-model top-K outlier table (GET /outliers); its latency is
// attached to the model's latency histogram as an OpenMetrics exemplar.
// Either way a request's timeline lands in the rings exactly once.
// Unpromoted scratch is recycled with zero allocation (the layer scratch is
// a reused thread_local, spans are materialized only for captured
// requests).
//
// Hot-path contract (the same two hard rules as trace.hpp): with capture off
// (DSX_FLIGHT=off) every site costs at most ONE relaxed atomic load
// (flight_enabled()); and the recorder NEVER perturbs float evaluation
// order - verdicts and spans are computed after the batch ran, from
// timestamps around the unmodified execution path, so bit-identity suites
// hold either way. With capture ON, the per-request cost is one relaxed
// counter RMW (the refresh trigger) plus a handful of relaxed loads (the
// judge); promotion-rate work (span materialization, ring/top-K inserts,
// trace emission) only happens for interesting requests.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "device/atomic_stats.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dsx::obs::flight {

namespace detail {
/// 1 = capture on, 0 = off. Initialised from DSX_FLIGHT on first use:
/// unset/empty = on with the default absolute threshold, "off"/"0" = off,
/// N >= 1 = on with an absolute threshold of N milliseconds.
std::atomic<int>& enabled_atomic();
}  // namespace detail

/// The one relaxed load every instrumentation site is allowed when off.
inline bool flight_enabled() {
  return detail::enabled_atomic().load(std::memory_order_relaxed) > 0;
}
void set_flight_enabled(bool on);

/// Absolute promotion threshold in microseconds (0 = the absolute rule is
/// disabled; adaptive/armed/error/shed verdicts still apply). Defaults to
/// 100 ms unless DSX_FLIGHT=<ms> overrides it.
int64_t absolute_threshold_us();
void set_absolute_threshold_us(int64_t us);

/// Why a capture was promoted. kNone = not interesting, recycle the scratch.
enum class Verdict {
  kNone,
  kAbsolute,
  kAdaptive,
  kArmed,
  kError,
  kShed,
};
const char* verdict_name(Verdict v);

/// One reconstructed span of a promoted capture. `name`/`cat` must be
/// string literals or intern()ed (the capture outlives the batch).
struct Span {
  const char* name = "";
  const char* cat = "serve";
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
};

/// A captured request timeline. Spans are materialized only for captured
/// (sampled or promoted) requests - the per-request scratch for the rest is
/// timestamps the batch engine already held plus the reused thread-local
/// layer sink.
struct Capture {
  const char* model = "";  // interned scope name
  /// The id this capture's spans are emitted under in the trace rings. A
  /// head-sampled request keeps its DSX_TRACE id; otherwise a flight id is
  /// drawn from kFlightIdBase upward (the ranges never collide).
  uint64_t trace_id = 0;
  int64_t latency_us = 0;
  /// The threshold that tripped (us); 0 for kError/kShed.
  int64_t threshold_us = 0;
  Verdict verdict = Verdict::kNone;
  int64_t batch = 0;    // micro-batch size the request rode in (0 = shed)
  int64_t ts_ns = 0;    // promotion time on the obs::now_ns() timeline
  int64_t wall_ms = 0;  // promotion wall time, unix epoch milliseconds
  std::vector<Span> spans;
};

/// Flight trace ids live at and above this base - far outside anything
/// sample_trace_id() (a small counter) can reach, so the two id spaces
/// never collide in the trace rings.
inline constexpr uint64_t kFlightIdBase = uint64_t{1} << 62;

/// Per-model verdict state: the windowed thresholds derived from the
/// model's exported latency series (every watched
/// dsx_serve_request_latency_us handle of the scope - one per replica
/// batcher) and the bounded top-K outlier table. Instances are registered
/// once per interned scope name and never freed (like metric cells), so raw
/// pointers stay valid for the process lifetime. observe()/judge() are safe
/// under concurrent callers.
class ModelState {
 public:
  /// Promotion thresholds refresh every kRefreshEvery observations, once
  /// the window holds at least kMinWindow samples.
  static constexpr int64_t kRefreshEvery = 256;
  static constexpr int64_t kMinWindow = 64;
  /// Bounded per-model outlier table (worst latency first).
  static constexpr size_t kTopK = 16;

  explicit ModelState(const char* name) : name_(name) {}
  const char* name() const { return name_; }

  /// Adds one batcher's latency series (microsecond samples) to the window.
  /// Watching a cell twice is a no-op - a hot-swapped fleet resolves the
  /// same {model[,replica]} cells again. Control-plane rate (batcher
  /// construction); blocks on the refresh lock.
  void watch(Histogram latency);

  /// Counts one answered request (whose latency the caller has already
  /// recorded into a watched series) and periodically re-derives the
  /// adaptive thresholds from the last window (delta_snapshot between the
  /// previous refresh's merged cumulative buckets and now): the adaptive
  /// promote threshold is 1.5x the windowed p99, the armed floor is the
  /// windowed p50. The refresh reads the watched handles directly (relaxed
  /// loads, no registry lock) under a try-lock - observers never block.
  void observe();

  /// The reply-time verdict. Relaxed loads only; kNone = not interesting.
  Verdict judge(int64_t latency_us) const;

  /// Arms aggressive capture until now + cooldown: judge() promotes
  /// anything above the windowed p50 (verdict kArmed) while armed.
  void arm(std::chrono::milliseconds cooldown);
  bool armed() const;

  /// Current thresholds (us); 0 = not yet derived / not armed.
  int64_t adaptive_threshold_us() const {
    return adaptive_us_.load(std::memory_order_relaxed);
  }
  int64_t armed_floor_us() const {
    return armed_floor_us_.load(std::memory_order_relaxed);
  }

  /// Inserts into the bounded top-K outlier table (promote() calls this).
  void add_outlier(const Capture& cap);
  /// Copy of the outlier table, worst latency first.
  std::vector<Capture> outliers() const;

  /// Clears the outlier table and thresholds; the window restarts from the
  /// watched series' current counts.
  void reset_for_test();

 private:
  /// Bucket-wise merge of every watched series. Requires refresh_mu_.
  device::LogHistogram::BucketSnapshot merged_locked() const;

  const char* name_;
  std::atomic<int64_t> observed_{0};
  std::atomic<int64_t> adaptive_us_{0};
  std::atomic<int64_t> armed_floor_us_{0};
  std::atomic<int64_t> armed_until_ns_{0};
  /// Guards watched_ and window_base_ (observers only try-lock it).
  mutable std::mutex refresh_mu_;
  std::vector<Histogram> watched_;
  device::LogHistogram::BucketSnapshot window_base_;
  mutable std::mutex topk_mu_;
  std::vector<Capture> topk_;  // sorted by latency_us descending
};

/// The state for interned scope `name`, registered on first use (process
/// lifetime, never freed). Returns nullptr for an empty name - unscoped
/// batchers have no flight state, mirroring their detached metrics.
ModelState* model_state(const char* name);

/// Draws the next flight trace id (kFlightIdBase + counter).
uint64_t next_flight_trace_id();

/// Builds one request's spans from timestamps the batch engine already
/// holds (obs::now_ns() timeline). `queue_end_ns` closes queue_wait: the
/// batch's execution start, or the shed instant. With `layers` (the batch
/// ran to completion) the timeline is full:
///   request > queue_wait / batch_assemble / batch_execute > <layers> > reply
/// Without it (thrown batch, shed request) only queue_wait is known.
std::vector<Span> request_spans(
    int64_t enq_ns, int64_t queue_end_ns,
    const std::vector<LayerRecord>* layers = nullptr, int64_t run_start_ns = 0,
    int64_t run_end_ns = 0, int64_t done_ns = 0);

/// The one emitter: writes `cap`'s spans into the trace rings on the
/// request track tid = cap.trace_id (args: latency_us, model), so GET
/// /trace and Perfetto resolve the id. A head-sampled request without a
/// verdict is emitted only; promote() emits and files.
void emit(const Capture& cap);

/// Promotes a capture: assigns a flight trace id when the request was not
/// head-sampled, stamps promotion times, emits the spans (emit()) under
/// that id, appends to the bounded global retained ring and to `st`'s
/// top-K table. Returns the trace id the capture was filed under.
/// Promotion-rate work - never on the hot path.
uint64_t promote(ModelState* st, Capture cap);

/// Arms `model` for `cooldown` (journal: EventKind::kFlight). The SLO
/// engine calls this on every Healthy->Degraded/Critical downgrade; tests
/// and operators can call it directly. Unknown models register fresh state.
void arm(const std::string& model, std::chrono::milliseconds cooldown);

/// Capacity of the global retained ring of promoted captures.
inline constexpr size_t kRetainedCap = 256;

/// Copy of the global retained ring, oldest first.
std::vector<Capture> retained();

struct FlightStats {
  int64_t promoted = 0;  // captures ever promoted
  int64_t retained = 0;  // captures currently in the global ring
  int models = 0;        // ModelStates registered
};
FlightStats flight_stats();

/// The /outliers body: {"outliers":[...]} - every model's top-K table,
/// worst latency first within each model, with the full span breakdown.
std::string outliers_json();

/// Empties the retained ring and every model's top-K/armed/adaptive state
/// (the states stay registered). Test isolation only.
void reset_for_test();

}  // namespace dsx::obs::flight
