// Shared request/stats machinery of the serving tier.
//
// Every served model is a shard::ReplicaSet of R >= 1 replicas, each with
// one shard::DeadlineBatcher: clients enqueue normalized single-image
// Requests, the batcher's worker coalesces them into micro-batches, and
// BatchCore turns one batch into per-request answers (assembly, one
// CompiledModel::run, split, promise fulfillment, stats). BatcherOptions is
// the one options struct of that path.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "device/atomic_stats.hpp"
#include "obs/metrics.hpp"
#include "serve/compiled_model.hpp"
#include "shard/router.hpp"

namespace dsx::obs::flight {
class ModelState;
}  // namespace dsx::obs::flight

namespace dsx::serve {

/// Request priority classes (dsx::shard). Lower value = more urgent; a plain
/// submit() is kNormal.
enum class Priority : int {
  kInteractive = 0,
  kNormal = 1,
  kBulk = 2,
};

/// Sentinel for "no deadline".
inline constexpr std::chrono::steady_clock::time_point kNoDeadline =
    std::chrono::steady_clock::time_point::max();

/// Delivered through the future of a request whose absolute deadline passed
/// before it could be placed in a micro-batch (the request is shed, never
/// executed).
class DeadlineExceeded : public Error {
 public:
  explicit DeadlineExceeded(const std::string& what) : Error(what) {}
};

/// Thrown by submit() when a bounded queue is at capacity - admission
/// control: the caller gets synchronous backpressure instead of unbounded
/// memory growth.
class QueueFull : public Error {
 public:
  explicit QueueFull(const std::string& what) : Error(what) {}
};

/// Thrown by submit() on a batcher/fleet that has been stopped - either the
/// whole server is shutting down, or a hot-swap (dsx::deploy) displaced this
/// fleet. InferenceServer::submit treats the latter as a routing miss and
/// re-resolves the live entry, so server callers only ever observe Stopped
/// after InferenceServer::stop() or unregister_model().
class Stopped : public Error {
 public:
  explicit Stopped(const std::string& what) : Error(what) {}
};

/// One queued inference request.
struct Request {
  Tensor image;  // normalized to [1, C, H, W]
  std::promise<Tensor> promise;
  std::chrono::steady_clock::time_point enqueued;
  Priority priority = Priority::kNormal;
  std::chrono::steady_clock::time_point deadline = kNoDeadline;
  uint64_t seq = 0;  // submission order, the final EDF tie-break
};

/// EDF ordering key: earliest deadline first, then priority class, then
/// submission order. Total order over requests in one batcher.
inline bool edf_before(const Request& a, const Request& b) {
  if (a.deadline != b.deadline) return a.deadline < b.deadline;
  if (a.priority != b.priority) return a.priority < b.priority;
  return a.seq < b.seq;
}

/// Validates `image` ([C,H,W] or [1,C,H,W]) against the model and returns a
/// Request holding its normalized [1,C,H,W] view (shallow - shares the
/// caller's storage) with the enqueue timestamp taken. This is deliberately
/// a free function: all validation/normalization work happens on the
/// caller's thread BEFORE the batcher queue lock is taken (see the
/// lock-scope invariant in shard/deadline_batcher.cpp, the shared batching
/// engine).
Request make_request(const CompiledModel& model, const Tensor& image);

/// How one model is served (InferenceServer::register_model/swap_model,
/// shard::ReplicaSet). The batching limits apply to every replica's batcher.
struct BatcherOptions {
  /// Largest micro-batch; 0 means the model's compiled max_batch. Clamped to
  /// the model's max_batch either way.
  int64_t max_batch = 0;
  /// Anti-starvation age: a request queued longer than this rides in the
  /// next batch even when EDF would pass it over. It is not a hold - a free
  /// batcher dispatches whatever is queued at once, and batches grow only
  /// from requests that arrive while the previous batch executes.
  std::chrono::microseconds max_delay{2000};
  /// Bounded-queue admission control: submit() throws QueueFull once this
  /// many requests are waiting (per replica). 0 = unbounded.
  int64_t queue_capacity = 0;
  /// Model replica count. 1 serves through one batcher on the registering
  /// thread's current pool (normally the global pool); > 1 compiles that
  /// many independent replicas, each with its own batcher and private
  /// execution lane.
  int replicas = 1;
  /// How submissions spread across replicas (replicas > 1).
  shard::RoutingPolicy policy = shard::RoutingPolicy::kLeastOutstanding;
  /// Threads per execution lane (replicas > 1); 0 = an even partition of
  /// the current pool's thread budget (max(1, threads / replicas)). On small
  /// hosts this degenerates to single-thread lanes, which also skip all
  /// intra-op hand-off overhead - more inter-request parallelism instead.
  unsigned lane_threads = 0;
  /// Observability scope: non-empty registers dsx_serve_* series labeled
  /// {model=metric_model} (plus replica=R on fleets of R > 1, which also
  /// export dsx_shard_routed_total) in obs::Registry. Empty = no export.
  /// InferenceServer overwrites this with the registered model name.
  std::string metric_model;
};

/// Range validation shared by BatcherOptions and shard's
/// DeadlineBatcherOptions, which carry the same limit fields. Throws
/// std::invalid_argument; `what` names the offending struct.
void validate_batching_limits(const char* what, int64_t max_batch,
                              std::chrono::microseconds max_delay,
                              int64_t queue_capacity);

/// Registry handles for one batcher instance. Detached (all-no-op) when the
/// batcher has no metric scope; attached handles all carry the same
/// {model[,replica]} labels. Copyable (handles are pointers).
struct BatcherMetricSet {
  obs::Counter requests;       // dsx_serve_requests_total
  obs::Counter batches;        // dsx_serve_batches_total
  obs::Counter shed;           // dsx_serve_shed_total
  obs::Counter rejected;       // dsx_serve_rejected_total
  obs::Gauge queue_depth;      // dsx_serve_queue_depth
  obs::Histogram batch_size;   // dsx_serve_batch_size
  obs::Histogram queue_wait;   // dsx_serve_queue_wait_us
  obs::Histogram latency;      // dsx_serve_request_latency_us
  /// Saturation distributions, sampled once per batch FORMATION (not per
  /// request): the backlog observed when the batch was cut, and how full
  /// the batch was as a percentage of max_batch. These are the queueing /
  /// utilization inputs the profiler's resource layer exports for
  /// fleet-elasticity decisions.
  obs::Histogram queue_depth_at_batch;  // dsx_serve_queue_depth_at_batch
  obs::Histogram batch_occupancy;      // dsx_serve_batch_occupancy_pct
  /// Interned scope name for trace/journal annotations ("" = unscoped).
  const char* scope = "";
  /// Flight-recorder verdict state for this scope (null = unscoped, no
  /// tail-based capture - mirrors the detached metric handles). Its window
  /// watches `latency`.
  obs::flight::ModelState* flight = nullptr;
};

/// Registers (or re-resolves) the registry series for scope `model`
/// (label model=..., plus replica=R when `replica` >= 0). An empty `model`
/// returns a fully detached set - the no-export default for ad-hoc batchers.
BatcherMetricSet make_batcher_metrics(const std::string& model,
                                      int replica = -1);

/// Answered-request statistics of one batcher, or summed over a fleet.
struct BatcherStats {
  int64_t requests = 0;  // answered requests
  int64_t batches = 0;   // executed micro-batches
  double avg_batch = 0.0;
  double qps = 0.0;  // answered requests / seconds since construction
  device::LatencyStats::Snapshot latency;  // per-request submit->answer wall time
  /// The latency histogram's raw cumulative buckets (nanosecond samples).
  /// Two stats() calls' buckets subtract into a windowed quantile view
  /// (LogHistogram::delta_snapshot) - what the SLO engine and the deploy
  /// guardrail evaluate.
  device::LogHistogram::BucketSnapshot latency_buckets;
};

/// Batch execution + stats accounting of one batcher. Not thread-safe for
/// concurrent execute() calls on the same instance (each batcher has one
/// executor); stats() is safe from any thread.
class BatchCore {
 public:
  /// `model` must outlive the core. `metrics` (detached by default)
  /// additionally receives every request/batch/latency observation into
  /// the obs registry.
  explicit BatchCore(CompiledModel& model, BatcherMetricSet metrics = {});

  CompiledModel& model() { return model_; }

  /// The metric set observations currently go to. References stay valid for
  /// the core's lifetime (a rescope() installs a new set; the old one is
  /// kept), so a reader racing a rescope writes the old scope, never a torn
  /// one.
  BatcherMetricSet& metrics() {
    return *metrics_.load(std::memory_order_acquire);
  }
  /// Moves every later observation to `metrics` - a fleet installed under
  /// a new name (a promoted rollout candidate) exports under that name.
  /// Safe against concurrent execute()/metrics(); callers serialize
  /// rescope() itself.
  void rescope(BatcherMetricSet metrics);

  /// Assembles `batch` into one [n,...] tensor, runs it through the model
  /// on the calling thread's current pool, splits the output into
  /// per-request [1,...] answers and fulfills every promise. A throwing run
  /// delivers the exception to every request in the batch. Stats are
  /// published before any promise is fulfilled. Head sampling is drawn
  /// here, per request, before the run; sampled and flight-promoted
  /// requests' spans are emitted once each (obs/flight.hpp).
  void execute(std::deque<Request>& batch);

  BatcherStats stats() const;

 private:
  CompiledModel& model_;
  std::atomic<int64_t> answered_{0};
  std::atomic<int64_t> batches_{0};
  device::LatencyStats latency_;
  std::deque<BatcherMetricSet> scopes_;  // every set installed, oldest first
  std::atomic<BatcherMetricSet*> metrics_;  // scopes_.back()
  std::chrono::steady_clock::time_point start_;
};

}  // namespace dsx::serve
