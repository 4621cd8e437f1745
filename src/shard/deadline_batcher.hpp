// Priority/deadline-aware micro-batching: the batcher behind every replica
// of every served model.
//
// Clients submit single images; one worker thread coalesces them into
// micro-batches of up to max_batch and executes them on the compiled plan.
// The worker is work-conserving: when it is free it batches whatever is
// queued at once, and requests that arrive while a batch executes coalesce
// into the next one. Load, not a timer, sets the batch size, so an idle
// server answers a lone request without holding it. Batching amortizes
// per-call costs (kernel launches, pool wake-ups, GEMM setup) across
// requests. On top of that the queue has three scheduling features:
//
//   * priority classes + absolute deadlines per request, with
//     earliest-deadline-first batch formation (the queue is kept sorted by
//     serve::edf_before, so a batch is the EDF-prefix of the queue - plus,
//     as an anti-starvation guarantee, the oldest-arrival request whenever
//     it has waited past max_delay, so sustained deadline traffic cannot
//     starve no-deadline requests);
//   * load shedding: a request whose deadline has passed before it could be
//     placed in a batch is answered with serve::DeadlineExceeded through its
//     future instead of occupying a batch slot (deadlines bound queueing -
//     an admitted, in-deadline request may still finish after its deadline;
//     execution time is not clairvoyant);
//   * bounded-queue admission control: submit() throws serve::QueueFull at
//     capacity, giving callers synchronous backpressure.
//
// Every successfully submitted request is answered exactly once: stop() (and
// the destructor) drain the queue before joining the worker, and a request
// whose batch throws receives the exception through its future.
//
// Execution pool: every batch runs under one device::PoolScope for the pool
// the batcher was given (a replica's private lane, or by default the
// constructing thread's current pool). The pool serializes its own launches,
// so batchers sharing a pool need no further lock, and replicas on private
// lanes run genuinely concurrently.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <thread>

#include "device/thread_pool.hpp"
#include "serve/compiled_model.hpp"
#include "serve/request.hpp"

namespace dsx::shard {

struct DeadlineBatcherOptions {
  /// Largest micro-batch; 0 = the model's compiled max_batch (clamped).
  int64_t max_batch = 0;
  /// Anti-starvation age: a request queued longer than this rides in the
  /// next batch even when EDF would pass it over. It never holds a batch -
  /// a free worker dispatches at once.
  std::chrono::microseconds max_delay{2000};
  /// Bounded queue: submit() throws serve::QueueFull once this many
  /// requests wait. 0 = unbounded.
  int64_t queue_capacity = 0;
  /// Pool every batch runs on, bound with a device::PoolScope around each
  /// CompiledModel::run. Must outlive the batcher. nullptr = the
  /// constructing thread's ThreadPool::current() (normally the global pool).
  device::ThreadPool* lane = nullptr;
  /// No worker thread; the owner forms/executes batches via drain_one()
  /// (deterministic tests, external event loops). stop() drains whatever is
  /// still queued.
  bool manual_drain = false;
  /// Observability scope: when non-empty the batcher registers
  /// dsx_serve_* series labeled {model=metric_model[,replica=N]} in
  /// obs::Registry and journals shed/reject groups under that scope.
  /// Empty (the default) = no registry export, zero overhead beyond null
  /// checks. InferenceServer sets this to the registered model name.
  std::string metric_model;
  /// Replica label for the series above; < 0 = no replica label
  /// (single-batcher fleets).
  int metric_replica = -1;
};

/// Per-request scheduling parameters.
struct SubmitOptions {
  serve::Priority priority = serve::Priority::kNormal;
  /// Absolute shed deadline; serve::kNoDeadline = never shed.
  std::chrono::steady_clock::time_point deadline = serve::kNoDeadline;
};

/// Convenience: a deadline `budget` from now at priority `p`.
inline SubmitOptions within(std::chrono::microseconds budget,
                            serve::Priority p = serve::Priority::kNormal) {
  return {p, std::chrono::steady_clock::now() + budget};
}

/// BatcherStats plus the deadline/admission counters.
struct DeadlineBatcherStats {
  serve::BatcherStats batcher;
  int64_t shed = 0;         // deadline-expired, answered DeadlineExceeded
  int64_t rejected = 0;     // admission-control rejections (QueueFull)
  int64_t queue_depth = 0;  // currently waiting
  int64_t outstanding = 0;  // waiting + executing
};

class DeadlineBatcher {
 public:
  /// `model` (and `opts.lane`, when set) must outlive the batcher. Throws
  /// std::invalid_argument on invalid `opts`.
  DeadlineBatcher(serve::CompiledModel& model,
                  DeadlineBatcherOptions opts = {});
  ~DeadlineBatcher();

  DeadlineBatcher(const DeadlineBatcher&) = delete;
  DeadlineBatcher& operator=(const DeadlineBatcher&) = delete;

  /// Enqueues one image ([C,H,W] or [1,C,H,W]) in EDF position and returns
  /// a future for its [1, ...] output. Thread-safe. Throws Error if
  /// stopped (checked first), serve::QueueFull at capacity; a deadline that
  /// has already passed is shed immediately (the future carries
  /// DeadlineExceeded, the queue is never touched).
  std::future<Tensor> submit(const Tensor& image, SubmitOptions sopts = {});

  /// Blocking convenience wrapper.
  Tensor infer(const Tensor& image, SubmitOptions sopts = {}) {
    return submit(image, sopts).get();
  }

  /// Manual-drain mode: sheds expired requests, forms one EDF batch (up to
  /// max_batch) and executes it on the calling thread. Returns the number
  /// of requests executed (shed requests are answered but not counted).
  /// Serialized against concurrent drain_one()/stop() callers - the model
  /// is not thread-safe, so only one drain executes at a time.
  size_t drain_one();

  /// Stops accepting work, drains the queue (in manual mode, on the calling
  /// thread), joins the worker. Idempotent.
  void stop();

  /// Re-labels every later observation {model=model[,replica]} (see
  /// serve::BatchCore::rescope). Callers serialize rescope() calls.
  void rescope(const std::string& model, int replica);

  DeadlineBatcherStats stats() const;

  /// Waiting + executing request count (Router's load signal). Relaxed.
  int64_t outstanding() const {
    return outstanding_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop();
  /// Removes expired requests from queue_ into `shed` (caller answers them
  /// outside the lock) and moves up to max_batch_ EDF-first requests into
  /// `batch`. Requires mu_ held.
  void form_batch_locked(std::chrono::steady_clock::time_point now,
                         std::deque<serve::Request>& batch,
                         std::deque<serve::Request>& shed);
  /// Answers `shed` with DeadlineExceeded and executes `batch` on pool_.
  /// Call WITHOUT mu_ held.
  void answer(std::deque<serve::Request>& batch,
              std::deque<serve::Request>& shed);
  /// Inserts at the request's EDF position (the single definition of the
  /// queue's total order). Requires mu_ held.
  void insert_edf_locked(serve::Request&& req);

  serve::BatchCore core_;  // owns the metric set (core_.metrics())
  int64_t max_batch_;
  std::chrono::microseconds max_delay_;
  int64_t queue_capacity_;
  device::ThreadPool& pool_;
  bool manual_drain_;

  mutable std::mutex mu_;
  /// Serializes batch EXECUTION in manual-drain mode (drain_one vs stop's
  /// drain loop): CompiledModel::run is not thread-safe. Worker mode needs
  /// no equivalent - the single worker is the only executor, and stop()
  /// claims/joins it under mu_. Never acquired while holding mu_.
  std::mutex drain_mu_;
  std::condition_variable cv_;
  std::deque<serve::Request> queue_;  // EDF-sorted (serve::edf_before)
  bool stopping_ = false;
  uint64_t next_seq_ = 0;

  std::atomic<int64_t> outstanding_{0};
  std::atomic<int64_t> shed_{0};
  std::atomic<int64_t> rejected_{0};

  std::thread worker_;
};

}  // namespace dsx::shard
