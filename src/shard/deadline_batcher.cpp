#include "shard/deadline_batcher.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "obs/flight.hpp"
#include "obs/journal.hpp"
#include "obs/trace.hpp"

namespace dsx::shard {

namespace {

std::exception_ptr deadline_error() {
  return std::make_exception_ptr(serve::DeadlineExceeded(
      "request deadline passed before batch formation (shed)"));
}

}  // namespace

DeadlineBatcher::DeadlineBatcher(serve::CompiledModel& model,
                                 DeadlineBatcherOptions opts)
    : core_(model, serve::make_batcher_metrics(opts.metric_model,
                                               opts.metric_replica)),
      max_batch_(0),
      max_delay_(opts.max_delay),
      queue_capacity_(opts.queue_capacity),
      pool_(opts.lane != nullptr ? *opts.lane
                                 : device::ThreadPool::current()),
      manual_drain_(opts.manual_drain) {
  serve::validate_batching_limits("DeadlineBatcherOptions", opts.max_batch,
                                  opts.max_delay, opts.queue_capacity);
  max_batch_ = opts.max_batch > 0 ? std::min(opts.max_batch, model.max_batch())
                                  : model.max_batch();
  if (!manual_drain_) {
    worker_ = std::thread([this] { worker_loop(); });
  }
}

DeadlineBatcher::~DeadlineBatcher() { stop(); }

std::future<Tensor> DeadlineBatcher::submit(const Tensor& image,
                                            SubmitOptions sopts) {
  // Lock-scope invariant: all tensor validation/normalization happens on the
  // caller's thread before mu_ is taken; the lock covers only the queue
  // insert and flags, so N submitting clients never serialize on tensor
  // work.
  serve::Request req = serve::make_request(core_.model(), image);
  req.priority = sopts.priority;
  req.deadline = sopts.deadline;
  std::future<Tensor> future = req.promise.get_future();

  bool dead_on_arrival = false;
  std::deque<serve::Request> expired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A distinct exception type, not DSX_REQUIRE: the server's hot-swap path
    // distinguishes "this fleet was displaced" (re-resolve and retry) from
    // every other submit failure.
    if (stopping_) throw serve::Stopped("submit: batcher is stopped");
    if (req.deadline <= req.enqueued) {
      // Dead on arrival: shed without touching the queue. Checked after the
      // stopped check - a stopped batcher throws for every submission, it
      // does not keep shedding.
      dead_on_arrival = true;
    } else {
      if (queue_capacity_ > 0 &&
          static_cast<int64_t>(queue_.size()) >= queue_capacity_) {
        // Entries that already expired while queued hold no real capacity -
        // they can never execute. Shed them (they are a deadline-sorted
        // prefix) before deciding to reject a live request.
        while (!queue_.empty() && queue_.front().deadline <= req.enqueued) {
          expired.push_back(std::move(queue_.front()));
          queue_.pop_front();
        }
      }
      if (queue_capacity_ > 0 &&
          static_cast<int64_t>(queue_.size()) >= queue_capacity_) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        serve::BatcherMetricSet& m = core_.metrics();
        m.rejected.inc();
        if (m.rejected.attached()) {
          obs::Journal::global().record(
              obs::EventKind::kReject, m.scope,
              "queue at capacity (" + std::to_string(queue_capacity_) + ")");
        }
        throw serve::QueueFull("submit: queue at capacity (" +
                               std::to_string(queue_capacity_) + ")");
      }
      req.seq = next_seq_++;
      insert_edf_locked(std::move(req));
      outstanding_.fetch_add(1, std::memory_order_relaxed);
      core_.metrics().queue_depth.set(static_cast<int64_t>(queue_.size()));
    }
  }
  if (!expired.empty()) {
    std::deque<serve::Request> none;
    answer(none, expired);  // counts sheds, fulfills outside the lock
  }
  if (dead_on_arrival) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    core_.metrics().shed.inc();
    req.promise.set_exception(deadline_error());
    return future;
  }
  cv_.notify_one();  // the worker is the only waiter
  return future;
}

void DeadlineBatcher::rescope(const std::string& model, int replica) {
  core_.rescope(serve::make_batcher_metrics(model, replica));
}

void DeadlineBatcher::insert_edf_locked(serve::Request&& req) {
  // Keep the queue EDF-sorted so batch formation is a prefix take. seq
  // strictly increases, so equal-(deadline, priority) requests stay FIFO.
  auto pos = std::upper_bound(
      queue_.begin(), queue_.end(), req,
      [](const serve::Request& a, const serve::Request& b) {
        return serve::edf_before(a, b);
      });
  queue_.insert(pos, std::move(req));
}

void DeadlineBatcher::form_batch_locked(
    std::chrono::steady_clock::time_point now,
    std::deque<serve::Request>& batch, std::deque<serve::Request>& shed) {
  // Expired requests never occupy a batch slot; they are collected here and
  // answered outside the lock. The queue's primary sort key is the
  // deadline, so expired requests are exactly a prefix - no full scan.
  while (!queue_.empty() && queue_.front().deadline <= now) {
    shed.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  const int64_t take =
      std::min<int64_t>(static_cast<int64_t>(queue_.size()), max_batch_);
  for (int64_t i = 0; i < take; ++i) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  // Anti-starvation: EDF alone would let sustained deadline traffic starve
  // a no-deadline request forever (kNoDeadline sorts last). When a full
  // batch leaves requests behind, the oldest ARRIVAL (min seq) that has
  // exhausted its max_delay budget rides along in place of the batch's
  // least-urgent member, so every batch retires the most-aged request and
  // no request waits unboundedly - the pre-EDF FIFO batcher's guarantee.
  if (!queue_.empty() && !batch.empty()) {
    auto oldest = queue_.begin();
    for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
      if (it->seq < oldest->seq) oldest = it;
    }
    if (now - oldest->enqueued > max_delay_) {
      serve::Request displaced = std::move(batch.back());
      batch.back() = std::move(*oldest);
      queue_.erase(oldest);
      insert_edf_locked(std::move(displaced));
    }
  }
  serve::BatcherMetricSet& m = core_.metrics();
  m.queue_depth.set(static_cast<int64_t>(queue_.size()));
  // Saturation distributions, once per formed batch: the backlog this
  // formation left behind, and how full the batch ran. Detached handles make these null-check no-ops for
  // unscoped batchers; attached writes are the usual relaxed atomics.
  if (!batch.empty()) {
    m.queue_depth_at_batch.record(static_cast<int64_t>(queue_.size()));
    m.batch_occupancy.record(static_cast<int64_t>(batch.size()) * 100 /
                             max_batch_);
  }
}

void DeadlineBatcher::answer(std::deque<serve::Request>& batch,
                             std::deque<serve::Request>& shed) {
  if (!shed.empty()) {
    shed_.fetch_add(static_cast<int64_t>(shed.size()),
                    std::memory_order_relaxed);
    outstanding_.fetch_sub(static_cast<int64_t>(shed.size()),
                           std::memory_order_relaxed);
    serve::BatcherMetricSet& m = core_.metrics();
    m.shed.inc(static_cast<int64_t>(shed.size()));
    if (m.shed.attached()) {
      // One journal entry per shed GROUP - the exact per-request count lives
      // in the counter; the journal records that shedding happened and when.
      obs::Journal::global().record(
          obs::EventKind::kShed, m.scope,
          std::to_string(shed.size()) + " request(s) past deadline");
    }
    if (obs::flight::flight_enabled() && m.flight != nullptr) {
      // Shed = interesting by definition (the request was never executed).
      // Bound the promotion work per group: a deadline storm sheds hundreds
      // at once, and four captures already tell the story.
      const int64_t now_ns = obs::now_ns();
      size_t promoted = 0;
      for (serve::Request& req : shed) {
        if (promoted++ >= 4) break;
        obs::flight::Capture cap;
        cap.model = m.scope;
        const int64_t enq_ns = obs::steady_ns(req.enqueued);
        cap.latency_us = std::max<int64_t>(0, (now_ns - enq_ns) / 1000);
        cap.verdict = obs::flight::Verdict::kShed;
        cap.spans = obs::flight::request_spans(enq_ns, now_ns);
        obs::flight::promote(m.flight, std::move(cap));
      }
    }
    const std::exception_ptr err = deadline_error();
    for (serve::Request& req : shed) req.promise.set_exception(err);
    shed.clear();
  }
  if (batch.empty()) return;
  {
    // Every kernel the plan launches lands on this batcher's pool, which
    // serializes launches itself - no lock to take here.
    const device::PoolScope scope(pool_);
    core_.execute(batch);
  }
  outstanding_.fetch_sub(static_cast<int64_t>(batch.size()),
                         std::memory_order_relaxed);
  batch.clear();
}

void DeadlineBatcher::worker_loop() {
  for (;;) {
    std::deque<serve::Request> batch;
    std::deque<serve::Request> shed;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      // Work-conserving: a free worker batches whatever is queued now and
      // never holds a request for the batch to fill. Requests that arrive
      // while a batch executes coalesce into the next one, so load, not a
      // timer, sets the batch size.
      form_batch_locked(std::chrono::steady_clock::now(), batch, shed);
    }
    answer(batch, shed);
  }
}

size_t DeadlineBatcher::drain_one() {
  DSX_REQUIRE(manual_drain_, "drain_one: batcher has a worker thread");
  std::lock_guard<std::mutex> drain_lock(drain_mu_);
  std::deque<serve::Request> batch;
  std::deque<serve::Request> shed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    form_batch_locked(std::chrono::steady_clock::now(), batch, shed);
  }
  const size_t executed = batch.size();
  answer(batch, shed);
  return executed;
}

void DeadlineBatcher::stop() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    to_join = std::move(worker_);
  }
  cv_.notify_all();
  if (to_join.joinable()) to_join.join();
  if (manual_drain_) {
    // No worker to drain the queue; answer the remainder here, serialized
    // against any in-flight drain_one(). Deadlines still apply: expired
    // requests shed, live ones execute.
    std::lock_guard<std::mutex> drain_lock(drain_mu_);
    for (;;) {
      std::deque<serve::Request> batch;
      std::deque<serve::Request> shed;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (queue_.empty()) break;
        form_batch_locked(std::chrono::steady_clock::now(), batch, shed);
      }
      answer(batch, shed);
    }
  }
}

DeadlineBatcherStats DeadlineBatcher::stats() const {
  DeadlineBatcherStats s;
  s.batcher = core_.stats();
  s.shed = shed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.queue_depth = static_cast<int64_t>(queue_.size());
  }
  s.outstanding = outstanding_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace dsx::shard
