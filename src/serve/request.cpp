#include "serve/request.hpp"

#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight.hpp"

namespace dsx::serve {

namespace {

/// The threshold that tripped, for the /outliers row (0 when the verdict
/// has no threshold - error/shed).
int64_t verdict_threshold_us(obs::flight::Verdict v,
                             const obs::flight::ModelState& st) {
  switch (v) {
    case obs::flight::Verdict::kAbsolute:
      return obs::flight::absolute_threshold_us();
    case obs::flight::Verdict::kAdaptive:
      return st.adaptive_threshold_us();
    case obs::flight::Verdict::kArmed:
      return st.armed_floor_us();
    default:
      return 0;
  }
}

}  // namespace

Request make_request(const CompiledModel& model, const Tensor& image) {
  const Shape& img = model.image_shape();
  Tensor normalized;
  if (image.shape().rank() == 3) {
    DSX_REQUIRE(image.shape() == img,
                "submit: image shape " << image.shape().to_string()
                                       << ", model expects "
                                       << img.to_string());
    normalized = image.reshape(model.input_shape(1));
  } else {
    DSX_REQUIRE(image.shape() == model.input_shape(1),
                "submit: image shape " << image.shape().to_string()
                                       << ", model expects "
                                       << model.input_shape(1).to_string());
    normalized = image;
  }
  Request req;
  req.image = std::move(normalized);  // shallow: shares the caller's storage
  req.enqueued = std::chrono::steady_clock::now();
  return req;
}

BatcherMetricSet make_batcher_metrics(const std::string& model, int replica) {
  BatcherMetricSet m;
  if (model.empty()) return m;  // detached: every handle is a no-op
  obs::Labels labels{{"model", model}};
  if (replica >= 0) labels.emplace_back("replica", std::to_string(replica));
  obs::Registry& reg = obs::Registry::global();
  m.requests = reg.counter("dsx_serve_requests_total", labels,
                           "Requests answered by the batch engine.");
  m.batches = reg.counter("dsx_serve_batches_total", labels,
                          "Micro-batches executed.");
  m.shed = reg.counter("dsx_serve_shed_total", labels,
                       "Requests shed past their deadline.");
  m.rejected = reg.counter("dsx_serve_rejected_total", labels,
                           "Submissions rejected by admission control.");
  m.queue_depth = reg.gauge("dsx_serve_queue_depth", labels,
                            "Requests currently waiting in the queue.");
  m.batch_size = reg.histogram("dsx_serve_batch_size", labels,
                               "Executed micro-batch sizes.");
  m.queue_wait = reg.histogram(
      "dsx_serve_queue_wait_us", labels,
      "Microseconds from submit to batch formation.");
  m.latency = reg.histogram(
      "dsx_serve_request_latency_us", labels,
      "Microseconds from submit to answer (the stats() latency).");
  m.queue_depth_at_batch = reg.histogram(
      "dsx_serve_queue_depth_at_batch", labels,
      "Queue depth observed at each batch formation (backlog left behind).");
  m.batch_occupancy = reg.histogram(
      "dsx_serve_batch_occupancy_pct", labels,
      "Executed batch size as a percentage of max_batch.");
  m.scope = obs::intern(model);
  m.flight = obs::flight::model_state(m.scope);
  m.flight->watch(m.latency);
  return m;
}

void validate_batching_limits(const char* what, int64_t max_batch,
                              std::chrono::microseconds max_delay,
                              int64_t queue_capacity) {
  const std::string prefix(what);
  if (max_batch < 0) {
    throw std::invalid_argument(prefix + ": max_batch must be >= 0, got " +
                                std::to_string(max_batch));
  }
  if (max_delay < std::chrono::microseconds::zero()) {
    throw std::invalid_argument(prefix + ": max_delay must be >= 0, got " +
                                std::to_string(max_delay.count()) + "us");
  }
  if (queue_capacity < 0) {
    throw std::invalid_argument(prefix +
                                ": queue_capacity must be >= 0, got " +
                                std::to_string(queue_capacity));
  }
}

BatchCore::BatchCore(CompiledModel& model, BatcherMetricSet metrics)
    : model_(model), start_(std::chrono::steady_clock::now()) {
  rescope(std::move(metrics));
}

void BatchCore::rescope(BatcherMetricSet metrics) {
  // deque::push_back never moves existing elements: references handed out
  // by metrics() stay valid.
  scopes_.push_back(std::move(metrics));
  metrics_.store(&scopes_.back(), std::memory_order_release);
}

void BatchCore::execute(std::deque<Request>& batch) {
  const int64_t n = static_cast<int64_t>(batch.size());
  if (n == 0) return;
  BatcherMetricSet& m = metrics();  // one scope per batch
  // Head sampling: tracing off = one relaxed load; on, one draw per request,
  // before the run, so the layer sink below is installed only when a
  // request is sampled. The ids live in a reused per-worker scratch (valid
  // only while `traced`).
  static thread_local std::vector<uint64_t> sampled;
  bool traced = false;
  if (obs::trace_enabled()) {
    sampled.resize(static_cast<size_t>(n));
    for (uint64_t& id : sampled) {
      id = obs::sample_trace_id();
      traced = traced || id != 0;
    }
  }
  // Flight recorder off = the same single relaxed load; on, a scoped batcher
  // observes every request and judges it at reply time (tail-based capture -
  // see obs/flight.hpp). Unscoped batchers (flight == nullptr) never pay.
  // Either way the capture is observation only: the execution path is
  // unchanged, so per-image outputs stay bit-identical.
  obs::flight::ModelState* const st = m.flight;
  const bool flight_on = obs::flight::flight_enabled() && st != nullptr;
  const auto trace_id_of = [&](size_t i) { return traced ? sampled[i] : 0; };
  const auto exec_start = std::chrono::steady_clock::now();
  const int64_t exec_start_ns = obs::steady_ns(exec_start);
  try {
    // Assemble the micro-batch. Per-image results are bit-identical to
    // batch-1 execution: every kernel in the plan processes images
    // independently.
    Tensor images(model_.input_shape(n));
    const int64_t image_floats = model_.image_shape().numel();
    for (int64_t i = 0; i < n; ++i) {
      std::memcpy(images.data() + i * image_floats,
                  batch[static_cast<size_t>(i)].image.data(),
                  static_cast<size_t>(image_floats) * sizeof(float));
    }

    Tensor out;
    int64_t run_start_ns = 0;
    int64_t run_end_ns = 0;
    // Per-batch layer scratch, reused across batches on this worker thread:
    // uncaptured requests recycle it with zero allocation once its capacity
    // has grown to the plan's layer count.
    static thread_local std::vector<obs::LayerRecord> layer_scratch;
    layer_scratch.clear();
    if (traced || flight_on) {
      const obs::ScopedLayerSink sink(&layer_scratch);
      run_start_ns = obs::now_ns();
      out = model_.run(images);
      run_end_ns = obs::now_ns();
    } else {
      out = model_.run(images);
    }

    // Split [n, ...] into per-request [1, ...] answers.
    Shape row_shape = out.shape();
    DSX_CHECK(row_shape.rank() >= 1 && row_shape.dim(0) == n,
              "batch output shape " << row_shape.to_string());
    std::vector<int64_t> dims;
    dims.push_back(1);
    for (int r = 1; r < row_shape.rank(); ++r) dims.push_back(row_shape.dim(r));
    const int64_t row_floats = row_shape.numel() / n;
    // Publish stats before fulfilling any promise: a client that wakes on
    // its future and immediately reads stats() must already see this batch.
    const auto now = std::chrono::steady_clock::now();
    for (size_t i = 0; i < batch.size(); ++i) {
      const Request& req = batch[i];
      const int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             now - req.enqueued)
                             .count();
      const int64_t latency_us = ns / 1000;
      latency_.record_ns(ns);
      m.latency.record(latency_us);
      m.queue_wait.record(
          std::chrono::duration_cast<std::chrono::microseconds>(exec_start -
                                                                req.enqueued)
              .count());
      // Reply-time verdict: the outcome is known now, so a slow straggler
      // promotes its capture even though nothing head-sampled it. The
      // window it is judged against is the series recorded just above.
      obs::flight::Verdict verdict = obs::flight::Verdict::kNone;
      if (flight_on) {
        st->observe();
        verdict = st->judge(latency_us);
      }
      const uint64_t trace_id = trace_id_of(i);
      if (verdict == obs::flight::Verdict::kNone && trace_id == 0) continue;
      obs::flight::Capture cap;
      cap.model = m.scope;
      cap.trace_id = trace_id;  // 0 = promote draws a flight id
      cap.latency_us = latency_us;
      cap.batch = n;
      cap.spans = obs::flight::request_spans(
          obs::steady_ns(req.enqueued), exec_start_ns, &layer_scratch,
          run_start_ns, run_end_ns, obs::steady_ns(now));
      if (verdict == obs::flight::Verdict::kNone) {
        obs::flight::emit(cap);  // sampled only: traced, not an outlier
        continue;
      }
      cap.verdict = verdict;
      cap.threshold_us = verdict_threshold_us(verdict, *st);
      const uint64_t id = obs::flight::promote(st, std::move(cap));
      m.latency.record_exemplar(latency_us, id);
    }
    answered_.fetch_add(n, std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);
    m.requests.inc(n);
    m.batches.inc();
    m.batch_size.record(n);
    for (int64_t i = 0; i < n; ++i) {
      Tensor row{Shape(dims)};
      std::memcpy(row.data(), out.data() + i * row_floats,
                  static_cast<size_t>(row_floats) * sizeof(float));
      batch[static_cast<size_t>(i)].promise.set_value(std::move(row));
    }
  } catch (...) {
    const std::exception_ptr err = std::current_exception();
    answered_.fetch_add(n, std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);
    m.requests.inc(n);
    m.batches.inc();
    if (flight_on || traced) {
      // The batch threw: only the queue_wait span is reconstructible - the
      // run never finished. Every request in it is interesting (kError), but
      // the promotion work per failed batch is bounded like the shed path's:
      // a persistently throwing model at full batch size must not churn the
      // retained ring at request rate, and four captures tell the story.
      // Sampled requests past that bound are still emitted.
      const auto now = std::chrono::steady_clock::now();
      size_t promoted = 0;
      for (size_t i = 0; i < batch.size(); ++i) {
        const bool file = flight_on && promoted < 4;
        obs::flight::Capture cap;
        cap.trace_id = trace_id_of(i);
        if (!file && cap.trace_id == 0) continue;
        const Request& req = batch[i];
        cap.model = m.scope;
        cap.latency_us = std::chrono::duration_cast<std::chrono::microseconds>(
                             now - req.enqueued)
                             .count();
        cap.batch = n;
        cap.spans = obs::flight::request_spans(obs::steady_ns(req.enqueued),
                                               exec_start_ns);
        if (file) {
          ++promoted;
          cap.verdict = obs::flight::Verdict::kError;
          obs::flight::promote(st, std::move(cap));
        } else {
          obs::flight::emit(cap);
        }
      }
    }
    for (Request& req : batch) {
      req.promise.set_exception(err);
    }
  }
}

BatcherStats BatchCore::stats() const {
  BatcherStats s;
  s.requests = answered_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.avg_batch = s.batches > 0
                    ? static_cast<double>(s.requests) /
                          static_cast<double>(s.batches)
                    : 0.0;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  s.qps = elapsed > 0.0 ? static_cast<double>(s.requests) / elapsed : 0.0;
  s.latency = latency_.snapshot();
  s.latency_buckets = latency_.histogram().bucket_snapshot();
  return s;
}

}  // namespace dsx::serve
