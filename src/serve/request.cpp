#include "serve/request.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight.hpp"

namespace dsx::serve {

namespace {

/// Builds the span list of a promoted capture from the same timestamps the
/// trace path uses - materialized only at promotion rate.
std::vector<obs::flight::Span> make_capture_spans(
    int64_t enq_ns, int64_t exec_start_ns, int64_t run_start_ns,
    int64_t run_end_ns, int64_t done_ns,
    const std::vector<obs::LayerRecord>& layers) {
  std::vector<obs::flight::Span> spans;
  spans.reserve(5 + layers.size());
  const auto push = [&](const char* name, const char* cat, int64_t start,
                        int64_t end) {
    spans.push_back({name, cat, start, std::max<int64_t>(0, end - start)});
  };
  push("request", "serve", enq_ns, done_ns);
  push("queue_wait", "serve", enq_ns, exec_start_ns);
  push("batch_assemble", "serve", exec_start_ns, run_start_ns);
  push("batch_execute", "serve", run_start_ns, run_end_ns);
  for (const obs::LayerRecord& layer : layers) {
    spans.push_back({layer.name, "layer", layer.start_ns, layer.dur_ns});
  }
  push("reply", "serve", run_end_ns, done_ns);
  return spans;
}

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
  // Tracing off = exactly one relaxed load (trace_enabled); the sampling
  // counter is only touched once tracing is on.
  if (obs::trace_enabled()) req.trace_id = obs::sample_trace_id();
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
    : model_(model),
      metrics_(std::move(metrics)),
      start_(std::chrono::steady_clock::now()) {}

void BatchCore::execute(std::deque<Request>& batch) {
  const int64_t n = static_cast<int64_t>(batch.size());
  if (n == 0) return;
  // Tracing off = one relaxed load; only then is the batch scanned for a
  // sampled request. Traced batches time the run and collect per-layer
  // records - observation only, the execution path itself is unchanged, so
  // per-image outputs stay bit-identical either way.
  bool traced = false;
  if (obs::trace_enabled()) {
    for (const Request& req : batch) {
      if (req.trace_id != 0) {
        traced = true;
        break;
      }
    }
  }
  // Flight recorder off = the same single relaxed load; on, a scoped batcher
  // observes every request and judges it at reply time (tail-based capture -
  // see obs/flight.hpp). Unscoped batchers (flight == nullptr) never pay.
  const bool flight_on =
      obs::flight::flight_enabled() && metrics_.flight != nullptr;
  const auto exec_start = std::chrono::steady_clock::now();
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
    // unpromoted flight captures recycle it with zero allocation once its
    // capacity has grown to the plan's layer count.
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
    const std::vector<obs::LayerRecord>& layers = layer_scratch;

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
    for (const Request& req : batch) {
      const int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             now - req.enqueued)
                             .count();
      latency_.record_ns(ns);
      metrics_.latency.record(ns / 1000);
      metrics_.queue_wait.record(
          std::chrono::duration_cast<std::chrono::microseconds>(exec_start -
                                                                req.enqueued)
              .count());
      if (flight_on) {
        // Reply-time verdict: the outcome is known now, so a slow straggler
        // promotes its capture even though nothing head-sampled it.
        const int64_t latency_us = ns / 1000;
        obs::flight::ModelState* st = metrics_.flight;
        st->observe(latency_us);
        const obs::flight::Verdict verdict = st->judge(latency_us);
        if (verdict != obs::flight::Verdict::kNone) {
          obs::flight::Capture cap;
          cap.model = metrics_.scope;
          cap.trace_id = req.trace_id;  // 0 = promote draws a flight id
          // Head-sampled requests get their spans from emit_request_traces
          // below; promote() must not emit them a second time.
          cap.spans_traced = traced && req.trace_id != 0;
          cap.latency_us = latency_us;
          cap.threshold_us = verdict_threshold_us(verdict, *st);
          cap.verdict = verdict;
          cap.batch = n;
          cap.spans = make_capture_spans(
              obs::steady_ns(req.enqueued), obs::steady_ns(exec_start),
              run_start_ns, run_end_ns, obs::steady_ns(now), layers);
          const uint64_t id = obs::flight::promote(st, std::move(cap));
          metrics_.latency.record_exemplar(latency_us, id);
        }
      }
    }
    answered_.fetch_add(n, std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);
    metrics_.requests.inc(n);
    metrics_.batches.inc();
    metrics_.batch_size.record(n);
    if (traced) {
      emit_request_traces(batch, n, exec_start, run_start_ns, run_end_ns, now,
                          layers);
    }
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
    metrics_.requests.inc(n);
    metrics_.batches.inc();
    if (flight_on) {
      // The batch threw: the requests in it are interesting (kError). Only
      // the queue_wait span is reconstructible - the run never finished.
      // Bound the promotion work per failed batch like the shed path does:
      // a persistently throwing model at full batch size must not churn the
      // retained ring at request rate, and four captures tell the story.
      const auto now = std::chrono::steady_clock::now();
      const int64_t exec_start_ns = obs::steady_ns(exec_start);
      size_t promoted = 0;
      for (const Request& req : batch) {
        if (promoted++ >= 4) break;
        obs::flight::Capture cap;
        cap.model = metrics_.scope;
        cap.trace_id = req.trace_id;
        cap.latency_us = std::chrono::duration_cast<std::chrono::microseconds>(
                             now - req.enqueued)
                             .count();
        cap.verdict = obs::flight::Verdict::kError;
        cap.batch = n;
        const int64_t enq_ns = obs::steady_ns(req.enqueued);
        cap.spans.push_back({"queue_wait", "serve", enq_ns,
                             std::max<int64_t>(0, exec_start_ns - enq_ns)});
        obs::flight::promote(metrics_.flight, std::move(cap));
      }
    }
    for (Request& req : batch) {
      req.promise.set_exception(err);
    }
  }
}

void BatchCore::emit_request_traces(
    const std::deque<Request>& batch, int64_t n,
    std::chrono::steady_clock::time_point exec_start, int64_t run_start_ns,
    int64_t run_end_ns, std::chrono::steady_clock::time_point done,
    const std::vector<obs::LayerRecord>& layers) const {
  // Every span is reconstructed AFTER the batch ran, from timestamps taken
  // around the unmodified execution path: the synthetic per-request track
  // (pid=kRequestPid, tid=trace id) partitions [submit, reply] into
  // queue_wait / batch_assemble / batch_execute (+ per-layer events) /
  // reply, so the request span's duration IS the latency sample stats()
  // aggregates. Batch-shared events are duplicated onto each traced
  // request's track - a micro-batch executes once for all its members.
  const int64_t exec_start_ns = obs::steady_ns(exec_start);
  const int64_t done_ns = obs::steady_ns(done);
  for (const Request& req : batch) {
    if (req.trace_id == 0) continue;
    const uint64_t tid = req.trace_id;
    const int64_t enq_ns = obs::steady_ns(req.enqueued);
    const auto emit = [&](const char* name, const char* cat, int64_t start,
                          int64_t end) {
      obs::TraceEvent ev;
      ev.name = name;
      ev.cat = cat;
      ev.tid = tid;
      ev.start_ns = start;
      ev.dur_ns = std::max<int64_t>(0, end - start);
      ev.arg_name = "batch";
      ev.arg_value = n;
      if (metrics_.scope[0] != '\0') {
        ev.sarg_name = "model";
        ev.sarg_value = metrics_.scope;
      }
      obs::record_event(ev);
    };
    emit("request", "serve", enq_ns, done_ns);
    emit("queue_wait", "serve", enq_ns, exec_start_ns);
    emit("batch_assemble", "serve", exec_start_ns, run_start_ns);
    emit("batch_execute", "serve", run_start_ns, run_end_ns);
    for (const obs::LayerRecord& layer : layers) {
      obs::TraceEvent ev;
      ev.name = layer.name;
      ev.cat = "layer";
      ev.tid = tid;
      ev.start_ns = layer.start_ns;
      ev.dur_ns = layer.dur_ns;
      obs::record_event(ev);
    }
    emit("reply", "serve", run_end_ns, done_ns);
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
