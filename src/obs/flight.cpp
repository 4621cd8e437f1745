#include "obs/flight.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>
#include <sstream>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dsx::obs::flight {

namespace {

/// DSX_FLIGHT parse result, read once at first use (same pattern as
/// DSX_TRACE in trace.cpp).
struct EnvConfig {
  int enabled = 1;
  int64_t absolute_us = 100'000;  // 100 ms default
};

const EnvConfig& env_config() {
  static const EnvConfig cfg = [] {
    EnvConfig c;
    const char* env = std::getenv("DSX_FLIGHT");
    if (env == nullptr || env[0] == '\0') return c;
    const std::string v(env);
    if (v == "off" || v == "0") {
      c.enabled = 0;
      return c;
    }
    char* end = nullptr;
    const long ms = std::strtol(env, &end, 10);
    if (end == nullptr || *end != '\0' || ms <= 0) {
      std::fprintf(stderr,
                   "dsx::obs: ignoring DSX_FLIGHT='%s' (want off or a "
                   "threshold in ms >= 1)\n",
                   env);
      return c;
    }
    c.absolute_us = static_cast<int64_t>(ms) * 1000;
    return c;
  }();
  return cfg;
}

std::atomic<int64_t>& absolute_atomic() {
  static std::atomic<int64_t> a{env_config().absolute_us};
  return a;
}

/// Global promoted-capture ring plus the model-state registry. States are
/// leaked (pointers outlive thread exits, like metric cells and the intern
/// pool); promotion rate is control-plane rate, so one mutex is plenty.
struct GlobalFlight {
  std::mutex mu;
  std::deque<Capture> ring;  // oldest first, bounded kRetainedCap
  std::map<std::string, ModelState*> models;
  std::atomic<int64_t> promoted{0};
};

GlobalFlight& global_flight() {
  static GlobalFlight* g = new GlobalFlight();  // leaked: outlives exits
  return *g;
}

}  // namespace

namespace detail {

std::atomic<int>& enabled_atomic() {
  static std::atomic<int> enabled{env_config().enabled};
  return enabled;
}

}  // namespace detail

void set_flight_enabled(bool on) {
  detail::enabled_atomic().store(on ? 1 : 0, std::memory_order_relaxed);
}

int64_t absolute_threshold_us() {
  return absolute_atomic().load(std::memory_order_relaxed);
}

void set_absolute_threshold_us(int64_t us) {
  absolute_atomic().store(us > 0 ? us : 0, std::memory_order_relaxed);
}

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kNone: return "none";
    case Verdict::kAbsolute: return "absolute";
    case Verdict::kAdaptive: return "adaptive";
    case Verdict::kArmed: return "armed";
    case Verdict::kError: return "error";
    case Verdict::kShed: return "shed";
  }
  return "?";
}

// ---- ModelState ------------------------------------------------------------

void ModelState::watch(Histogram latency) {
  std::lock_guard<std::mutex> lock(refresh_mu_);
  if (std::find(watched_.begin(), watched_.end(), latency) == watched_.end()) {
    watched_.push_back(latency);
  }
}

device::LogHistogram::BucketSnapshot ModelState::merged_locked() const {
  device::LogHistogram::BucketSnapshot merged;
  for (const Histogram& h : watched_) merged.merge(h.bucket_snapshot());
  return merged;
}

void ModelState::observe() {
  const int64_t n = observed_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Refresh the windowed thresholds periodically (plus one early refresh at
  // kMinWindow so a fresh model gets adaptive coverage before the first
  // full period elapses).
  if (n % kRefreshEvery != 0 && n != kMinWindow) return;
  std::unique_lock<std::mutex> lock(refresh_mu_, std::try_to_lock);
  if (!lock.owns_lock()) return;  // another observer is refreshing
  // The window is the exported series itself: every replica's cell,
  // merged bucket-wise - what a scrape of dsx_serve_request_latency_us
  // {model} would aggregate.
  const device::LogHistogram::BucketSnapshot now = merged_locked();
  const device::LogHistogram::Snapshot win =
      device::LogHistogram::delta_snapshot(now, window_base_);
  if (win.count < kMinWindow) return;  // window too thin for a verdict
  // 1.5x the windowed p99: above the tail the model itself exhibits, not
  // just inside it - a steady p99 should not promote ~1% of all traffic.
  adaptive_us_.store(static_cast<int64_t>(win.p99 * 1.5) + 1,
                     std::memory_order_relaxed);
  armed_floor_us_.store(static_cast<int64_t>(win.p50) + 1,
                        std::memory_order_relaxed);
  window_base_ = now;
}

Verdict ModelState::judge(int64_t latency_us) const {
  const int64_t abs_us = absolute_threshold_us();
  if (abs_us > 0 && latency_us >= abs_us) return Verdict::kAbsolute;
  const int64_t adaptive = adaptive_us_.load(std::memory_order_relaxed);
  if (adaptive > 0 && latency_us > adaptive) return Verdict::kAdaptive;
  if (armed_until_ns_.load(std::memory_order_relaxed) > now_ns()) {
    const int64_t floor = armed_floor_us_.load(std::memory_order_relaxed);
    if (floor > 0 && latency_us > floor) return Verdict::kArmed;
  }
  return Verdict::kNone;
}

void ModelState::arm(std::chrono::milliseconds cooldown) {
  const int64_t until =
      now_ns() +
      std::chrono::duration_cast<std::chrono::nanoseconds>(cooldown).count();
  armed_until_ns_.store(until, std::memory_order_relaxed);
}

bool ModelState::armed() const {
  return armed_until_ns_.load(std::memory_order_relaxed) > now_ns();
}

void ModelState::add_outlier(const Capture& cap) {
  std::lock_guard<std::mutex> lock(topk_mu_);
  auto pos = std::upper_bound(topk_.begin(), topk_.end(), cap,
                              [](const Capture& a, const Capture& b) {
                                return a.latency_us > b.latency_us;
                              });
  topk_.insert(pos, cap);
  if (topk_.size() > kTopK) topk_.pop_back();
}

std::vector<Capture> ModelState::outliers() const {
  std::lock_guard<std::mutex> lock(topk_mu_);
  return topk_;
}

void ModelState::reset_for_test() {
  {
    std::lock_guard<std::mutex> lock(topk_mu_);
    topk_.clear();
  }
  {
    // The series are cumulative and never reset: the window restarts from
    // their current counts.
    std::lock_guard<std::mutex> lock(refresh_mu_);
    window_base_ = merged_locked();
  }
  observed_.store(0, std::memory_order_relaxed);
  adaptive_us_.store(0, std::memory_order_relaxed);
  armed_floor_us_.store(0, std::memory_order_relaxed);
  armed_until_ns_.store(0, std::memory_order_relaxed);
}

// ---- registry / promotion --------------------------------------------------

ModelState* model_state(const char* name) {
  if (name == nullptr || name[0] == '\0') return nullptr;
  GlobalFlight& g = global_flight();
  std::lock_guard<std::mutex> lock(g.mu);
  auto it = g.models.find(name);
  if (it == g.models.end()) {
    it = g.models.emplace(name, new ModelState(intern(name))).first;
  }
  return it->second;
}

uint64_t next_flight_trace_id() {
  static std::atomic<uint64_t> next{0};
  return kFlightIdBase + next.fetch_add(1, std::memory_order_relaxed);
}

std::vector<Span> request_spans(int64_t enq_ns, int64_t queue_end_ns,
                                const std::vector<LayerRecord>* layers,
                                int64_t run_start_ns, int64_t run_end_ns,
                                int64_t done_ns) {
  std::vector<Span> spans;
  spans.reserve(layers != nullptr ? 5 + layers->size() : 1);
  const auto push = [&](const char* name, int64_t start, int64_t end) {
    spans.push_back({name, "serve", start, std::max<int64_t>(0, end - start)});
  };
  if (layers == nullptr) {
    push("queue_wait", enq_ns, queue_end_ns);
    return spans;
  }
  // The request span IS the latency sample: it partitions [submit, reply]
  // into queue_wait / batch_assemble / batch_execute (+ layers) / reply.
  // Batch-shared spans repeat on each member's track - a micro-batch
  // executes once for all of them.
  push("request", enq_ns, done_ns);
  push("queue_wait", enq_ns, queue_end_ns);
  push("batch_assemble", queue_end_ns, run_start_ns);
  push("batch_execute", run_start_ns, run_end_ns);
  for (const LayerRecord& layer : *layers) {
    spans.push_back({layer.name, "layer", layer.start_ns, layer.dur_ns});
  }
  push("reply", run_end_ns, done_ns);
  return spans;
}

void emit(const Capture& cap) {
  for (const Span& span : cap.spans) {
    TraceEvent ev;
    ev.name = span.name;
    ev.cat = span.cat;
    ev.tid = cap.trace_id;
    ev.start_ns = span.start_ns;
    ev.dur_ns = span.dur_ns;
    ev.arg_name = "latency_us";
    ev.arg_value = cap.latency_us;
    if (cap.model[0] != '\0') {
      ev.sarg_name = "model";
      ev.sarg_value = cap.model;
    }
    record_event(ev);
  }
}

uint64_t promote(ModelState* st, Capture cap) {
  if (cap.trace_id == 0) cap.trace_id = next_flight_trace_id();
  cap.ts_ns = now_ns();
  cap.wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::system_clock::now().time_since_epoch())
                    .count();
  if (st != nullptr && cap.model[0] == '\0') cap.model = st->name();
  // Under the capture's id, so /trace resolves the id the exemplar carries.
  emit(cap);
  if (st != nullptr) st->add_outlier(cap);
  // Per-verdict promotion mix, scrapeable without parsing /outliers.
  // Handles registered once per verdict (promotion rate is low, but the
  // registry lookup is a map walk - not for a per-promotion path). kNone
  // stays detached: promote() is only reached on interesting verdicts, and
  // a kNone capture (direct API use) should not mint a {verdict="none"}
  // series.
  {
    static std::mutex counters_mu;
    static std::array<Counter, 6> counters;
    const auto vi = static_cast<size_t>(cap.verdict);
    if (vi > 0 && vi < counters.size()) {
      std::lock_guard<std::mutex> lock(counters_mu);
      if (!counters[vi].attached()) {
        counters[vi] = Registry::global().counter(
            "dsx_obs_flight_promoted_total",
            {{"verdict", verdict_name(cap.verdict)}},
            "Flight-recorder captures promoted, by reply-time verdict");
      }
      counters[vi].inc();
    }
  }
  GlobalFlight& g = global_flight();
  const uint64_t id = cap.trace_id;
  {
    std::lock_guard<std::mutex> lock(g.mu);
    g.ring.push_back(std::move(cap));
    if (g.ring.size() > kRetainedCap) g.ring.pop_front();
  }
  g.promoted.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void arm(const std::string& model, std::chrono::milliseconds cooldown) {
  ModelState* st = model_state(model.c_str());
  if (st == nullptr) return;
  st->arm(cooldown);
  std::ostringstream os;
  os << "flight armed for " << cooldown.count() << "ms (promote above "
     << "windowed p50, floor " << st->armed_floor_us() << "us)";
  Journal::global().record(EventKind::kFlight, model, os.str());
}

std::vector<Capture> retained() {
  GlobalFlight& g = global_flight();
  std::lock_guard<std::mutex> lock(g.mu);
  return {g.ring.begin(), g.ring.end()};
}

FlightStats flight_stats() {
  GlobalFlight& g = global_flight();
  FlightStats s;
  s.promoted = g.promoted.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(g.mu);
  s.retained = static_cast<int64_t>(g.ring.size());
  s.models = static_cast<int>(g.models.size());
  return s;
}

std::string outliers_json() {
  // Copy the model list under the registry lock, then read each top-K table
  // under its own lock - never both at once.
  std::vector<ModelState*> states;
  {
    GlobalFlight& g = global_flight();
    std::lock_guard<std::mutex> lock(g.mu);
    states.reserve(g.models.size());
    for (const auto& [name, st] : g.models) states.push_back(st);
  }
  std::ostringstream out;
  out << "{\"outliers\":[";
  bool first = true;
  for (const ModelState* st : states) {
    for (const Capture& cap : st->outliers()) {
      if (!first) out << ",";
      first = false;
      out << "{\"model\":\"" << json_escape(cap.model) << "\",\"trace_id\":"
          << cap.trace_id << ",\"latency_us\":" << cap.latency_us
          << ",\"verdict\":\"" << verdict_name(cap.verdict)
          << "\",\"threshold_us\":" << cap.threshold_us
          << ",\"batch\":" << cap.batch << ",\"ts_ns\":" << cap.ts_ns
          << ",\"wall_ms\":" << cap.wall_ms << ",\"spans\":[";
      bool sfirst = true;
      for (const Span& span : cap.spans) {
        if (!sfirst) out << ",";
        sfirst = false;
        out << "{\"name\":\"" << json_escape(span.name) << "\",\"cat\":\""
            << json_escape(span.cat) << "\",\"start_ns\":" << span.start_ns
            << ",\"dur_ns\":" << span.dur_ns << "}";
      }
      out << "]}";
    }
  }
  out << "]}";
  return out.str();
}

void reset_for_test() {
  GlobalFlight& g = global_flight();
  std::vector<ModelState*> states;
  {
    std::lock_guard<std::mutex> lock(g.mu);
    g.ring.clear();
    g.promoted.store(0, std::memory_order_relaxed);
    for (const auto& [name, st] : g.models) states.push_back(st);
  }
  for (ModelState* st : states) st->reset_for_test();
}

}  // namespace dsx::obs::flight
