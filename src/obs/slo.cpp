#include "obs/slo.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/check.hpp"
#include "obs/flight.hpp"
#include "obs/journal.hpp"
#include "obs/trace.hpp"

namespace dsx::obs::slo {

namespace {

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string window_text(const char* tag, const WindowDelta& w) {
  std::ostringstream os;
  os << tag << "[burn=" << fmt(w.burn_rate) << " p99=" << fmt(w.p99_ms)
     << "ms err=" << fmt(w.error_rate) << " n=" << w.requests << "]";
  return os.str();
}

}  // namespace

const char* health_name(Health h) {
  switch (h) {
    case Health::kHealthy: return "healthy";
    case Health::kDegraded: return "degraded";
    case Health::kCritical: return "critical";
  }
  return "?";
}

WindowDelta window_delta(const SloSpec& spec, const WindowSample& older,
                         const WindowSample& newer) {
  WindowDelta d;
  d.span_ms = static_cast<double>(newer.ts_ns - older.ts_ns) / 1e6;
  d.requests = std::max<int64_t>(0, newer.requests - older.requests);
  d.errors = std::max<int64_t>(0, newer.errors - older.errors);
  if (d.requests > 0) {
    d.error_rate =
        static_cast<double>(d.errors) / static_cast<double>(d.requests);
  }
  const device::LogHistogram::Snapshot snap =
      device::LogHistogram::delta_snapshot(newer.latency, older.latency);
  d.latency_count = snap.count;
  d.p99_ms = snap.p99 / spec.latency_unit_per_ms;
  if (spec.p99_ms > 0.0 && snap.count > 0) {
    // Count the window's samples above the objective from the bucket
    // deltas. A bucket whose representative value exceeds the threshold is
    // counted whole - the same ~6% bucket-resolution contract as the
    // quantiles themselves.
    const double threshold = spec.p99_ms * spec.latency_unit_per_ms;
    int64_t over = 0;
    for (int b = 0; b < device::LogHistogram::kBuckets; ++b) {
      const int64_t delta = newer.latency.buckets[static_cast<size_t>(b)] -
                            older.latency.buckets[static_cast<size_t>(b)];
      if (delta > 0 && device::LogHistogram::bucket_value(b) > threshold) {
        over += delta;
      }
    }
    d.slow_fraction =
        static_cast<double>(over) / static_cast<double>(snap.count);
    const double budget = std::max(1e-12, 1.0 - spec.latency_target);
    d.latency_burn = d.slow_fraction / budget;
  }
  if (spec.max_error_rate > 0.0) {
    d.availability_burn = d.error_rate / spec.max_error_rate;
  }
  d.burn_rate = std::max(d.latency_burn, d.availability_burn);
  return d;
}

// ---- BurnRateTracker -------------------------------------------------------

BurnRateTracker::BurnRateTracker(SloSpec spec) : spec_(spec) {
  DSX_REQUIRE(spec_.fast_window.count() > 0,
              "SloSpec: fast_window must be > 0");
  DSX_REQUIRE(spec_.slow_window >= spec_.fast_window,
              "SloSpec: slow_window must be >= fast_window");
  DSX_REQUIRE(spec_.clear_evaluations >= 1,
              "SloSpec: clear_evaluations must be >= 1");
  DSX_REQUIRE(spec_.min_samples >= 1, "SloSpec: min_samples must be >= 1");
  DSX_REQUIRE(spec_.latency_unit_per_ms > 0.0,
              "SloSpec: latency_unit_per_ms must be > 0");
  ring_.reserve(64);
}

const WindowSample& BurnRateTracker::baseline(int64_t window_start_ns) const {
  // Newest retained sample at or before the window start; a ring that does
  // not reach back that far yields a partial window from its oldest sample.
  const WindowSample* best = &ring_.front();
  for (const WindowSample& s : ring_) {
    if (s.ts_ns > window_start_ns) break;
    best = &s;
  }
  return *best;
}

Evaluation BurnRateTracker::push(const WindowSample& sample) {
  Evaluation ev;
  ev.previous = health_;
  ev.health = health_;
  ev.raw = health_;
  if (!ring_.empty()) {
    const int64_t fast_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(spec_.fast_window)
            .count();
    const int64_t slow_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(spec_.slow_window)
            .count();
    ev.fast = window_delta(spec_, baseline(sample.ts_ns - fast_ns), sample);
    ev.slow = window_delta(spec_, baseline(sample.ts_ns - slow_ns), sample);
    ev.armed = ev.fast.requests >= spec_.min_samples;
    if (ev.armed) {
      if (ev.fast.burn_rate >= spec_.critical_burn &&
          ev.slow.burn_rate >= spec_.critical_burn) {
        ev.raw = Health::kCritical;
      } else if (ev.fast.burn_rate >= spec_.degraded_burn &&
                 ev.slow.burn_rate >= spec_.degraded_burn) {
        ev.raw = Health::kDegraded;
      } else {
        ev.raw = Health::kHealthy;
      }
      if (static_cast<int>(ev.raw) >= static_cast<int>(health_)) {
        // Worse (or equal) news applies immediately; any recovery streak
        // restarts.
        if (ev.raw != health_) health_ = ev.raw;
        clean_streak_ = 0;
      } else if (++clean_streak_ >= spec_.clear_evaluations) {
        // Enough consecutive cleaner verdicts: step down to what the
        // evaluations are actually reporting.
        health_ = ev.raw;
        clean_streak_ = 0;
      }
      ev.health = health_;
    }
  }
  ev.transitioned = ev.health != ev.previous;
  {
    std::ostringstream os;
    os << health_name(ev.previous) << "->" << health_name(ev.health) << " "
       << window_text("fast", ev.fast) << " " << window_text("slow", ev.slow);
    if (!ev.armed) os << " (unarmed: fast window < min_samples)";
    ev.detail = os.str();
  }
  ring_.push_back(sample);
  // Prune: keep exactly one sample at or beyond the slow-window horizon so
  // full slow windows stay answerable, plus a hard capacity backstop.
  const int64_t slow_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(spec_.slow_window)
          .count();
  const int64_t horizon = sample.ts_ns - slow_ns;
  while (ring_.size() > 2 && ring_[1].ts_ns <= horizon) {
    ring_.erase(ring_.begin());
  }
  while (ring_.size() > kMaxRing) ring_.erase(ring_.begin());
  return ev;
}

// ---- SloEngine -------------------------------------------------------------

void SloEngine::set_slo(const std::string& model, const SloSpec& spec,
                        Sampler sampler) {
  DSX_REQUIRE(!model.empty(), "set_slo: model name must not be empty");
  ModelSlo slo{spec,
               sampler ? std::move(sampler)
                       : Sampler([model] { return sample_registry(model); }),
               BurnRateTracker(spec),
               Evaluation{},
               Counter{},
               Counter{},
               Gauge{}};
  Registry& reg = Registry::global();
  const Labels labels{{"model", model}};
  slo.evaluations = reg.counter("dsx_slo_evaluations_total", labels,
                                "SLO burn-rate evaluations performed.");
  slo.transitions = reg.counter("dsx_slo_transitions_total", labels,
                                "SLO health-state transitions.");
  slo.health_gauge =
      reg.gauge("dsx_slo_health", labels,
                "Current SLO health (0=healthy, 1=degraded, 2=critical).");
  slo.health_gauge.set(0);
  {
    std::ostringstream os;
    os << "slo set: p99_ms=" << fmt(spec.p99_ms)
       << " max_error_rate=" << fmt(spec.max_error_rate)
       << " fast=" << spec.fast_window.count()
       << "ms slow=" << spec.slow_window.count() << "ms";
    Journal::global().record(EventKind::kHealth, model, os.str());
  }
  std::lock_guard<std::mutex> lock(mu_);
  models_.insert_or_assign(model, std::move(slo));
}

void SloEngine::clear_slo(const std::string& model) {
  std::lock_guard<std::mutex> lock(mu_);
  models_.erase(model);
}

bool SloEngine::has_slo(const std::string& model) const {
  std::lock_guard<std::mutex> lock(mu_);
  return models_.count(model) > 0;
}

std::vector<std::string> SloEngine::models() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(models_.size());
  for (const auto& [name, slo] : models_) out.push_back(name);
  return out;
}

Evaluation SloEngine::evaluate_locked(const std::string& model,
                                      ModelSlo& slo) {
  const Evaluation ev = slo.tracker.push(slo.sampler());
  slo.last = ev;
  slo.evaluations.inc();
  slo.health_gauge.set(static_cast<int64_t>(ev.health));
  if (ev.transitioned) {
    slo.transitions.inc();
    // The journal mutex is a leaf, so recording under mu_ keeps the
    // transition ordered with the evaluation that caused it.
    Journal::global().record(EventKind::kHealth, model, ev.detail);
    // Health worsened: arm the flight recorder so the tail that tripped the
    // SLO gets captured aggressively while the incident is live.
    if (static_cast<int>(ev.health) > static_cast<int>(ev.previous)) {
      flight::arm(model, std::chrono::seconds(30));
    }
  }
  return ev;
}

Evaluation SloEngine::evaluate(const std::string& model) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(model);
  if (it == models_.end()) return Evaluation{};
  return evaluate_locked(model, it->second);
}

void SloEngine::evaluate_all() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, slo] : models_) evaluate_locked(name, slo);
}

Health SloEngine::health(const std::string& model) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(model);
  return it == models_.end() ? Health::kHealthy : it->second.tracker.health();
}

Health SloEngine::aggregate() const {
  std::lock_guard<std::mutex> lock(mu_);
  Health worst = Health::kHealthy;
  for (const auto& [name, slo] : models_) {
    worst = std::max(worst, slo.tracker.health(),
                     [](Health a, Health b) {
                       return static_cast<int>(a) < static_cast<int>(b);
                     });
  }
  return worst;
}

std::vector<std::pair<std::string, Health>> SloEngine::health_all() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, Health>> out;
  out.reserve(models_.size());
  for (const auto& [name, slo] : models_) {
    out.emplace_back(name, slo.tracker.health());
  }
  return out;
}

std::string SloEngine::healthz_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  Health worst = Health::kHealthy;
  for (const auto& [name, slo] : models_) {
    if (static_cast<int>(slo.tracker.health()) > static_cast<int>(worst)) {
      worst = slo.tracker.health();
    }
  }
  std::ostringstream out;
  out << "{\"status\":\"" << health_name(worst) << "\",\"models\":[";
  bool first = true;
  for (const auto& [name, slo] : models_) {
    if (!first) out << ",";
    first = false;
    const Evaluation& ev = slo.last;
    out << "{\"model\":\"" << json_escape(name) << "\",\"health\":\""
        << health_name(slo.tracker.health()) << "\",\"armed\":"
        << (ev.armed ? "true" : "false")
        << ",\"fast_burn\":" << fmt(ev.fast.burn_rate)
        << ",\"slow_burn\":" << fmt(ev.slow.burn_rate)
        << ",\"window_p99_ms\":" << fmt(ev.fast.p99_ms)
        << ",\"window_error_rate\":" << fmt(ev.fast.error_rate)
        << ",\"window_requests\":" << ev.fast.requests << "}";
  }
  out << "]}";
  return out.str();
}

// ---- default registry sampler ----------------------------------------------

WindowSample sample_registry(const std::string& model) {
  Registry& reg = Registry::global();
  const Labels match{{"model", model}};
  WindowSample s;
  s.ts_ns = now_ns();
  s.requests = reg.sum_counter("dsx_serve_requests_total", match);
  // The serving tier has no explicit error counter: shed (deadline missed)
  // and rejected (admission control) are the requests that did not get an
  // answer, i.e. the availability objective's numerator. Submissions they
  // represent never reach the answered counter, so add them to the request
  // total to make the rate a true fraction of offered load.
  s.errors = reg.sum_counter("dsx_serve_shed_total", match) +
             reg.sum_counter("dsx_serve_rejected_total", match);
  s.requests += s.errors;
  s.latency = reg.merged_histogram("dsx_serve_request_latency_us", match);
  return s;
}

}  // namespace dsx::obs::slo
