// Tests for dsx::obs (src/obs): the metrics registry (handles, exposition,
// type safety, multi-writer exactness), histogram quantile accuracy against
// exact sorted percentiles, the per-request trace pipeline end to end
// through an InferenceServer (span nesting + stats consistency + sampling),
// and the bounded control-plane journal. Also the LatencyStats empty-
// snapshot regression (min must be 0, not INT64_MAX garbage).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "device/atomic_stats.hpp"
#include "nn/containers.hpp"
#include "nn/layers_basic.hpp"
#include "nn/layers_conv.hpp"
#include "obs/obs.hpp"
#include "serve/compiled_model.hpp"
#include "serve/server.hpp"
#include "shard/deadline_batcher.hpp"
#include "tensor/random.hpp"

namespace dsx::obs {
namespace {

constexpr int64_t kImage = 8;
constexpr int64_t kClasses = 10;

/// Small conv -> DW -> SCC classifier (the test_serve architecture).
std::unique_ptr<nn::Sequential> make_scc_model(uint64_t seed) {
  Rng rng(seed);
  auto seq = std::make_unique<nn::Sequential>();
  seq->emplace<nn::Conv2d>(3, 16, 3, 1, 1, 1, rng);
  seq->emplace<nn::BatchNorm2d>(16);
  seq->emplace<nn::ReLU>();
  seq->emplace<nn::DepthwiseConv2d>(16, 3, 1, 1, rng);
  seq->emplace<nn::BatchNorm2d>(16);
  seq->emplace<nn::ReLU>();
  seq->emplace<nn::SCCConv>(
      scc::SCCConfig{.in_channels = 16, .out_channels = 32, .groups = 2,
                     .overlap = 0.5, .stride = 1},
      rng);
  seq->emplace<nn::BatchNorm2d>(32);
  seq->emplace<nn::ReLU>();
  seq->emplace<nn::GlobalAvgPool>();
  seq->emplace<nn::Flatten>();
  seq->emplace<nn::Linear>(32, kClasses, rng);
  return seq;
}

/// Structural JSON validation: balanced braces/brackets outside strings,
/// escape-aware, no trailing garbage. Enough to catch every malformed
/// emission mode of a generator (unbalanced nesting, unterminated strings).
bool json_well_formed(const std::string& s) {
  std::vector<char> stack;
  bool in_str = false;
  bool esc = false;
  bool saw_value = false;
  for (const char c : s) {
    if (in_str) {
      if (esc) {
        esc = false;
      } else if (c == '\\') {
        esc = true;
      } else if (c == '"') {
        in_str = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_str = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        saw_value = true;
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return saw_value && !in_str && stack.empty();
}

/// Exact percentile of a sample set: the value at rank ceil(q * n).
int64_t exact_percentile(std::vector<int64_t> v, double q) {
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  if (rank > 0) --rank;
  return v[std::min(rank, v.size() - 1)];
}

// ---- LatencyStats regression (the empty-snapshot garbage fix) --------------

TEST(LatencyStats, EmptySnapshotIsAllZeros) {
  device::LatencyStats stats;
  const auto s = stats.snapshot();
  EXPECT_EQ(s.count, 0);
  EXPECT_EQ(s.min_ms, 0.0);  // regression: was INT64_MAX / 1e6
  EXPECT_EQ(s.max_ms, 0.0);
  EXPECT_EQ(s.mean_ms, 0.0);
  EXPECT_EQ(s.p50_ms, 0.0);
  EXPECT_EQ(s.p99_ms, 0.0);
}

TEST(LatencyStats, EmptyAfterResetToo) {
  device::LatencyStats stats;
  stats.record_ns(5'000'000);
  stats.reset();
  const auto s = stats.snapshot();
  EXPECT_EQ(s.count, 0);
  EXPECT_EQ(s.min_ms, 0.0);
  EXPECT_EQ(s.max_ms, 0.0);
}

// ---- LogHistogram quantile accuracy ----------------------------------------

TEST(LogHistogram, SmallValuesAreExact) {
  device::LogHistogram h;
  for (int i = 0; i < 100; ++i) h.record(5);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 100);
  EXPECT_EQ(s.min, 5.0);
  EXPECT_EQ(s.max, 5.0);
  EXPECT_EQ(s.p50, 5.0);
  EXPECT_EQ(s.p99, 5.0);
  EXPECT_EQ(s.mean, 5.0);
}

TEST(LogHistogram, QuantilesWithinRelativeErrorUniform) {
  device::LogHistogram h;
  std::mt19937_64 rng(42);
  std::uniform_int_distribution<int64_t> dist(1000, 100000);
  std::vector<int64_t> values;
  values.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const int64_t v = dist(rng);
    values.push_back(v);
    h.record(v);
  }
  const auto s = h.snapshot();
  // Documented bound plus a little rank slack on a 20k-sample distribution.
  const double tol = device::LogHistogram::kQuantileRelativeError + 0.005;
  const auto p50 = static_cast<double>(exact_percentile(values, 0.50));
  const auto p99 = static_cast<double>(exact_percentile(values, 0.99));
  EXPECT_NEAR(s.p50, p50, tol * p50);
  EXPECT_NEAR(s.p99, p99, tol * p99);
  EXPECT_LE(s.p50, s.max);
  EXPECT_LE(s.p99, s.max);
  EXPECT_GE(s.p50, s.min);
}

TEST(LogHistogram, QuantilesWithinRelativeErrorLogNormal) {
  device::LogHistogram h;
  std::mt19937_64 rng(7);
  std::lognormal_distribution<double> dist(8.0, 1.2);  // heavy tail
  std::vector<int64_t> values;
  values.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const auto v = static_cast<int64_t>(dist(rng)) + 1;
    values.push_back(v);
    h.record(v);
  }
  const auto s = h.snapshot();
  const double tol = device::LogHistogram::kQuantileRelativeError + 0.01;
  const auto p50 = static_cast<double>(exact_percentile(values, 0.50));
  const auto p99 = static_cast<double>(exact_percentile(values, 0.99));
  EXPECT_NEAR(s.p50, p50, tol * p50);
  EXPECT_NEAR(s.p99, p99, tol * p99);
}

TEST(LogHistogram, PercentilesClampedToObservedRange) {
  device::LogHistogram h;
  h.record(1000);  // single sample: every percentile must equal it exactly
  const auto s = h.snapshot();
  EXPECT_EQ(s.p50, 1000.0);
  EXPECT_EQ(s.p99, 1000.0);
}

// ---- metrics registry ------------------------------------------------------

TEST(Registry, CounterGaugeHistogramBasics) {
  Registry reg;
  Counter c = reg.counter("dsx_test_total", {{"model", "m"}}, "help text");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5);

  Gauge g = reg.gauge("dsx_test_depth");
  g.set(7);
  g.add(-2);
  EXPECT_EQ(g.value(), 5);

  Histogram h = reg.histogram("dsx_test_us");
  h.record(100);
  h.record(300);
  EXPECT_EQ(h.snapshot().count, 2);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(Registry, DetachedHandlesAreNoOps) {
  Counter c;
  Gauge g;
  Histogram h;
  EXPECT_FALSE(c.attached());
  c.inc(100);
  g.set(9);
  h.record(50);
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.snapshot().count, 0);
}

TEST(Registry, ReRegistrationSharesTheCellAndLabelOrderIsCanonical) {
  Registry reg;
  Counter a = reg.counter("dsx_test_total", {{"a", "1"}, {"b", "2"}});
  Counter b = reg.counter("dsx_test_total", {{"b", "2"}, {"a", "1"}});
  a.inc();
  b.inc();
  EXPECT_EQ(a.value(), 2);  // same underlying cell
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, TypeClashThrows) {
  Registry reg;
  (void)reg.counter("dsx_test_series");
  EXPECT_THROW((void)reg.gauge("dsx_test_series"), dsx::Error);
  EXPECT_THROW((void)reg.histogram("dsx_test_series"), dsx::Error);
}

TEST(Registry, PrometheusExpositionShape) {
  Registry reg;
  reg.counter("dsx_test_requests_total", {{"model", "m\"x"}}, "Requests.")
      .inc(3);
  reg.gauge("dsx_test_depth", {}, "Depth.").set(4);
  auto h = reg.histogram("dsx_test_latency_us", {{"model", "mx"}});
  for (int i = 1; i <= 100; ++i) h.record(i);

  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# HELP dsx_test_requests_total Requests."),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE dsx_test_requests_total counter"),
            std::string::npos);
  // Label values are escaped.
  EXPECT_NE(text.find("dsx_test_requests_total{model=\"m\\\"x\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("dsx_test_depth 4"), std::string::npos);
  // Histograms export summary-style quantiles plus _sum and _count.
  EXPECT_NE(text.find("quantile=\"0.5\""), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  EXPECT_NE(text.find("dsx_test_latency_us_count{model=\"mx\"} 100"),
            std::string::npos);

  // No duplicate (name, labels) sample lines.
  std::map<std::string, int> seen;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    EXPECT_EQ(++seen[line.substr(0, sp)], 1) << line;
  }

  EXPECT_TRUE(json_well_formed(reg.json_snapshot()));
}

TEST(Registry, MultiWriterStressIsExact) {
  Registry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, t] {
      // Every thread re-registers its handles - exercises the registration
      // path under contention as well as the write path.
      Counter c = reg.counter("dsx_stress_total", {{"k", "v"}});
      Histogram h = reg.histogram("dsx_stress_us");
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.record((t * kPerThread + i) % 1000 + 1);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(reg.counter("dsx_stress_total", {{"k", "v"}}).value(),
            kThreads * kPerThread);
  EXPECT_EQ(reg.histogram("dsx_stress_us").snapshot().count,
            kThreads * kPerThread);
}

// ---- tracing ---------------------------------------------------------------

TEST(Trace, SamplingOffDrawsNoIds) {
  set_trace_sampling(0);
  EXPECT_FALSE(trace_enabled());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sample_trace_id(), 0u);
}

TEST(Trace, OneInNSamplingIsExact) {
  set_trace_sampling(4);
  int sampled = 0;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t id = sample_trace_id();
    if (id != 0) {
      ++sampled;
      ids.push_back(id);
    }
  }
  set_trace_sampling(0);
  // The sampler admits exactly one of every N consecutive draws, whatever
  // the counter phase, and sampled ids are unique.
  EXPECT_EQ(sampled, 250);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(Trace, DisabledTracingRecordsNothingFromServing) {
  clear_trace();
  set_trace_sampling(0);
  // A flight promotion would also land events in the rings; this test pins
  // down the HEAD-sampling-off contract, so switch tail capture off too.
  flight::set_flight_enabled(false);
  const int64_t before = trace_stats().recorded;

  auto model = make_scc_model(31);
  serve::InferenceServer server;
  server.register_model(
      "obs-off",
      std::make_unique<serve::CompiledModel>(
          std::move(model), Shape{3, kImage, kImage},
          serve::CompileOptions{.max_batch = 4}),
      {.max_batch = 4});
  Rng rng(5);
  for (int i = 0; i < 8; ++i) {
    (void)server.infer("obs-off",
                       random_uniform(make_nchw(1, 3, kImage, kImage), rng));
  }
  server.stop();
  EXPECT_EQ(trace_stats().recorded, before);
  flight::set_flight_enabled(true);
}

TEST(Trace, EndToEndServerSpansNestAndMatchStats) {
  clear_trace();
  set_trace_sampling(1);  // trace every request
  // Keep the track count exact: a flight promotion under a slow CI run
  // would add its own track for an already-traced request.
  flight::set_flight_enabled(false);

  auto model = make_scc_model(17);
  serve::InferenceServer server;
  server.register_model(
      "obs-e2e",
      std::make_unique<serve::CompiledModel>(
          std::move(model), Shape{3, kImage, kImage},
          serve::CompileOptions{.max_batch = 4}),
      {.max_batch = 4, .max_delay = std::chrono::microseconds(500)});

  constexpr int kRequests = 12;
  Rng rng(9);
  std::vector<Tensor> images;
  for (int i = 0; i < kRequests; ++i) {
    images.push_back(random_uniform(make_nchw(1, 3, kImage, kImage), rng));
  }
  std::vector<std::future<Tensor>> inflight;
  for (const Tensor& img : images) {
    inflight.push_back(server.submit("obs-e2e", img));
  }
  for (auto& f : inflight) (void)f.get();
  const serve::ModelStats stats = server.stats("obs-e2e");
  server.stop();
  set_trace_sampling(0);

  // Group the per-request tracks.
  std::map<uint64_t, std::vector<TraceEvent>> tracks;
  for (const TraceEvent& ev : trace_snapshot()) {
    if (ev.pid == kRequestPid && ev.tid != 0) tracks[ev.tid].push_back(ev);
  }
  ASSERT_EQ(tracks.size(), static_cast<size_t>(kRequests));

  int64_t max_request_dur = 0;
  for (const auto& [tid, events] : tracks) {
    const TraceEvent* request = nullptr;
    const TraceEvent* queue_wait = nullptr;
    const TraceEvent* execute = nullptr;
    const TraceEvent* reply = nullptr;
    int layer_events = 0;
    for (const TraceEvent& ev : events) {
      const std::string name = ev.name;
      if (name == "request") request = &ev;
      if (name == "queue_wait") queue_wait = &ev;
      if (name == "batch_execute") execute = &ev;
      if (name == "reply") reply = &ev;
      if (std::string(ev.cat) == "layer") ++layer_events;
    }
    ASSERT_NE(request, nullptr);
    ASSERT_NE(queue_wait, nullptr);
    ASSERT_NE(execute, nullptr);
    ASSERT_NE(reply, nullptr);
    // The compiled plan has >= 6 steps; each traced request sees them all.
    EXPECT_GE(layer_events, 6);

    const int64_t req_end = request->start_ns + request->dur_ns;
    const auto inside_request = [&](const TraceEvent& ev) {
      EXPECT_GE(ev.start_ns, request->start_ns) << ev.name;
      EXPECT_LE(ev.start_ns + ev.dur_ns, req_end) << ev.name;
    };
    inside_request(*queue_wait);
    inside_request(*execute);
    inside_request(*reply);
    EXPECT_EQ(queue_wait->start_ns, request->start_ns);
    EXPECT_EQ(reply->start_ns + reply->dur_ns, req_end);
    // Every per-layer kernel span nests inside batch_execute.
    const int64_t exec_end = execute->start_ns + execute->dur_ns;
    for (const TraceEvent& ev : events) {
      if (std::string(ev.cat) != "layer") continue;
      EXPECT_GE(ev.start_ns, execute->start_ns);
      EXPECT_LE(ev.start_ns + ev.dur_ns, exec_end);
    }
    max_request_dur = std::max(max_request_dur, request->dur_ns);
  }

  // The request span IS the latency sample: with every request traced, the
  // longest track must equal the stats() max latency (same timestamps).
  EXPECT_NEAR(static_cast<double>(max_request_dur) / 1e6,
              stats.batcher.latency.max_ms, 1e-6);
  EXPECT_EQ(stats.batcher.requests, kRequests);

  // Export surface: well-formed Chrome trace JSON with complete events and
  // track-naming metadata.
  const std::string json = chrome_trace_json();
  EXPECT_TRUE(json_well_formed(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"request\""), std::string::npos);

  const std::string path = "trace_test_obs.json";
  ASSERT_TRUE(export_chrome_trace(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), json);
  std::remove(path.c_str());
  clear_trace();
  flight::set_flight_enabled(true);
}

TEST(Trace, RingIsBoundedAndCountsDrops) {
  clear_trace();
  set_trace_sampling(1);
  constexpr int kEvents = 40000;  // > the 16384-slot per-thread ring
  for (int i = 0; i < kEvents; ++i) {
    TraceEvent ev;
    ev.name = "flood";
    ev.cat = "test";
    ev.tid = 1;
    ev.start_ns = i;
    record_event(ev);
  }
  set_trace_sampling(0);
  const TraceStats ts = trace_stats();
  EXPECT_GE(ts.recorded, kEvents);
  EXPECT_LE(ts.retained, 16384 + 1);
  EXPECT_GE(ts.dropped, kEvents - 16384 - 1);
  // Retained events are the newest and come back sorted by start time.
  const auto events = trace_snapshot();
  int64_t prev = -1;
  int64_t newest = 0;
  for (const TraceEvent& ev : events) {
    if (std::string(ev.cat) != "test") continue;
    EXPECT_GE(ev.start_ns, prev);
    prev = ev.start_ns;
    newest = std::max(newest, ev.start_ns);
  }
  EXPECT_EQ(newest, kEvents - 1);
  clear_trace();
}

// ---- journal ---------------------------------------------------------------

TEST(Journal, RingIsBoundedOrderedAndFilterable) {
  Journal j(4);
  for (int i = 0; i < 10; ++i) {
    j.record(i % 2 == 0 ? EventKind::kShed : EventKind::kReject, "m",
             std::to_string(i));
  }
  EXPECT_EQ(j.recorded(), 10u);
  EXPECT_EQ(j.dropped(), 6u);
  const auto events = j.events();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
  EXPECT_EQ(events.front().detail, "6");
  EXPECT_EQ(events.back().detail, "9");
  const auto sheds = j.events(EventKind::kShed);
  ASSERT_EQ(sheds.size(), 2u);
  for (const auto& e : sheds) EXPECT_EQ(e.kind, EventKind::kShed);
  EXPECT_NE(j.to_text().find("shed"), std::string::npos);
  j.clear();
  EXPECT_TRUE(j.events().empty());
}

TEST(Journal, ServerLifecycleIsJournaled) {
  Journal& j = Journal::global();
  j.clear();
  {
    serve::InferenceServer server;
    server.register_model(
        "obs-journal",
        std::make_unique<serve::CompiledModel>(
            make_scc_model(23), Shape{3, kImage, kImage},
            serve::CompileOptions{.max_batch = 2}),
        {.max_batch = 2});
    server.swap_model("obs-journal",
                      std::make_unique<serve::CompiledModel>(
                          make_scc_model(24), Shape{3, kImage, kImage},
                          serve::CompileOptions{.max_batch = 2}),
                      {.max_batch = 2});
    server.unregister_model("obs-journal");
  }
  const auto regs = j.events(EventKind::kRegister);
  const auto swaps = j.events(EventKind::kSwap);
  const auto unregs = j.events(EventKind::kUnregister);
  ASSERT_EQ(regs.size(), 1u);
  EXPECT_EQ(regs[0].scope, "obs-journal");
  ASSERT_EQ(swaps.size(), 1u);
  EXPECT_EQ(swaps[0].scope, "obs-journal");
  EXPECT_NE(swaps[0].detail.find("drained"), std::string::npos);
  ASSERT_EQ(unregs.size(), 1u);
  // Lifecycle order is exact: register < swap < unregister.
  EXPECT_LT(regs[0].seq, swaps[0].seq);
  EXPECT_LT(swaps[0].seq, unregs[0].seq);
}

// ---- server export surface -------------------------------------------------

TEST(Server, MetricsExportCoversServedModel) {
  auto model = make_scc_model(29);
  serve::InferenceServer server;
  server.register_model(
      "obs-export",
      std::make_unique<serve::CompiledModel>(
          std::move(model), Shape{3, kImage, kImage},
          serve::CompileOptions{.max_batch = 4}),
      {.max_batch = 4});
  Rng rng(3);
  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i) {
    (void)server.infer("obs-export",
                       random_uniform(make_nchw(1, 3, kImage, kImage), rng));
  }
  const std::string text = server.export_metrics_text();
  server.stop();
  // The registry is cumulative across tests in this process, so assert
  // presence and a floor rather than an exact count.
  const std::string series =
      "dsx_serve_requests_total{model=\"obs-export\"} ";
  const size_t pos = text.find(series);
  ASSERT_NE(pos, std::string::npos);
  EXPECT_GE(std::atoll(text.c_str() + pos + series.size()), kRequests);
  EXPECT_NE(text.find("dsx_serve_request_latency_us"), std::string::npos);
  EXPECT_TRUE(json_well_formed(server.export_metrics_json()));
}

TEST(Registry, HelpTextIsEscapedInExposition) {
  Registry reg;
  reg.counter("dsx_test_help_escape", {},
              "line one\nline two with back\\slash");
  const std::string text = reg.prometheus_text();
  // The exposition format requires \ -> \\ and newline -> \n in HELP; a
  // raw newline would split the HELP comment into a bogus sample line.
  EXPECT_NE(text.find("# HELP dsx_test_help_escape "
                      "line one\\nline two with back\\\\slash\n"),
            std::string::npos);
  EXPECT_EQ(text.find("line two with back\\slash\n"), std::string::npos);
}

TEST(Registry, SumCounterAndMergedHistogramAggregateAcrossReplicas) {
  Registry reg;
  reg.counter("dsx_test_agg_total", {{"model", "m"}, {"replica", "0"}})
      .inc(3);
  reg.counter("dsx_test_agg_total", {{"model", "m"}, {"replica", "1"}})
      .inc(4);
  reg.counter("dsx_test_agg_total", {{"model", "other"}}).inc(100);
  EXPECT_EQ(reg.sum_counter("dsx_test_agg_total", {{"model", "m"}}), 7);
  EXPECT_EQ(reg.sum_counter("dsx_test_agg_total", {}), 107);
  EXPECT_EQ(reg.sum_counter("dsx_test_agg_total", {{"model", "none"}}), 0);

  auto h0 = reg.histogram("dsx_test_agg_us", {{"model", "m"}, {"replica", "0"}});
  auto h1 = reg.histogram("dsx_test_agg_us", {{"model", "m"}, {"replica", "1"}});
  for (int i = 0; i < 50; ++i) h0.record(100);
  for (int i = 0; i < 50; ++i) h1.record(200);
  const auto merged = reg.merged_histogram("dsx_test_agg_us", {{"model", "m"}});
  EXPECT_EQ(merged.count, 100);
  EXPECT_EQ(merged.sum, 50 * 100 + 50 * 200);
  EXPECT_EQ(merged.min, 100);
  EXPECT_EQ(merged.max, 200);
  EXPECT_EQ(reg.merged_histogram("dsx_test_agg_us", {{"model", "x"}}).count, 0);
}

// ---- SLO window math -------------------------------------------------------

TEST(LogHistogram, DeltaSnapshotIsolatesTheWindow) {
  device::LogHistogram h;
  for (int i = 0; i < 1000; ++i) h.record(100);  // epoch A: all fast
  const auto base = h.bucket_snapshot();
  for (int i = 0; i < 1000; ++i) h.record(100000);  // epoch B: all slow
  const auto now = h.bucket_snapshot();

  // Cumulative view straddles both epochs; the delta sees only epoch B.
  const auto full = device::LogHistogram::delta_snapshot(
      now, device::LogHistogram::BucketSnapshot{});
  EXPECT_EQ(full.count, 2000);
  EXPECT_EQ(full.p50, 100.0);  // exact: small-ish values, clamped midpoints
  const auto window = device::LogHistogram::delta_snapshot(now, base);
  EXPECT_EQ(window.count, 1000);
  EXPECT_NEAR(window.p50, 100000.0,
              100000.0 * device::LogHistogram::kQuantileRelativeError);
  EXPECT_NEAR(window.p99, 100000.0,
              100000.0 * device::LogHistogram::kQuantileRelativeError);
  EXPECT_DOUBLE_EQ(window.mean, 100000.0);
  // An empty window (identical endpoints) is all zeros.
  const auto empty = device::LogHistogram::delta_snapshot(now, now);
  EXPECT_EQ(empty.count, 0);
  EXPECT_EQ(empty.p99, 0.0);
  // Delta against an empty baseline IS the cumulative snapshot.
  const auto snap = h.snapshot();
  EXPECT_EQ(full.count, snap.count);
  EXPECT_DOUBLE_EQ(full.p50, snap.p50);
  EXPECT_DOUBLE_EQ(full.p99, snap.p99);
  EXPECT_DOUBLE_EQ(full.min, snap.min);
  EXPECT_DOUBLE_EQ(full.max, snap.max);
}

namespace slo_testing {

/// Scripted cumulative series for deterministic SLO evaluation: every
/// step() appends one window sample (ts advances 1s), recording `good`
/// fast requests and `bad` slow ones into the cumulative state.
struct ScriptedModel {
  device::LogHistogram hist;  // cumulative latencies (microseconds)
  int64_t requests = 0;
  int64_t errors = 0;
  int64_t ts_ns = 1'000'000'000;

  slo::WindowSample step(int good, int bad, int errs = 0) {
    for (int i = 0; i < good; ++i) hist.record(100);      // 0.1 ms
    for (int i = 0; i < bad; ++i) hist.record(100'000);   // 100 ms
    requests += good + bad + errs;
    errors += errs;
    ts_ns += 1'000'000'000;
    slo::WindowSample s;
    s.ts_ns = ts_ns;
    s.requests = requests;
    s.errors = errors;
    s.latency = hist.bucket_snapshot();
    return s;
  }
};

slo::SloSpec test_spec() {
  slo::SloSpec spec;
  spec.p99_ms = 1.0;  // 1 ms objective; good=0.1ms passes, bad=100ms breaches
  spec.latency_target = 0.99;
  spec.max_error_rate = 0.05;
  spec.fast_window = std::chrono::milliseconds(1500);   // ~1 step
  spec.slow_window = std::chrono::milliseconds(5500);   // ~5 steps
  spec.critical_burn = 10.0;
  spec.degraded_burn = 2.0;
  spec.min_samples = 10;
  spec.clear_evaluations = 3;
  return spec;
}

}  // namespace slo_testing

TEST(Slo, WindowDeltaComputesRatesAndBurn) {
  using slo_testing::ScriptedModel;
  ScriptedModel m;
  const slo::SloSpec spec = slo_testing::test_spec();
  const slo::WindowSample a = m.step(/*good=*/90, /*bad=*/0);
  const slo::WindowSample b = m.step(/*good=*/16, /*bad=*/4, /*errs=*/0);
  const slo::WindowDelta d = slo::window_delta(spec, a, b);
  EXPECT_EQ(d.requests, 20);
  EXPECT_EQ(d.latency_count, 20);
  EXPECT_DOUBLE_EQ(d.error_rate, 0.0);
  // 4 of 20 samples above 1 ms -> slow_fraction 0.2 -> burn 0.2 / 0.01.
  EXPECT_DOUBLE_EQ(d.slow_fraction, 0.2);
  EXPECT_NEAR(d.latency_burn, 20.0, 1e-9);
  EXPECT_NEAR(d.burn_rate, 20.0, 1e-9);
  EXPECT_NEAR(d.p99_ms, 100.0,
              100.0 * device::LogHistogram::kQuantileRelativeError);

  // Availability burn: 2 errors in 20 requests = 10% vs the 5% budget.
  const slo::WindowSample c = m.step(/*good=*/18, /*bad=*/0, /*errs=*/2);
  const slo::WindowDelta e = slo::window_delta(spec, b, c);
  EXPECT_DOUBLE_EQ(e.error_rate, 0.1);
  EXPECT_NEAR(e.availability_burn, 2.0, 1e-9);
  // Racing/reversed counters clamp, never go negative.
  const slo::WindowDelta r = slo::window_delta(spec, c, b);
  EXPECT_EQ(r.requests, 0);
  EXPECT_EQ(r.errors, 0);
}

TEST(Slo, BurnRateTrackerTripsAndRecoversWithHysteresis) {
  using slo_testing::ScriptedModel;
  ScriptedModel m;
  const slo::SloSpec spec = slo_testing::test_spec();
  slo::BurnRateTracker tracker(spec);

  // Seed + healthy steady state.
  EXPECT_FALSE(tracker.push(m.step(20, 0)).armed);
  for (int i = 0; i < 6; ++i) {
    const slo::Evaluation ev = tracker.push(m.step(20, 0));
    EXPECT_TRUE(ev.armed);
    EXPECT_EQ(ev.health, slo::Health::kHealthy) << ev.detail;
  }

  // Breach: a step of 100% slow requests floods fast AND slow windows past
  // critical_burn -> Critical immediately (downgrades are not hysteretic).
  const slo::Evaluation trip = tracker.push(m.step(0, 20));
  EXPECT_TRUE(trip.armed);
  EXPECT_EQ(trip.raw, slo::Health::kCritical) << trip.detail;
  EXPECT_EQ(trip.health, slo::Health::kCritical);
  EXPECT_TRUE(trip.transitioned);

  // Recovery: clean steps report a healthier raw verdict, but health only
  // steps down after clear_evaluations consecutive clean evaluations.
  int clean_until_downgrade = 0;
  slo::Evaluation ev;
  for (int i = 0; i < 12; ++i) {
    ev = tracker.push(m.step(20, 0));
    ++clean_until_downgrade;
    if (ev.health != slo::Health::kCritical) break;
  }
  EXPECT_NE(ev.health, slo::Health::kCritical) << ev.detail;
  // The downgrade must have taken at least clear_evaluations cleaner
  // verdicts (the first recovery evals still see breach in the windows).
  EXPECT_GE(clean_until_downgrade, spec.clear_evaluations);
  // And it settles back to steady Healthy.
  for (int i = 0; i < 8; ++i) ev = tracker.push(m.step(20, 0));
  EXPECT_EQ(ev.health, slo::Health::kHealthy) << ev.detail;
}

TEST(Slo, TrackerRingStaysBoundedAndWindowsSurviveWrap) {
  using slo_testing::ScriptedModel;
  ScriptedModel m;
  slo::SloSpec spec = slo_testing::test_spec();
  slo::BurnRateTracker tracker(spec);
  // Push far more samples than any retention bound; deltas must stay
  // windowed (per-step counts), not drift toward cumulative totals.
  slo::Evaluation ev;
  for (int i = 0; i < 600; ++i) ev = tracker.push(m.step(20, 0));
  EXPECT_LE(tracker.ring_size(), slo::BurnRateTracker::kMaxRing);
  EXPECT_TRUE(ev.armed);
  // Fast window ~1.5 steps -> the delta covers 1..2 steps of 20 requests.
  EXPECT_GE(ev.fast.requests, 20);
  EXPECT_LE(ev.fast.requests, 40);
  // Slow window ~5.5 steps, never the 600-step cumulative total.
  EXPECT_GE(ev.slow.requests, 5 * 20);
  EXPECT_LE(ev.slow.requests, 7 * 20);
  EXPECT_EQ(ev.health, slo::Health::kHealthy);
}

TEST(Slo, EngineJournalsTransitionsAndExportsSeries) {
  auto scripted = std::make_shared<slo_testing::ScriptedModel>();
  slo::SloEngine engine;
  slo::SloSpec spec = slo_testing::test_spec();
  // Scripted sampler: healthy steps until told to breach.
  auto breach = std::make_shared<bool>(false);
  engine.set_slo("slo-journal", spec, [scripted, breach] {
    return *breach ? scripted->step(0, 20) : scripted->step(20, 0);
  });
  EXPECT_TRUE(engine.has_slo("slo-journal"));
  for (int i = 0; i < 4; ++i) (void)engine.evaluate("slo-journal");
  EXPECT_EQ(engine.health("slo-journal"), slo::Health::kHealthy);
  EXPECT_EQ(engine.aggregate(), slo::Health::kHealthy);

  const uint64_t recorded_before = Journal::global().recorded();
  *breach = true;
  const slo::Evaluation ev = engine.evaluate("slo-journal");
  EXPECT_EQ(ev.health, slo::Health::kCritical) << ev.detail;
  EXPECT_TRUE(ev.transitioned);
  EXPECT_EQ(engine.aggregate(), slo::Health::kCritical);

  // The transition was journaled with the evaluation detail.
  bool journaled = false;
  for (const Event& e : Journal::global().events(EventKind::kHealth)) {
    if (e.seq >= recorded_before && e.scope == "slo-journal" &&
        e.detail.find("->critical") != std::string::npos) {
      journaled = true;
    }
  }
  EXPECT_TRUE(journaled);

  // And the dsx_slo_* series reflect it.
  Registry& reg = Registry::global();
  EXPECT_EQ(reg.gauge("dsx_slo_health", {{"model", "slo-journal"}}).value(),
            2);
  EXPECT_GE(
      reg.counter("dsx_slo_transitions_total", {{"model", "slo-journal"}})
          .value(),
      1);
  EXPECT_GE(
      reg.counter("dsx_slo_evaluations_total", {{"model", "slo-journal"}})
          .value(),
      5);
  EXPECT_TRUE(json_well_formed(engine.healthz_json()));
  EXPECT_NE(engine.healthz_json().find("\"status\":\"critical\""),
            std::string::npos);
}

// ---- HTTP exporter ---------------------------------------------------------

namespace {

/// Every non-comment exposition line must be `name[{labels}] value` with a
/// fully-parsing numeric value. An OpenMetrics exemplar suffix
/// (` # {trace_id="..."} value timestamp`) is validated then stripped.
bool exposition_well_formed(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t exemplar = line.find(" # {");
    if (exemplar != std::string::npos) {
      const std::string suffix = line.substr(exemplar + 3);
      const size_t close = suffix.find("} ");
      if (close == std::string::npos) return false;
      // `value timestamp` after the exemplar labels, both numeric.
      std::istringstream tail(suffix.substr(close + 2));
      double v = 0.0;
      double ts = 0.0;
      if (!(tail >> v >> ts)) return false;
      line.resize(exemplar);
    }
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos || sp + 1 >= line.size()) return false;
    char* end = nullptr;
    (void)std::strtod(line.c_str() + sp + 1, &end);
    if (end == nullptr || *end != '\0') return false;
    const std::string head = line.substr(0, sp);
    if (head.empty()) return false;
    const size_t brace = head.find('{');
    if (brace != std::string::npos && head.back() != '}') return false;
  }
  return true;
}

/// The value of the first sample line whose head matches `series` exactly.
double scrape_series(const std::string& text, const std::string& series) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(series + " ", 0) == 0) {
      return std::strtod(line.c_str() + series.size() + 1, nullptr);
    }
  }
  return -1.0;
}

}  // namespace

TEST(Exporter, EndpointsServeOverHttp) {
  serve::InferenceServer server;
  server.register_model(
      "http-serve",
      std::make_unique<serve::CompiledModel>(
          make_scc_model(31), Shape{3, kImage, kImage},
          serve::CompileOptions{.max_batch = 4}),
      {.max_batch = 4});
  Rng rng(7);
  for (int i = 0; i < 8; ++i) {
    (void)server.infer("http-serve",
                       random_uniform(make_nchw(1, 3, kImage, kImage), rng));
  }
  const int port = server.start_exporter({});
  ASSERT_GT(port, 0);
  EXPECT_EQ(server.exporter_port(), port);

  const HttpResponse metrics = http_get("127.0.0.1", port, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.headers.find("text/plain"), std::string::npos);
  EXPECT_TRUE(exposition_well_formed(metrics.body));
  // A plain scrape is classic 0.0.4: no exemplar syntax (the classic parser
  // rejects it) and no OpenMetrics terminator.
  EXPECT_EQ(metrics.body.find(" # {"), std::string::npos);
  EXPECT_EQ(metrics.body.find("# EOF"), std::string::npos);
  EXPECT_GE(scrape_series(metrics.body,
                          "dsx_serve_requests_total{model=\"http-serve\"}"),
            8.0);

  // Offering application/openmetrics-text negotiates the OpenMetrics
  // exposition (exemplar-capable, # EOF terminated).
  const HttpResponse om =
      http_get("127.0.0.1", port, "/metrics", std::chrono::milliseconds(5000),
               "application/openmetrics-text");
  EXPECT_EQ(om.status, 200);
  EXPECT_NE(om.headers.find("application/openmetrics-text"),
            std::string::npos);
  EXPECT_TRUE(exposition_well_formed(om.body));
  EXPECT_EQ(om.body.rfind("# EOF\n"), om.body.size() - 6);

  const HttpResponse json = http_get("127.0.0.1", port, "/metrics.json");
  EXPECT_EQ(json.status, 200);
  EXPECT_TRUE(json_well_formed(json.body));

  // No SLOs declared: healthz is 200/healthy.
  const HttpResponse healthz = http_get("127.0.0.1", port, "/healthz");
  EXPECT_EQ(healthz.status, 200);
  EXPECT_NE(healthz.body.find("\"status\":\"healthy\""), std::string::npos);

  const HttpResponse journal = http_get("127.0.0.1", port, "/journal");
  EXPECT_EQ(journal.status, 200);
  EXPECT_NE(journal.body.find("register"), std::string::npos);

  const HttpResponse journal_json =
      http_get("127.0.0.1", port, "/journal.json");
  EXPECT_EQ(journal_json.status, 200);
  EXPECT_NE(journal_json.headers.find("application/json"),
            std::string::npos);
  EXPECT_TRUE(json_well_formed(journal_json.body));
  EXPECT_NE(journal_json.body.find("\"kind\":\"register\""),
            std::string::npos);
  EXPECT_NE(journal_json.body.find("\"recorded\":"), std::string::npos);

  const HttpResponse trace = http_get("127.0.0.1", port, "/trace");
  EXPECT_EQ(trace.status, 200);
  EXPECT_TRUE(json_well_formed(trace.body));

  const HttpResponse outliers = http_get("127.0.0.1", port, "/outliers");
  EXPECT_EQ(outliers.status, 200);
  EXPECT_TRUE(json_well_formed(outliers.body));
  EXPECT_NE(outliers.body.find("\"outliers\""), std::string::npos);

  // The scraped /metrics also publishes the trace-ring series.
  EXPECT_NE(metrics.body.find("dsx_obs_trace_retained"), std::string::npos);

  EXPECT_EQ(http_get("127.0.0.1", port, "/nope").status, 404);
  const HttpResponse help = http_get("127.0.0.1", port, "/");
  EXPECT_EQ(help.status, 200);
  EXPECT_NE(help.body.find("/outliers"), std::string::npos);
  EXPECT_NE(help.body.find("/journal.json"), std::string::npos);

  // Query strings are stripped, Prometheus-style.
  EXPECT_EQ(http_get("127.0.0.1", port, "/healthz?verbose=1").status, 200);

  server.stop_exporter();
  EXPECT_EQ(server.exporter_port(), 0);
  EXPECT_THROW(http_get("127.0.0.1", port, "/metrics"), Error);
  server.stop();
}

TEST(Exporter, HealthzFlipsTo503OnSloBreach) {
  serve::InferenceServer server;
  server.register_model(
      "http-breach",
      std::make_unique<serve::CompiledModel>(
          make_scc_model(33), Shape{3, kImage, kImage},
          serve::CompileOptions{.max_batch = 4}),
      {.max_batch = 4});
  // An impossible latency objective: every real request breaches, so the
  // burn rate saturates as soon as the windows have samples.
  slo::SloSpec spec;
  spec.p99_ms = 1e-6;
  spec.max_error_rate = 0.5;
  spec.fast_window = std::chrono::milliseconds(50);
  spec.slow_window = std::chrono::milliseconds(100);
  spec.min_samples = 8;
  server.set_slo("http-breach", spec);
  const int port = server.start_exporter({});

  // First probe seeds the window ring (still healthy).
  EXPECT_EQ(http_get("127.0.0.1", port, "/healthz").status, 200);

  Rng rng(9);
  for (int i = 0; i < 16; ++i) {
    (void)server.infer("http-breach",
                       random_uniform(make_nchw(1, 3, kImage, kImage), rng));
  }
  // Every sample in the window is over the objective -> Critical -> 503.
  // One probe can land before the window spans the traffic; give it a few.
  int status = 0;
  std::string body;
  for (int probe = 0; probe < 50 && status != 503; ++probe) {
    const HttpResponse r = http_get("127.0.0.1", port, "/healthz");
    status = r.status;
    body = r.body;
    if (status != 503) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_EQ(status, 503);
  EXPECT_NE(body.find("\"status\":\"critical\""), std::string::npos);
  EXPECT_NE(body.find("http-breach"), std::string::npos);
  EXPECT_EQ(server.slo_engine().health("http-breach"),
            slo::Health::kCritical);

  // The Healthy->Critical transition is in the journal with its windows.
  bool journaled = false;
  for (const Event& e : Journal::global().events(EventKind::kHealth)) {
    if (e.scope == "http-breach" &&
        e.detail.find("->critical") != std::string::npos) {
      journaled = true;
    }
  }
  EXPECT_TRUE(journaled);

  // The health downgrade armed the flight recorder for this model (the SLO
  // hook), and the arming itself was journaled.
  flight::ModelState* st = flight::model_state("http-breach");
  ASSERT_NE(st, nullptr);
  EXPECT_TRUE(st->armed());
  bool armed_journaled = false;
  for (const Event& e : Journal::global().events(EventKind::kFlight)) {
    if (e.scope == "http-breach") armed_journaled = true;
  }
  EXPECT_TRUE(armed_journaled);
  server.stop();
}

TEST(Exporter, ConcurrentScrapesUnderLoadStayParseableAndMonotone) {
  serve::InferenceServer server;
  const int port = server.start_exporter({});
  Registry& reg = Registry::global();

  constexpr int kWriters = 4;
  constexpr int kScrapers = 3;
  constexpr auto kDuration = std::chrono::milliseconds(400);
  std::atomic<bool> stop{false};
  std::atomic<int> parse_failures{0};
  std::atomic<int> monotonicity_violations{0};
  std::atomic<int> scrapes{0};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&reg, w, &stop] {
      Counter c = reg.counter("dsx_test_scrape_total",
                              {{"writer", std::to_string(w)}});
      Histogram h = reg.histogram("dsx_test_scrape_us",
                                  {{"writer", std::to_string(w)}});
      int64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        c.inc();
        h.record(100 + (i++ % 1000));
      }
    });
  }
  std::vector<std::thread> scrapers;
  scrapers.reserve(kScrapers);
  for (int s = 0; s < kScrapers; ++s) {
    scrapers.emplace_back([&, s] {
      const std::string series = "dsx_test_scrape_total{writer=\"" +
                                 std::to_string(s % kWriters) + "\"}";
      double last = -1.0;
      while (!stop.load(std::memory_order_relaxed)) {
        HttpResponse r;
        try {
          r = http_get("127.0.0.1", port, "/metrics");
        } catch (const Error&) {
          continue;  // accept-queue full under sanitizer load: retry
        }
        if (r.status != 200 || !exposition_well_formed(r.body)) {
          parse_failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        scrapes.fetch_add(1, std::memory_order_relaxed);
        const double v = scrape_series(r.body, series);
        if (v < last) {
          monotonicity_violations.fetch_add(1, std::memory_order_relaxed);
        }
        if (v >= 0.0) last = v;
      }
    });
  }
  std::this_thread::sleep_for(kDuration);
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
  for (std::thread& t : scrapers) t.join();

  EXPECT_EQ(parse_failures.load(), 0);
  EXPECT_EQ(monotonicity_violations.load(), 0);
  EXPECT_GT(scrapes.load(), 0);  // the loop really scraped under load
  server.stop();
}

// ---- LogHistogram bucket edges (the `le` boundary) -------------------------

TEST(LogHistogram, BucketUpperBoundsEveryValueInTheBucket) {
  // Small values: the bucket holds exactly that value, the edge is it.
  for (int64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(device::LogHistogram::bucket_upper(
                  device::LogHistogram::bucket_of(v)),
              static_cast<double>(v));
  }
  // Larger values: value < upper edge (exclusive), and the edge of bucket b
  // is the lower edge of bucket b+1 (contiguous coverage).
  for (int64_t v : {8, 9, 100, 1000, 99999, 1'000'000'000}) {
    const int b = device::LogHistogram::bucket_of(v);
    EXPECT_LT(static_cast<double>(v), device::LogHistogram::bucket_upper(b))
        << v;
    EXPECT_GT(device::LogHistogram::bucket_upper(b),
              device::LogHistogram::bucket_value(b))
        << v;
  }
}

// ---- flight recorder (tail-based capture) ----------------------------------

TEST(Flight, DisabledPromotesNothingFromServing) {
  flight::reset_for_test();
  // Threshold 1 us would promote EVERY request - proving the kill switch,
  // not a tall threshold, is what keeps captures out.
  flight::set_absolute_threshold_us(1);
  flight::set_flight_enabled(false);
  serve::InferenceServer server;
  server.register_model(
      "flight-off",
      std::make_unique<serve::CompiledModel>(
          make_scc_model(41), Shape{3, kImage, kImage},
          serve::CompileOptions{.max_batch = 4}),
      {.max_batch = 4});
  Rng rng(11);
  for (int i = 0; i < 6; ++i) {
    (void)server.infer("flight-off",
                       random_uniform(make_nchw(1, 3, kImage, kImage), rng));
  }
  server.stop();
  EXPECT_EQ(flight::flight_stats().promoted, 0);
  EXPECT_TRUE(flight::retained().empty());
  flight::set_flight_enabled(true);
  flight::set_absolute_threshold_us(100'000);
}

TEST(Flight, AbsoluteVerdictPromotesWithSpansExemplarAndTraceResolution) {
  clear_trace();
  set_trace_sampling(0);  // nothing head-sampled: promotion must stand alone
  flight::reset_for_test();
  flight::set_flight_enabled(true);
  flight::set_absolute_threshold_us(1);  // every reply is an outlier

  serve::InferenceServer server;
  server.register_model(
      "flight-e2e",
      std::make_unique<serve::CompiledModel>(
          make_scc_model(43), Shape{3, kImage, kImage},
          serve::CompileOptions{.max_batch = 4}),
      {.max_batch = 4});
  Rng rng(13);
  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i) {
    (void)server.infer("flight-e2e",
                       random_uniform(make_nchw(1, 3, kImage, kImage), rng));
  }
  server.stop();
  flight::set_absolute_threshold_us(100'000);

  const flight::FlightStats stats = flight::flight_stats();
  EXPECT_GE(stats.promoted, kRequests);
  EXPECT_GE(stats.retained, kRequests);

  // The top-K capture carries the full span breakdown incl. per-layer.
  flight::ModelState* st = flight::model_state("flight-e2e");
  ASSERT_NE(st, nullptr);
  const std::vector<flight::Capture> outliers = st->outliers();
  ASSERT_FALSE(outliers.empty());
  const flight::Capture& cap = outliers.front();
  EXPECT_EQ(cap.verdict, flight::Verdict::kAbsolute);
  EXPECT_GE(cap.trace_id, flight::kFlightIdBase);  // not head-sampled
  EXPECT_GT(cap.latency_us, 0);
  EXPECT_EQ(cap.batch, 1);
  bool has_execute = false;
  bool has_queue_wait = false;
  int layer_spans = 0;
  for (const flight::Span& span : cap.spans) {
    const std::string name = span.name;
    if (name == "batch_execute") has_execute = true;
    if (name == "queue_wait") has_queue_wait = true;
    if (std::string(span.cat) == "layer") ++layer_spans;
  }
  EXPECT_TRUE(has_execute);
  EXPECT_TRUE(has_queue_wait);
  EXPECT_GE(layer_spans, 6);  // the compiled plan has >= 6 steps

  // The capture's trace id resolves in the trace rings (GET /trace).
  bool resolves = false;
  for (const TraceEvent& ev : trace_snapshot()) {
    if (ev.tid == cap.trace_id) resolves = true;
  }
  EXPECT_TRUE(resolves);

  // /outliers carries model, verdict and the span breakdown.
  const std::string json = flight::outliers_json();
  EXPECT_TRUE(json_well_formed(json));
  EXPECT_NE(json.find("\"model\":\"flight-e2e\""), std::string::npos);
  EXPECT_NE(json.find("\"verdict\":\"absolute\""), std::string::npos);
  EXPECT_NE(json.find("\"batch_execute\""), std::string::npos);

  // The promotion filed an exemplar on the model's latency histogram, its
  // trace id in the flight range.
  Histogram latency = Registry::global().histogram(
      "dsx_serve_request_latency_us", {{"model", "flight-e2e"}});
  const std::vector<Exemplar> exemplars = latency.exemplars();
  ASSERT_FALSE(exemplars.empty());
  bool exemplar_resolves = false;
  for (const Exemplar& e : exemplars) {
    EXPECT_GE(e.trace_id, flight::kFlightIdBase);
    for (const TraceEvent& ev : trace_snapshot()) {
      if (ev.tid == e.trace_id) exemplar_resolves = true;
    }
  }
  EXPECT_TRUE(exemplar_resolves);
  clear_trace();
}

TEST(Flight, AdaptiveThresholdTracksTheWindowedP99) {
  flight::set_absolute_threshold_us(0);  // isolate the adaptive rule
  flight::ModelState st("flight-adaptive-unit");
  EXPECT_EQ(st.adaptive_threshold_us(), 0);
  EXPECT_EQ(st.judge(1'000'000), flight::Verdict::kNone);  // not derived yet
  // A steady ~1 ms distribution, fed the way a batcher feeds it: record into
  // the watched latency series, then observe(). Refreshes land at
  // kMinWindow and every kRefreshEvery observations after.
  Histogram latency = Registry::global().histogram(
      "dsx_serve_request_latency_us", {{"model", "flight-adaptive-unit"}});
  st.watch(latency);
  for (int i = 0; i < 600; ++i) {
    latency.record(1000 + i % 5);
    st.observe();
  }
  const int64_t adaptive = st.adaptive_threshold_us();
  ASSERT_GT(adaptive, 1000);  // ~1.5x the windowed p99
  EXPECT_LT(adaptive, 3000);
  EXPECT_EQ(st.judge(adaptive + 1000), flight::Verdict::kAdaptive);
  EXPECT_EQ(st.judge(1000), flight::Verdict::kNone);  // inside the window
  flight::set_absolute_threshold_us(100'000);
}

TEST(Flight, ArmedCooldownPromotesAboveTheWindowedP50AndJournals) {
  flight::set_absolute_threshold_us(0);
  flight::ModelState* st = flight::model_state("flight-armed-unit");
  ASSERT_NE(st, nullptr);
  st->reset_for_test();
  Histogram latency = Registry::global().histogram(
      "dsx_serve_request_latency_us", {{"model", "flight-armed-unit"}});
  st->watch(latency);
  for (int i = 0; i < 600; ++i) {
    latency.record(1000);
    st->observe();
  }
  // p50 floor ~= 1001, adaptive ~= 1501: a 1.2 ms reply is interesting only
  // while armed.
  ASSERT_GT(st->armed_floor_us(), 0);
  ASSERT_LT(st->armed_floor_us(), 1200);
  ASSERT_GT(st->adaptive_threshold_us(), 1200);
  EXPECT_FALSE(st->armed());
  EXPECT_EQ(st->judge(1200), flight::Verdict::kNone);

  const uint64_t seq_before = Journal::global().recorded();
  flight::arm("flight-armed-unit", std::chrono::milliseconds(10'000));
  EXPECT_TRUE(st->armed());
  EXPECT_EQ(st->judge(1200), flight::Verdict::kArmed);
  EXPECT_EQ(st->judge(900), flight::Verdict::kNone);  // below the floor
  bool journaled = false;
  for (const Event& e : Journal::global().events(EventKind::kFlight)) {
    if (e.seq >= seq_before && e.scope == "flight-armed-unit" &&
        e.detail.find("armed") != std::string::npos) {
      journaled = true;
    }
  }
  EXPECT_TRUE(journaled);

  st->arm(std::chrono::milliseconds(0));  // expire the cooldown
  EXPECT_FALSE(st->armed());
  EXPECT_EQ(st->judge(1200), flight::Verdict::kNone);
  flight::set_absolute_threshold_us(100'000);
}

TEST(Trace, SampledAndPromotedRequestsEmitSpansOnce) {
  // Both span paths on at once: every request is head-sampled AND promoted
  // (a 1 us absolute threshold). Each request's timeline must land in the
  // rings exactly once, under its sampled id.
  clear_trace();
  flight::reset_for_test();
  flight::set_flight_enabled(true);
  flight::set_absolute_threshold_us(1);
  set_trace_sampling(1);

  serve::InferenceServer server;
  server.register_model(
      "obs-once",
      std::make_unique<serve::CompiledModel>(
          make_scc_model(53), Shape{3, kImage, kImage},
          serve::CompileOptions{.max_batch = 4}),
      {.max_batch = 4, .max_delay = std::chrono::microseconds(500)});
  constexpr int kRequests = 12;
  Rng rng(19);
  std::vector<std::future<Tensor>> inflight;
  for (int i = 0; i < kRequests; ++i) {
    inflight.push_back(server.submit(
        "obs-once", random_uniform(make_nchw(1, 3, kImage, kImage), rng)));
  }
  for (auto& f : inflight) (void)f.get();
  server.stop();
  set_trace_sampling(0);
  flight::set_absolute_threshold_us(100'000);

  std::map<uint64_t, std::vector<TraceEvent>> tracks;
  for (const TraceEvent& ev : trace_snapshot()) {
    if (ev.pid == kRequestPid && ev.tid != 0) tracks[ev.tid].push_back(ev);
  }
  ASSERT_EQ(tracks.size(), static_cast<size_t>(kRequests));
  for (const auto& [tid, events] : tracks) {
    EXPECT_LT(tid, flight::kFlightIdBase);  // the sampled id, not a flight id
    int requests = 0;
    int executes = 0;
    std::vector<std::pair<int64_t, std::string>> layers;
    for (const TraceEvent& ev : events) {
      const std::string name = ev.name;
      if (name == "request") ++requests;
      if (name == "batch_execute") ++executes;
      if (std::string(ev.cat) == "layer") {
        layers.emplace_back(ev.start_ns, name);
      }
    }
    EXPECT_EQ(requests, 1) << "track " << tid;
    EXPECT_EQ(executes, 1) << "track " << tid;
    // One set of layer spans: the plan's >= 6 steps, none repeated.
    EXPECT_GE(layers.size(), 6u);
    std::sort(layers.begin(), layers.end());
    EXPECT_EQ(std::adjacent_find(layers.begin(), layers.end()), layers.end())
        << "track " << tid;
  }

  flight::ModelState* st = flight::model_state("obs-once");
  ASSERT_NE(st, nullptr);
  const std::vector<flight::Capture> outliers = st->outliers();
  EXPECT_EQ(outliers.size(), static_cast<size_t>(kRequests));
  EXPECT_EQ(flight::flight_stats().promoted, kRequests);
  for (const flight::Capture& cap : outliers) {
    EXPECT_EQ(cap.verdict, flight::Verdict::kAbsolute);
    EXPECT_EQ(tracks.count(cap.trace_id), 1u) << cap.trace_id;
  }
  clear_trace();
}

/// Serves exactly kMinWindow sequential requests on a fresh `replicas`-wide
/// fleet with the adaptive rule isolated, then checks that the flight
/// window's thresholds are those of the exported
/// dsx_serve_request_latency_us{model} series (every replica merged).
void expect_window_is_the_exported_series(const std::string& model,
                                          int replicas) {
  flight::set_flight_enabled(true);
  flight::set_absolute_threshold_us(0);
  set_trace_sampling(0);
  const Labels match{{"model", model}};
  Registry& reg = Registry::global();
  const device::LogHistogram::BucketSnapshot before =
      reg.merged_histogram("dsx_serve_request_latency_us", match);
  {
    serve::InferenceServer server;
    server.register_model(
        model,
        std::make_unique<serve::CompiledModel>(
            make_scc_model(59), Shape{3, kImage, kImage},
            serve::CompileOptions{.max_batch = 4}),
        // Round-robin: sequential requests alternate replicas.
        {.max_batch = 4,
         .replicas = replicas,
         .policy = shard::RoutingPolicy::kRoundRobin});
    // The window restarts at the fleet's first observation (re-runs of the
    // test reuse the process-lifetime cells and state).
    flight::reset_for_test();
    Rng rng(23);
    const Tensor image = random_uniform(make_nchw(1, 3, kImage, kImage), rng);
    for (int64_t i = 0; i < flight::ModelState::kMinWindow; ++i) {
      (void)server.infer(model, image);
    }
    server.stop();
  }
  flight::set_absolute_threshold_us(100'000);

  const device::LogHistogram::Snapshot series =
      device::LogHistogram::delta_snapshot(
          reg.merged_histogram("dsx_serve_request_latency_us", match), before);
  ASSERT_EQ(series.count, flight::ModelState::kMinWindow);
  flight::ModelState* st = flight::model_state(model.c_str());
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->adaptive_threshold_us(),
            static_cast<int64_t>(1.5 * series.p99) + 1);
  EXPECT_EQ(st->armed_floor_us(), static_cast<int64_t>(series.p50) + 1);
}

TEST(Flight, WindowIsTheExportedLatencySeries) {
  expect_window_is_the_exported_series("flight-window", 1);
}

TEST(Flight, WindowMergesEveryReplicaOfTheModel) {
  expect_window_is_the_exported_series("flight-window-r2", 2);
  // Both replicas answered, so the merged window spans two cells.
  for (int r = 0; r < 2; ++r) {
    EXPECT_GT(Registry::global()
                  .histogram("dsx_serve_request_latency_us",
                             {{"model", "flight-window-r2"},
                              {"replica", std::to_string(r)}})
                  .snapshot()
                  .count,
              0)
        << "replica " << r;
  }
}

TEST(Flight, WindowRefreshRacesRecordingThreads) {
  // Serving threads write the watched cells while observe() refreshes from
  // them on whichever thread crossed the trigger; watch() may run
  // concurrently too (a hot-swap re-resolving the same cells).
  flight::set_absolute_threshold_us(0);
  flight::ModelState st("flight-window-race");
  constexpr int kThreads = 4;
  std::vector<Histogram> cells;
  for (int r = 0; r < kThreads; ++r) {
    cells.push_back(Registry::global().histogram(
        "dsx_serve_request_latency_us",
        {{"model", "flight-window-race"}, {"replica", std::to_string(r)}}));
    st.watch(cells.back());
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        cells[static_cast<size_t>(t)].record(1000 + i % 7);
        st.observe();
        if (i % 500 == 0) st.watch(cells[static_cast<size_t>(t)]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GT(st.adaptive_threshold_us(), 1000);
  EXPECT_LT(st.adaptive_threshold_us(), 3000);
  EXPECT_GT(st.armed_floor_us(), 900);
  EXPECT_LT(st.armed_floor_us(), 1200);
  flight::set_absolute_threshold_us(100'000);
}

TEST(Flight, ShedRequestsPromoteWithAQueueWaitSpan) {
  flight::reset_for_test();
  flight::set_flight_enabled(true);
  serve::CompiledModel compiled(make_scc_model(47), Shape{3, kImage, kImage},
                                serve::CompileOptions{.max_batch = 4});
  shard::DeadlineBatcher batcher(compiled, {.max_batch = 4,
                                            .manual_drain = true,
                                            .metric_model = "flight-shed"});
  Rng rng(17);
  auto doomed = batcher.submit(
      random_uniform(make_nchw(1, 3, kImage, kImage), rng),
      {.deadline =
           std::chrono::steady_clock::now() + std::chrono::milliseconds(1)});
  auto fine =
      batcher.submit(random_uniform(make_nchw(1, 3, kImage, kImage), rng));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(batcher.drain_one(), 1u);
  EXPECT_THROW(doomed.get(), serve::DeadlineExceeded);
  (void)fine.get();
  batcher.stop();

  flight::ModelState* st = flight::model_state("flight-shed");
  ASSERT_NE(st, nullptr);
  bool shed_capture = false;
  for (const flight::Capture& cap : st->outliers()) {
    if (cap.verdict != flight::Verdict::kShed) continue;
    shed_capture = true;
    ASSERT_FALSE(cap.spans.empty());
    EXPECT_STREQ(cap.spans.front().name, "queue_wait");
    EXPECT_GE(cap.latency_us, 0);
    EXPECT_GE(cap.trace_id, flight::kFlightIdBase);
  }
  EXPECT_TRUE(shed_capture);
  const std::string json = flight::outliers_json();
  EXPECT_NE(json.find("\"verdict\":\"shed\""), std::string::npos);
}

TEST(Flight, RetainedRingIsBounded) {
  flight::reset_for_test();
  flight::ModelState* st = flight::model_state("flight-bound");
  for (size_t i = 0; i < flight::kRetainedCap + 50; ++i) {
    flight::Capture cap;
    cap.latency_us = static_cast<int64_t>(i);
    cap.verdict = flight::Verdict::kAbsolute;
    (void)flight::promote(st, std::move(cap));
  }
  const std::vector<flight::Capture> ring = flight::retained();
  EXPECT_EQ(ring.size(), flight::kRetainedCap);
  // Oldest-first ring: the front is the oldest survivor, the back is newest.
  EXPECT_EQ(ring.front().latency_us, 50);
  EXPECT_EQ(ring.back().latency_us,
            static_cast<int64_t>(flight::kRetainedCap) + 49);
  // The top-K table is bounded too, worst first.
  const std::vector<flight::Capture> outliers = st->outliers();
  EXPECT_EQ(outliers.size(), flight::ModelState::kTopK);
  EXPECT_EQ(outliers.front().latency_us,
            static_cast<int64_t>(flight::kRetainedCap) + 49);
  flight::reset_for_test();
}

// ---- native histogram buckets + exemplars ----------------------------------

TEST(Registry, NativeBucketExpositionIsCumulativeAndOptIn) {
  Registry& reg = Registry::global();
  Histogram h = reg.histogram("dsx_test_native_us", {}, "bucket test");
  h.record(2);
  h.record(2);
  h.record(50);
  h.record(5000);

  // Default exposition: unchanged summary style, no bucket series.
  const std::string summary = reg.prometheus_text();
  EXPECT_NE(summary.find("# TYPE dsx_test_native_us summary"),
            std::string::npos);
  EXPECT_EQ(summary.find("dsx_test_native_us_bucket"), std::string::npos);

  Registry::Exposition expo;
  expo.native_histogram_buckets = true;
  const std::string text = reg.prometheus_text(expo);
  EXPECT_NE(text.find("# TYPE dsx_test_native_us histogram"),
            std::string::npos);
  EXPECT_TRUE(exposition_well_formed(text));

  // Parse this metric's bucket series: cumulative counts must be
  // non-decreasing with increasing le, and +Inf must equal _count.
  std::istringstream in(text);
  std::string line;
  double last_cum = 0.0;
  double last_le = -1.0;
  double inf_value = -1.0;
  int bucket_lines = 0;
  while (std::getline(in, line)) {
    if (line.rfind("dsx_test_native_us_bucket{le=\"", 0) != 0) continue;
    const size_t q1 = line.find('"');
    const size_t q2 = line.find('"', q1 + 1);
    const std::string le = line.substr(q1 + 1, q2 - q1 - 1);
    const double value = std::strtod(line.c_str() + line.rfind(' ') + 1,
                                     nullptr);
    ++bucket_lines;
    EXPECT_GE(value, last_cum) << line;
    last_cum = value;
    if (le == "+Inf") {
      inf_value = value;
    } else {
      const double le_num = std::strtod(le.c_str(), nullptr);
      EXPECT_GT(le_num, last_le) << line;  // ascending bucket edges
      last_le = le_num;
    }
  }
  EXPECT_GE(bucket_lines, 3);  // 2, 50, 5000 land in distinct buckets + Inf
  EXPECT_EQ(inf_value, 4.0);   // le="+Inf" == _count
}

TEST(Registry, ExemplarsKeepPerRangeSlotsAndExport) {
  Registry& reg = Registry::global();
  Histogram h = reg.histogram("dsx_test_exemplar_us", {}, "exemplar test");
  // An outlier exemplar, then a flood of fast-path exemplars in a LOW range:
  // the ranges map to different slots, so the flood cannot evict it.
  h.record(100'000);
  h.record_exemplar(100'000, 99);
  for (int i = 0; i < 1000; ++i) {
    h.record(3);
    h.record_exemplar(3, 7);
  }
  const std::vector<Exemplar> exemplars = h.exemplars();
  bool outlier_survived = false;
  bool flood_present = false;
  for (const Exemplar& e : exemplars) {
    if (e.trace_id == 99 && e.value == 100'000.0) outlier_survived = true;
    if (e.trace_id == 7) flood_present = true;
  }
  EXPECT_TRUE(outlier_survived);
  EXPECT_TRUE(flood_present);

  // OpenMetrics syntax on the bucket the value falls in. Exemplars only
  // appear in the OpenMetrics exposition - the classic 0.0.4 parser rejects
  // them - so the opt-in is exemplars AND openmetrics.
  Registry::Exposition expo;
  expo.native_histogram_buckets = true;
  expo.exemplars = true;
  expo.openmetrics = true;
  const std::string text = reg.prometheus_text(expo);
  EXPECT_TRUE(exposition_well_formed(text));
  EXPECT_NE(text.find("# {trace_id=\"99\"} 100000"), std::string::npos);
  // OpenMetrics terminator, and no bare quantile samples inside a
  // histogram-typed family (strict OM allows only _bucket/_count/_sum).
  EXPECT_EQ(text.rfind("# EOF\n"), text.size() - 6);
  EXPECT_EQ(text.find("dsx_test_exemplar_us{quantile"), std::string::npos);

  // exemplars without openmetrics stays classic-safe: no exemplar syntax.
  expo.openmetrics = false;
  const std::string classic = reg.prometheus_text(expo);
  EXPECT_EQ(classic.find("trace_id"), std::string::npos);
  EXPECT_EQ(classic.find("# EOF"), std::string::npos);
  // Classic keeps the summary-style quantile series alongside the buckets.
  EXPECT_NE(classic.find("dsx_test_exemplar_us{quantile=\"0.99\"}"),
            std::string::npos);

  // Without the exemplars opt-in the same buckets export clean.
  expo.exemplars = false;
  EXPECT_EQ(reg.prometheus_text(expo).find("trace_id"), std::string::npos);

  // And the JSON snapshot carries them structurally.
  const std::string json = reg.json_snapshot();
  EXPECT_TRUE(json_well_formed(json));
  EXPECT_NE(json.find("\"exemplars\":["), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":99"), std::string::npos);
}

// Runs under the TSan tier alongside Intern.* (see ci.sh --sanitize): the
// slot payloads are relaxed atomics ordered by the seqlock fences, so
// concurrent writers/readers must be data-race-free AND never surface a
// torn (value, trace_id) pair.
TEST(ExemplarSeqlock, ConcurrentWritersAndReadersStayCoherent) {
  Registry& reg = Registry::global();
  Histogram h = reg.histogram("dsx_test_exemplar_race_us", {});
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> writers;
  writers.reserve(4);
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&h, &stop, w] {
      int64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // Alternate a low-range and a high-range value (distinct slots, the
        // high one contended by every writer). trace_id mirrors the value,
        // so any torn pair is detectable by the readers.
        const int64_t value = (i++ % 2 == 0) ? 3 : 100'000 + w;
        h.record_exemplar(value, static_cast<uint64_t>(value));
      }
    });
  }
  std::vector<std::thread> readers;
  readers.reserve(2);
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&h, &stop, &torn] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (const Exemplar& e : h.exemplars()) {
          if (static_cast<uint64_t>(e.value) != e.trace_id) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);
}

// ---- trace stats as registry series ----------------------------------------

TEST(Trace, PublishTraceStatsExportsRegistrySeries) {
  clear_trace();
  for (int i = 0; i < 10; ++i) {
    TraceEvent ev;
    ev.name = "publish-test";
    ev.tid = 1;
    record_event(ev);
  }
  publish_trace_stats();
  const TraceStats s = trace_stats();
  Registry& reg = Registry::global();
  EXPECT_EQ(reg.gauge("dsx_obs_trace_retained", {}).value(), s.retained);
  EXPECT_EQ(reg.gauge("dsx_obs_trace_threads", {}).value(), s.threads);
  const int64_t dropped_before =
      reg.counter("dsx_obs_trace_dropped_total", {}).value();
  EXPECT_GE(dropped_before, 0);
  // Overflow one ring; the published counter advances by the delta and
  // stays monotone across a clear_trace() (which resets the raw counts).
  constexpr int kOverflow = 20000;  // > the 16384-slot ring
  for (int i = 0; i < kOverflow; ++i) {
    TraceEvent ev;
    ev.name = "publish-overflow";
    ev.tid = 2;
    record_event(ev);
  }
  publish_trace_stats();
  const int64_t dropped_after =
      reg.counter("dsx_obs_trace_dropped_total", {}).value();
  EXPECT_GT(dropped_after, dropped_before);
  clear_trace();
  publish_trace_stats();
  EXPECT_GE(reg.counter("dsx_obs_trace_dropped_total", {}).value(),
            dropped_after);  // monotone despite the reset underneath
  EXPECT_EQ(reg.gauge("dsx_obs_trace_retained", {}).value(), 0);
}

// ---- journal JSON ----------------------------------------------------------

TEST(Journal, ToJsonIsStructuredAndEscaped) {
  Journal::global().record(EventKind::kFlight, "json-scope",
                           "detail with \"quotes\"\nand a newline");
  const std::string json = Journal::global().to_json();
  EXPECT_TRUE(json_well_formed(json));
  EXPECT_NE(json.find("\"kind\":\"flight\""), std::string::npos);
  EXPECT_NE(json.find("\"scope\":\"json-scope\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quotes\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\"seq\":"), std::string::npos);
  EXPECT_NE(json.find("\"wall\":\""), std::string::npos);
  EXPECT_NE(json.find("\"recorded\":"), std::string::npos);
  EXPECT_NE(json.find("\"capacity\":"), std::string::npos);
  // ISO-8601 UTC with milliseconds: ...T..:..:...mmmZ".
  EXPECT_NE(json.find("Z\""), std::string::npos);
}

// ---- intern() under concurrency (suite name = the TSan filter) -------------

TEST(Intern, DedupReturnsTheSamePointer) {
  const char* a = intern("intern-dedup-probe");
  const char* b = intern("intern-dedup-probe");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "intern-dedup-probe");
}

TEST(Intern, PointersStayValidAcrossPoolGrowth) {
  const char* first = intern("intern-growth-anchor");
  std::vector<const char*> ptrs;
  ptrs.reserve(4000);
  for (int i = 0; i < 4000; ++i) {
    ptrs.push_back(intern("intern-growth-" + std::to_string(i)));
  }
  // The pool rehashed many times; node-based storage must keep every
  // previously returned pointer valid and deduplicated.
  EXPECT_EQ(intern("intern-growth-anchor"), first);
  EXPECT_STREQ(first, "intern-growth-anchor");
  for (int i = 0; i < 4000; i += 397) {
    const std::string expect = "intern-growth-" + std::to_string(i);
    EXPECT_STREQ(ptrs[static_cast<size_t>(i)], expect.c_str());
    EXPECT_EQ(intern(expect), ptrs[static_cast<size_t>(i)]);
  }
}

TEST(Intern, ConcurrentHammerDedupsToStablePointers) {
  constexpr int kThreads = 8;
  constexpr int kStrings = 128;
  constexpr int kRounds = 40;
  std::vector<std::vector<const char*>> seen(
      kThreads, std::vector<const char*>(kStrings, nullptr));
  std::atomic<int> start_gate{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &seen, &start_gate] {
      start_gate.fetch_add(1, std::memory_order_relaxed);
      while (start_gate.load(std::memory_order_relaxed) < kThreads) {
      }
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kStrings; ++i) {
          const char* p =
              intern("intern-hammer-" + std::to_string(i));
          if (seen[static_cast<size_t>(t)][static_cast<size_t>(i)] ==
              nullptr) {
            seen[static_cast<size_t>(t)][static_cast<size_t>(i)] = p;
          } else {
            // Same string -> same pointer, every round, every thread.
            ASSERT_EQ(
                seen[static_cast<size_t>(t)][static_cast<size_t>(i)], p);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kStrings; ++i) {
    const std::string expect = "intern-hammer-" + std::to_string(i);
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[static_cast<size_t>(t)][static_cast<size_t>(i)],
                seen[0][static_cast<size_t>(i)]);
    }
    EXPECT_STREQ(seen[0][static_cast<size_t>(i)], expect.c_str());
  }
}

}  // namespace

// ---- obs::prof (continuous profiling + resource utilization) ---------------

// Sampling-profiler tests arm a real SIGPROF timer; under ASan/TSan the
// signal interacts with the sanitizer runtime in ways the production
// overhead contract does not care about, so they skip there (the ci.sh http
// smoke and the bench gate cover sampling on the plain build).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DSX_PROF_TESTS_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#ifndef DSX_PROF_TESTS_SANITIZED
#define DSX_PROF_TESTS_SANITIZED 1
#endif
#endif
#endif
#ifndef DSX_PROF_TESTS_SANITIZED
#define DSX_PROF_TESTS_SANITIZED 0
#endif

/// External linkage + noinline + noclone, so dladdr can resolve the frame in
/// captured stacks (anonymous-namespace functions never symbolize - that is
/// the negative case, not the one under test; and without noclone, GCC's
/// constant-propagation pass redirects constant-argument calls to a LOCAL
/// .constprop clone absent from the dynamic symbol table).
__attribute__((noinline, noclone)) double dsx_prof_test_burn(int64_t iters) {
  volatile double x = 1.0000001;
  for (int64_t i = 0; i < iters; ++i) x = x * 1.0000001 + 1e-9;
  return x;
}

namespace {

/// RAII start/stop so a failing assertion never leaks a live SIGPROF timer
/// into later tests.
struct ProfScope {
  bool ok;
  explicit ProfScope(int hz = 0) : ok(prof::start(hz)) {}
  ~ProfScope() { prof::stop(); }
};

TEST(LogHistogram, BucketLeIsInclusiveForEverySampleValue) {
  // bucket_le must be the largest value its bucket holds: >= every member
  // value, and still mapping into the same bucket (bucket_upper, the
  // half-open edge, maps into the NEXT bucket for b >= 8).
  for (const int64_t v : {0LL, 5LL, 7LL, 8LL, 16LL, 17LL, 18LL, 100000LL}) {
    const int b = device::LogHistogram::bucket_of(v);
    const double le = device::LogHistogram::bucket_le(b);
    EXPECT_GE(le, static_cast<double>(v)) << "value " << v;
    EXPECT_EQ(device::LogHistogram::bucket_of(static_cast<int64_t>(le)), b)
        << "value " << v;
    if (b >= 8) {
      EXPECT_NE(device::LogHistogram::bucket_of(static_cast<int64_t>(
                    device::LogHistogram::bucket_upper(b))),
                b)
          << "half-open edge must belong to the next bucket, value " << v;
    }
  }
}

TEST(LogHistogram, ExpositionCountsValueLandingExactlyOnABucketEdge) {
  // Regression for the documented bucket_upper-vs-`le` mismatch: 18 lands
  // exactly on bucket 32's exclusive edge ([16,18) -> le="17") and is filed
  // into bucket 33 ([18,20) -> le="19"). The old exposition labeled bucket
  // 32 le="18", silently excluding an 18-valued sample from its own `le`.
  Histogram h = Registry::global().histogram("dsx_test_edge_hist", {},
                                             "edge regression");
  h.record(16);
  h.record(18);
  Registry::Exposition expo;
  expo.native_histogram_buckets = true;
  const std::string text = Registry::global().prometheus_text(expo);
  EXPECT_NE(text.find("dsx_test_edge_hist_bucket{le=\"17\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dsx_test_edge_hist_bucket{le=\"19\"} 2"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("dsx_test_edge_hist_bucket{le=\"18\"}"),
            std::string::npos)
      << "half-open edge leaked into the exposition:\n" << text;
}

TEST(Flight, PromotionCountersCountByVerdict) {
  const auto count = [](const char* verdict) {
    return Registry::global().sum_counter("dsx_obs_flight_promoted_total",
                                          {{"verdict", verdict}});
  };
  const int64_t absolute0 = count("absolute");
  const int64_t shed0 = count("shed");
  flight::Capture cap;
  cap.latency_us = 123456;
  cap.threshold_us = 100000;
  cap.verdict = flight::Verdict::kAbsolute;
  flight::promote(nullptr, cap);
  flight::Capture cap2;
  cap2.latency_us = 1;
  cap2.verdict = flight::Verdict::kShed;
  flight::promote(nullptr, cap2);
  flight::promote(nullptr, cap2);
  EXPECT_EQ(count("absolute"), absolute0 + 1);
  EXPECT_EQ(count("shed"), shed0 + 2);
}

TEST(Prof, StartStopGatesSamplingAndJournals) {
  if (DSX_PROF_TESTS_SANITIZED) GTEST_SKIP() << "sampling under sanitizers";
  ASSERT_FALSE(prof::prof_enabled());
  const int64_t captured0 = prof::profile_stats().captured;
  {
    ProfScope prof_on(101);
    ASSERT_TRUE(prof_on.ok) << "POSIX profiling timer unavailable";
    EXPECT_TRUE(prof::prof_enabled());
    EXPECT_EQ(prof::sampling_hz(), 101);
    EXPECT_TRUE(device::pool_accounting_enabled());
    // ITIMER_PROF counts CPU time - burn some so samples actually land.
    (void)dsx_prof_test_burn(60'000'000);
    EXPECT_GT(prof::profile_stats().captured, captured0);
  }
  EXPECT_FALSE(prof::prof_enabled());
  EXPECT_FALSE(device::pool_accounting_enabled());
  bool started = false;
  bool stopped = false;
  for (const Event& ev : Journal::global().events(EventKind::kProfile)) {
    started = started || ev.detail.find("started at 101 Hz") != std::string::npos;
    stopped = stopped || ev.detail.find("stopped") != std::string::npos;
  }
  EXPECT_TRUE(started);
  EXPECT_TRUE(stopped);
}

TEST(Prof, FoldedStacksSymbolizeTheBurnFrame) {
  if (DSX_PROF_TESTS_SANITIZED) GTEST_SKIP() << "sampling under sanitizers";
  ProfScope prof_on;
  ASSERT_TRUE(prof_on.ok) << "POSIX profiling timer unavailable";
  prof::clear_samples();
  double sink = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  // Burn until enough CPU samples accumulated (bounded: CI machines stall).
  while (prof::profile_stats().retained < 10 &&
         std::chrono::steady_clock::now() < deadline) {
    sink += dsx_prof_test_burn(20'000'000);
  }
  ASSERT_GT(prof::profile_stats().retained, 0) << "no SIGPROF samples landed";
  const std::string folded = prof::folded_stacks();
  ASSERT_FALSE(folded.empty());
  // Folded format: "frame;frame;... count" lines.
  EXPECT_NE(folded.find(' '), std::string::npos);
  EXPECT_NE(folded.find("dsx_prof_test_burn"), std::string::npos)
      << "burn frame did not symbolize:\n" << folded.substr(0, 2000);
  EXPECT_GT(prof::symbolized_fraction(), 0.5);
  const std::string json = prof::profile_json();
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("dsx_prof_test_burn"), std::string::npos);
  (void)sink;
}

TEST(Prof, EndpointServesFoldedStacksOverHttp) {
  if (DSX_PROF_TESTS_SANITIZED) GTEST_SKIP() << "sampling under sanitizers";
  Exporter exporter;
  exporter.start();
  const int port = exporter.port();
  ASSERT_GT(port, 0);
  // Keep a core busy while the 1-second window samples.
  std::atomic<bool> stop_burn{false};
  std::thread burner([&] {
    double sink = 0;
    while (!stop_burn.load(std::memory_order_relaxed)) {
      sink += dsx_prof_test_burn(5'000'000);
    }
    (void)sink;
  });
  const HttpResponse folded =
      http_get("127.0.0.1", port, "/profile?seconds=1",
               std::chrono::milliseconds(15000));
  const HttpResponse json =
      http_get("127.0.0.1", port, "/profile.json?seconds=1",
               std::chrono::milliseconds(15000));
  stop_burn.store(true, std::memory_order_relaxed);
  burner.join();
  exporter.stop();
  EXPECT_EQ(folded.status, 200);
  EXPECT_FALSE(folded.body.empty());
  EXPECT_NE(folded.body.find("dsx_prof_test_burn"), std::string::npos)
      << folded.body.substr(0, 2000);
  EXPECT_EQ(json.status, 200);
  EXPECT_TRUE(json_well_formed(json.body)) << json.body;
  // The windowed endpoint auto-starts and auto-stops the profiler.
  EXPECT_FALSE(prof::prof_enabled());
}

TEST(Prof, KernelTimeAttributesToTheBakedWinner) {
  if (DSX_PROF_TESTS_SANITIZED) GTEST_SKIP() << "sampling under sanitizers";
  serve::CompileOptions copts;
  copts.max_batch = 2;
  copts.tuning = tune::Mode::kCached;  // resolves + bakes every call site
  serve::CompiledModel model(make_scc_model(0x9e1u), Shape({3, kImage, kImage}),
                             copts);
  Rng rng(0x77u);
  const Tensor batch = random_uniform(model.input_shape(2), rng);
  const auto total = [] {
    return Registry::global().sum_counter("dsx_tune_kernel_ns_total", {});
  };
  // Profiler off: the dispatch fast path must not attribute anything.
  const int64_t before_off = total();
  (void)model.run(batch);
  EXPECT_EQ(total(), before_off);
  {
    ProfScope prof_on;
    ASSERT_TRUE(prof_on.ok) << "POSIX profiling timer unavailable";
    (void)model.run(batch);
  }
  EXPECT_GT(total(), before_off)
      << "baked-winner dispatch did not attribute kernel time";
}

TEST(Prof, WorkspaceGaugesTrackArenaOccupancy) {
  serve::CompiledModel model(make_scc_model(0x5a2u), Shape({3, kImage, kImage}),
                             {.max_batch = 2});
  model.set_metric_scope("wsmodel");
  Rng rng(0x31u);
  (void)model.run(random_uniform(model.input_shape(2), rng));
  Registry& reg = Registry::global();
  const obs::Labels labels{{"model", "wsmodel"}};
  const int64_t used =
      reg.gauge("dsx_serve_workspace_used_floats", labels).value();
  const int64_t peak =
      reg.gauge("dsx_serve_workspace_peak_floats", labels).value();
  const int64_t cap =
      reg.gauge("dsx_serve_workspace_capacity_floats", labels).value();
  EXPECT_GT(used, 0);
  EXPECT_GE(peak, used);
  EXPECT_GE(cap, peak);
  EXPECT_EQ(peak, model.report().workspace_floats);
}

TEST(Prof, BatchFormationRecordsQueueDepthAndOccupancy) {
  serve::InferenceServer server;
  auto model = std::make_unique<serve::CompiledModel>(
      make_scc_model(0x41u), Shape({3, kImage, kImage}),
      serve::CompileOptions{.max_batch = 4});
  serve::BatcherOptions bopts;
  bopts.max_batch = 4;
  server.register_model("profq", std::move(model), bopts);
  Rng rng(0x99u);
  const Tensor image = random_uniform(Shape({3, kImage, kImage}), rng);
  for (int i = 0; i < 8; ++i) (void)server.infer("profq", image);
  server.stop();
  Registry& reg = Registry::global();
  const obs::Labels labels{{"model", "profq"}};
  EXPECT_GT(
      reg.histogram("dsx_serve_batch_occupancy_pct", labels).snapshot().count,
      0);
  EXPECT_GT(
      reg.histogram("dsx_serve_queue_depth_at_batch", labels).snapshot().count,
      0);
  // Occupancy is a percentage of max_batch - never above 100.
  EXPECT_LE(
      reg.histogram("dsx_serve_batch_occupancy_pct", labels).snapshot().max,
      100);
}

TEST(Prof, PublishResourceStatsExportsNamedPools) {
  device::ThreadPool pool(2, "prof-test-pool");
  device::set_pool_accounting(true);
  pool.run_chunks(1 << 18, [](int64_t b, int64_t e) {
    volatile double x = 0;
    for (int64_t i = b; i < e; ++i) x = x + static_cast<double>(i);
  });
  device::set_pool_accounting(false);
  prof::publish_resource_stats();
  Registry& reg = Registry::global();
  EXPECT_GT(reg.sum_counter("dsx_device_pool_busy_ns_total",
                            {{"pool", "prof-test-pool"}}),
            0);
  // The global pool registers under "global" on first use.
  (void)device::ThreadPool::global();
  prof::publish_resource_stats();
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("dsx_device_pool_busy_ns_total{pool=\"global\"}"),
            std::string::npos);
  EXPECT_NE(text.find("dsx_device_pool_utilization_permille"),
            std::string::npos);
}

}  // namespace
}  // namespace dsx::obs
