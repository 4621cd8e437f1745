#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_set>

#include "obs/metrics.hpp"

namespace dsx::obs {

namespace {

/// Per-thread ring: single writer (the owning thread), readers copy under
/// the global registry mutex. head counts events ever written; slot i holds
/// event head-retained..head-1 modulo capacity.
struct ThreadRing {
  static constexpr size_t kCapacity = 16384;
  std::vector<TraceEvent> slots{kCapacity};
  std::atomic<uint64_t> head{0};
  uint64_t tid = 0;
};

struct RingRegistry {
  std::mutex mu;
  /// shared_ptr keeps rings alive after their thread exits, so late exports
  /// still see their events.
  std::vector<std::shared_ptr<ThreadRing>> rings;
  uint64_t next_tid = 1;
};

RingRegistry& ring_registry() {
  static RingRegistry* reg = new RingRegistry();  // leaked: outlives exits
  return *reg;
}

ThreadRing& thread_ring() {
  thread_local std::shared_ptr<ThreadRing> ring = [] {
    auto r = std::make_shared<ThreadRing>();
    RingRegistry& reg = ring_registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    r->tid = reg.next_tid++;
    reg.rings.push_back(r);
    return r;
  }();
  return *ring;
}

/// Trace time origin; initialised at load so every later steady_clock stamp
/// converts to a non-negative offset.
const std::chrono::steady_clock::time_point g_origin =
    std::chrono::steady_clock::now();

int sampling_from_env() {
  const char* env = std::getenv("DSX_TRACE");
  if (env == nullptr || env[0] == '\0') return 0;
  const std::string v(env);
  if (v == "off" || v == "0") return 0;
  char* end = nullptr;
  const long n = std::strtol(env, &end, 10);
  if (end == nullptr || *end != '\0' || n <= 0) {
    std::fprintf(stderr,
                 "dsx::obs: ignoring DSX_TRACE='%s' (want off or N >= 1)\n",
                 env);
    return 0;
  }
  return static_cast<int>(n);
}

}  // namespace

namespace detail {

std::atomic<int>& sampling_atomic() {
  static std::atomic<int> sampling{sampling_from_env()};
  return sampling;
}

thread_local std::vector<LayerRecord>* tl_layer_sink = nullptr;

}  // namespace detail

int trace_sampling() {
  return std::max(0, detail::sampling_atomic().load(std::memory_order_relaxed));
}

void set_trace_sampling(int n) {
  detail::sampling_atomic().store(n > 0 ? n : 0, std::memory_order_relaxed);
}

uint64_t sample_trace_id() {
  const int n = detail::sampling_atomic().load(std::memory_order_relaxed);
  if (n <= 0) return 0;
  static std::atomic<uint64_t> submissions{0};
  const uint64_t s = submissions.fetch_add(1, std::memory_order_relaxed);
  if (s % static_cast<uint64_t>(n) != 0) return 0;
  return s + 1;  // s % n == 0 and s + 1 > 0: unique and nonzero
}

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_origin)
      .count();
}

int64_t steady_ns(std::chrono::steady_clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(tp - g_origin)
      .count();
}

void record_event(const TraceEvent& ev) {
  ThreadRing& ring = thread_ring();
  const uint64_t head = ring.head.load(std::memory_order_relaxed);
  ring.slots[head % ThreadRing::kCapacity] = ev;
  // Release: a reader that acquires the new head sees the slot contents.
  ring.head.store(head + 1, std::memory_order_release);
}

TraceStats trace_stats() {
  TraceStats s;
  RingRegistry& reg = ring_registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& ring : reg.rings) {
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    const uint64_t retained = std::min<uint64_t>(head, ThreadRing::kCapacity);
    s.recorded += static_cast<int64_t>(head);
    s.retained += static_cast<int64_t>(retained);
    s.dropped += static_cast<int64_t>(head - retained);
    ++s.threads;
  }
  return s;
}

void publish_trace_stats() {
  static Gauge retained = Registry::global().gauge(
      "dsx_obs_trace_retained", {},
      "Trace events currently held across all per-thread rings");
  static Gauge threads = Registry::global().gauge(
      "dsx_obs_trace_threads", {}, "Per-thread trace rings registered");
  static Counter dropped = Registry::global().counter(
      "dsx_obs_trace_dropped_total", {},
      "Trace events overwritten before export");
  // The ring drop counters reset on clear_trace(); keep the exported counter
  // monotone by only ever advancing it by positive deltas against the last
  // raw reading.
  static std::mutex mu;
  static int64_t last_raw_dropped = 0;
  const TraceStats s = trace_stats();
  retained.set(s.retained);
  threads.set(s.threads);
  std::lock_guard<std::mutex> lock(mu);
  if (s.dropped > last_raw_dropped) dropped.inc(s.dropped - last_raw_dropped);
  last_raw_dropped = s.dropped;  // rebase (clear_trace shrank the raw count)
}

std::vector<TraceEvent> trace_snapshot() {
  std::vector<TraceEvent> events;
  {
    RingRegistry& reg = ring_registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    for (const auto& ring : reg.rings) {
      const uint64_t head = ring->head.load(std::memory_order_acquire);
      const uint64_t retained = std::min<uint64_t>(head, ThreadRing::kCapacity);
      for (uint64_t i = head - retained; i < head; ++i) {
        events.push_back(ring->slots[i % ThreadRing::kCapacity]);
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_ns < b.start_ns;
                   });
  return events;
}

void clear_trace() {
  RingRegistry& reg = ring_registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& ring : reg.rings) {
    // Not the writer's thread: only the head moves, which empties the ring
    // from every reader's point of view (the writer's next slot index
    // changes too, harmless for a flight recorder).
    ring->head.store(0, std::memory_order_release);
  }
}

std::string chrome_trace_json() {
  const std::vector<TraceEvent> events = trace_snapshot();
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& line) {
    if (!first) out << ",";
    first = false;
    out << "\n" << line;
  };
  // Metadata: name the synthetic request process and each request track.
  emit("{\"ph\":\"M\",\"pid\":" + std::to_string(kRequestPid) +
       ",\"name\":\"process_name\",\"args\":{\"name\":\"dsx requests\"}}");
  std::unordered_set<uint64_t> named;
  for (const TraceEvent& ev : events) {
    if (ev.pid != kRequestPid || !named.insert(ev.tid).second) continue;
    emit("{\"ph\":\"M\",\"pid\":" + std::to_string(kRequestPid) +
         ",\"tid\":" + std::to_string(ev.tid) +
         ",\"name\":\"thread_name\",\"args\":{\"name\":\"request " +
         std::to_string(ev.tid) + "\"}}");
  }
  char buf[64];
  for (const TraceEvent& ev : events) {
    std::string line = "{\"ph\":\"X\",\"name\":\"" + json_escape(ev.name) +
                       "\",\"cat\":\"" +
                       json_escape(ev.cat[0] != '\0' ? ev.cat : "dsx") +
                       "\",\"pid\":" + std::to_string(ev.pid) +
                       ",\"tid\":" + std::to_string(ev.tid);
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(ev.start_ns) / 1e3,
                  static_cast<double>(ev.dur_ns) / 1e3);
    line += buf;
    if (ev.arg_name != nullptr || ev.sarg_name != nullptr) {
      line += ",\"args\":{";
      if (ev.arg_name != nullptr) {
        line += "\"" + json_escape(ev.arg_name) +
                "\":" + std::to_string(ev.arg_value);
      }
      if (ev.sarg_name != nullptr) {
        if (ev.arg_name != nullptr) line += ",";
        line += "\"" + json_escape(ev.sarg_name) + "\":\"" +
                json_escape(ev.sarg_value != nullptr ? ev.sarg_value : "") +
                "\"";
      }
      line += "}";
    }
    line += "}";
    emit(line);
  }
  out << "\n]}\n";
  return out.str();
}

bool export_chrome_trace(const std::string& path) {
  const std::string json = chrome_trace_json();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "dsx::obs: cannot write trace to '%s'\n",
                 path.c_str());
    return false;
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = std::fclose(f) == 0 && written == json.size();
  if (!ok) {
    std::fprintf(stderr, "dsx::obs: short write to '%s'\n", path.c_str());
  }
  return ok;
}

const char* intern(const std::string& s) {
  static std::mutex mu;
  static std::unordered_set<std::string>* pool =
      new std::unordered_set<std::string>();  // leaked: pointers outlive exit
  std::lock_guard<std::mutex> lock(mu);
  return pool->insert(s).first->c_str();
}

}  // namespace dsx::obs
