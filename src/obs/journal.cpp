#include "obs/journal.hpp"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dsx::obs {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kRegister:
      return "register";
    case EventKind::kUnregister:
      return "unregister";
    case EventKind::kSwap:
      return "swap";
    case EventKind::kDeploy:
      return "deploy";
    case EventKind::kStage:
      return "stage";
    case EventKind::kCanary:
      return "canary";
    case EventKind::kPromote:
      return "promote";
    case EventKind::kRollback:
      return "rollback";
    case EventKind::kGuardrail:
      return "guardrail";
    case EventKind::kShed:
      return "shed";
    case EventKind::kReject:
      return "reject";
    case EventKind::kTuneMeasure:
      return "tune_measure";
    case EventKind::kIsaSelect:
      return "isa_select";
    case EventKind::kHealth:
      return "health";
    case EventKind::kFlight:
      return "flight";
    case EventKind::kProfile:
      return "profile";
    case EventKind::kResidency:
      return "residency";
  }
  return "?";
}

Journal& Journal::global() {
  static Journal* journal = [] {
    size_t cap = 1024;
    if (const char* env = std::getenv("DSX_JOURNAL_CAP")) {
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed > 0) cap = static_cast<size_t>(parsed);
    }
    return new Journal(cap);  // leaked: usable during exit
  }();
  return *journal;
}

Journal::Journal(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

void Journal::record(EventKind kind, std::string scope, std::string detail) {
  Event ev;
  ev.ts_ns = now_ns();
  ev.wall = std::chrono::system_clock::now();
  ev.kind = kind;
  ev.scope = std::move(scope);
  ev.detail = std::move(detail);
  std::lock_guard<std::mutex> lock(mu_);
  ev.seq = next_seq_++;
  ring_.push_back(std::move(ev));
  if (ring_.size() > capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
}

std::vector<Event> Journal::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {ring_.begin(), ring_.end()};
}

std::vector<Event> Journal::events(EventKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Event> out;
  for (const Event& ev : ring_) {
    if (ev.kind == kind) out.push_back(ev);
  }
  return out;
}

uint64_t Journal::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

uint64_t Journal::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::string Journal::to_text() const {
  std::ostringstream out;
  for (const Event& ev : events()) {
    const std::time_t t = std::chrono::system_clock::to_time_t(ev.wall);
    std::tm tm_buf{};
    localtime_r(&t, &tm_buf);
    char stamp[32];
    std::strftime(stamp, sizeof(stamp), "%H:%M:%S", &tm_buf);
    out << ev.seq << " " << stamp << " " << event_kind_name(ev.kind) << " "
        << ev.scope;
    if (!ev.detail.empty()) out << ": " << ev.detail;
    out << "\n";
  }
  return out.str();
}

std::string Journal::to_json() const {
  std::vector<Event> snapshot;
  uint64_t recorded_count = 0;
  uint64_t dropped_count = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot.assign(ring_.begin(), ring_.end());
    recorded_count = next_seq_;
    dropped_count = dropped_;
  }
  std::ostringstream out;
  out << "{\"events\":[";
  bool first = true;
  for (const Event& ev : snapshot) {
    if (!first) out << ",";
    first = false;
    const std::time_t t = std::chrono::system_clock::to_time_t(ev.wall);
    std::tm tm_buf{};
    gmtime_r(&t, &tm_buf);
    char stamp[40];
    std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%S", &tm_buf);
    const int64_t ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            ev.wall.time_since_epoch())
            .count() %
        1000;
    char wall[56];
    std::snprintf(wall, sizeof(wall), "%s.%03dZ", stamp,
                  static_cast<int>(ms < 0 ? 0 : ms));
    out << "{\"seq\":" << ev.seq << ",\"ts_ns\":" << ev.ts_ns
        << ",\"wall\":\"" << wall << "\",\"kind\":\""
        << event_kind_name(ev.kind) << "\",\"scope\":\""
        << json_escape(ev.scope) << "\",\"detail\":\""
        << json_escape(ev.detail) << "\"}";
  }
  out << "],\"recorded\":" << recorded_count
      << ",\"dropped\":" << dropped_count << ",\"capacity\":" << capacity_
      << "}";
  return out.str();
}

void Journal::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  dropped_ = 0;
}

}  // namespace dsx::obs
