#include "device/atomic_stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace dsx::device {

AtomicCounters& AtomicCounters::instance() {
  static AtomicCounters counters;
  return counters;
}

// ---- LogHistogram ---------------------------------------------------------

int LogHistogram::bucket_of(int64_t value) {
  if (value <= 0) return 0;
  // Small integers get exact buckets: bucket b holds exactly value b for
  // b < 8 (octaves 1 and 2 go unused; ordering stays monotone in value).
  if (value < (1 << kSubBits)) return static_cast<int>(value);
  const int octave =
      63 - std::countl_zero(static_cast<uint64_t>(value));  // floor(log2 v)
  const int sub = static_cast<int>((value >> (octave - kSubBits)) &
                                   ((1 << kSubBits) - 1));
  return std::min(kBuckets - 1, (octave << kSubBits) + sub);
}

double LogHistogram::bucket_value(int bucket) {
  if (bucket < (1 << kSubBits)) return static_cast<double>(bucket);  // exact
  const int octave = bucket >> kSubBits;
  const int sub = bucket & ((1 << kSubBits) - 1);
  // Geometric midpoint of [lower, upper): halves the worst-case relative
  // error vs reporting the lower edge (see kQuantileRelativeError).
  const double lower =
      std::ldexp(1.0 + static_cast<double>(sub) / (1 << kSubBits), octave);
  const double upper =
      std::ldexp(1.0 + static_cast<double>(sub + 1) / (1 << kSubBits), octave);
  return std::sqrt(lower * upper);
}

double LogHistogram::bucket_upper(int bucket) {
  if (bucket < (1 << kSubBits)) return static_cast<double>(bucket);  // exact
  const int octave = bucket >> kSubBits;
  const int sub = bucket & ((1 << kSubBits) - 1);
  // Exclusive edge of the half-open range [lower, upper) that bucket_of
  // implements; Prometheus reads `le` as inclusive, so a sample exactly at
  // the edge is off by one bucket in the exposition (see the header note).
  return std::ldexp(1.0 + static_cast<double>(sub + 1) / (1 << kSubBits),
                    octave);
}

double LogHistogram::bucket_le(int bucket) {
  if (bucket < (1 << kSubBits)) return static_cast<double>(bucket);  // exact
  // bucket_of's range is [lower, upper) over int64 samples and every edge
  // for octave >= 3 is an integer, so the largest value the bucket holds -
  // the inclusive Prometheus `le` - is exactly upper - 1.
  return bucket_upper(bucket) - 1.0;
}

void LogHistogram::record(int64_t value) {
  if (value < 0) value = 0;
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  int64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen && !min_.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen && !max_.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
  buckets_[static_cast<size_t>(bucket_of(value))].fetch_add(
      1, std::memory_order_relaxed);
}

LogHistogram::BucketSnapshot LogHistogram::bucket_snapshot() const {
  BucketSnapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  for (int b = 0; b < kBuckets; ++b) {
    s.buckets[static_cast<size_t>(b)] =
        buckets_[static_cast<size_t>(b)].load(std::memory_order_relaxed);
  }
  return s;
}

void LogHistogram::BucketSnapshot::merge(const BucketSnapshot& other) {
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  for (int b = 0; b < kBuckets; ++b) {
    buckets[static_cast<size_t>(b)] += other.buckets[static_cast<size_t>(b)];
  }
}

LogHistogram::Snapshot LogHistogram::snapshot() const {
  // Cumulative = the delta against an empty baseline; one quantile
  // implementation serves both the lifetime and the windowed views.
  return delta_snapshot(bucket_snapshot(), BucketSnapshot{});
}

LogHistogram::Snapshot LogHistogram::delta_snapshot(
    const BucketSnapshot& newer, const BucketSnapshot& older) {
  Snapshot s;
  s.count = newer.count - older.count;
  if (s.count <= 0) return Snapshot{};
  s.sum = static_cast<double>(newer.sum - older.sum);
  s.mean = s.sum / static_cast<double>(s.count);
  // Per-bucket deltas; relaxed reads racing writers can leave a stale
  // `older` slightly ahead in one bucket - clamp to zero, never negative.
  std::array<int64_t, kBuckets> delta{};
  int lo = -1;
  int hi = -1;
  for (int b = 0; b < kBuckets; ++b) {
    const int64_t d = newer.buckets[static_cast<size_t>(b)] -
                      older.buckets[static_cast<size_t>(b)];
    delta[static_cast<size_t>(b)] = d > 0 ? d : 0;
    if (d > 0) {
      if (lo < 0) lo = b;
      hi = b;
    }
  }
  if (older.count == 0) {
    // Full-history window: the exact extrema are known. A reader racing the
    // very first record() can observe count > 0 with the min CAS not yet
    // landed; clamp the INT64_MAX sentinel to 0 so no snapshot ever reports
    // a garbage min.
    s.min = newer.min == INT64_MAX ? 0.0 : static_cast<double>(newer.min);
    s.max = static_cast<double>(newer.max);
  } else if (lo >= 0) {
    // Windowed: extrema are bucket-resolution, clamped to the lifetime
    // observed range (which can only reduce the error).
    const double life_min =
        newer.min == INT64_MAX ? 0.0 : static_cast<double>(newer.min);
    const double life_max = static_cast<double>(newer.max);
    s.min = std::clamp(bucket_value(lo), life_min, life_max);
    s.max = std::clamp(bucket_value(hi), life_min, life_max);
  }
  const auto percentile = [&](double q) {
    const int64_t target = std::max<int64_t>(
        1, static_cast<int64_t>(q * static_cast<double>(s.count) + 0.5));
    int64_t seen_count = 0;
    for (int b = 0; b < kBuckets; ++b) {
      seen_count += delta[static_cast<size_t>(b)];
      if (seen_count >= target) {
        // The exact nearest-rank sample lies inside bucket b, so clamping
        // its midpoint to the observed range only ever reduces the error.
        return std::clamp(bucket_value(b), s.min, s.max);
      }
    }
    return s.max;
  };
  s.p50 = percentile(0.50);
  s.p99 = percentile(0.99);
  return s;
}

void LogHistogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(INT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

// ---- LatencyStats ---------------------------------------------------------

LatencyStats::Snapshot LatencyStats::from_buckets(
    const LogHistogram::BucketSnapshot& buckets) {
  const LogHistogram::Snapshot h =
      LogHistogram::delta_snapshot(buckets, LogHistogram::BucketSnapshot{});
  Snapshot s;
  s.count = h.count;
  s.mean_ms = h.mean / 1e6;
  s.min_ms = h.min / 1e6;
  s.max_ms = h.max / 1e6;
  s.p50_ms = h.p50 / 1e6;
  s.p99_ms = h.p99 / 1e6;
  return s;
}

AtomicCountScope::AtomicCountScope() {
  auto& c = AtomicCounters::instance();
  was_counting_ = c.counting();
  c.set_counting(true);
  base_ = c.adds();
}

AtomicCountScope::~AtomicCountScope() {
  AtomicCounters::instance().set_counting(was_counting_);
}

int64_t AtomicCountScope::adds() const {
  return AtomicCounters::instance().adds() - base_;
}

}  // namespace dsx::device
