// Instrumented atomics.
//
// The paper's key backward-pass claim (Fig. 9) is that the input-centric
// design removes >90% of the atomic operations the output-centric design
// needs. On the GPU those were `atomicAdd`s counted with NVProf; here every
// float atomic-add flows through atomic_add_float, which (when counting is
// enabled) tallies into AtomicCounters, so the claim is checked exactly.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace dsx::device {

/// Process-wide atomic-operation tally. Thread-safe.
class AtomicCounters {
 public:
  static AtomicCounters& instance();

  /// Enable/disable counting (counting costs one relaxed increment per op).
  void set_counting(bool on) { counting_.store(on, std::memory_order_relaxed); }
  bool counting() const { return counting_.load(std::memory_order_relaxed); }

  void record_add() {
    if (counting()) adds_.fetch_add(1, std::memory_order_relaxed);
  }

  int64_t adds() const { return adds_.load(std::memory_order_relaxed); }
  void reset() { adds_.store(0, std::memory_order_relaxed); }

 private:
  AtomicCounters() = default;
  std::atomic<bool> counting_{false};
  std::atomic<int64_t> adds_{0};
};

/// Atomically target += value (CAS loop; safe under concurrent writers).
inline void atomic_add_float(float& target, float value) {
  AtomicCounters::instance().record_add();
  std::atomic_ref<float> ref(target);
  float old = ref.load(std::memory_order_relaxed);
  while (!ref.compare_exchange_weak(old, old + value,
                                    std::memory_order_relaxed)) {
  }
}

/// Lock-free log-scale histogram over non-negative int64 samples: writers
/// record with relaxed atomics only, so many threads can publish without
/// serializing on a mutex. Values below 8 get exact buckets (small-integer
/// histograms like micro-batch sizes stay precise); above that, buckets are
/// log-spaced with 8 sub-buckets per octave and percentiles report the
/// bucket's geometric midpoint clamped to the observed [min, max], which
/// bounds the relative error at ~6% (kQuantileRelativeError).
///
/// This is the engine the serving tier's LatencyStats always ran on,
/// generalized to be unit-agnostic so dsx::obs can register Histograms over
/// it for any quantity (latencies, queue waits, batch sizes).
class LogHistogram {
 public:
  // 64 octaves x 8 sub-buckets covers the full int64 range.
  static constexpr int kSubBits = 3;
  static constexpr int kBuckets = 64 << kSubBits;

  struct Snapshot {
    int64_t count = 0;
    double sum = 0.0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
  };

  /// Raw cumulative state: the bucket counts plus the integer accumulators,
  /// all relaxed reads. Two BucketSnapshots taken at different times can be
  /// subtracted (delta_snapshot) to answer quantile questions about just
  /// the samples recorded in between - the windowing primitive dsx::obs's
  /// SLO engine runs on.
  struct BucketSnapshot {
    int64_t count = 0;
    int64_t sum = 0;
    int64_t min = INT64_MAX;  // raw sentinel; INT64_MAX = nothing recorded
    int64_t max = 0;
    std::array<int64_t, kBuckets> buckets{};

    /// Adds `other`'s samples bucket by bucket: the result is what one
    /// histogram that recorded both sample streams would hold.
    void merge(const BucketSnapshot& other);
  };

  /// Records one sample; negative values clamp to 0. Wait-free (a handful
  /// of relaxed atomic RMWs), safe under any number of concurrent writers.
  void record(int64_t value);
  /// Consistent-enough copy for reporting (relaxed reads; exact only when
  /// writers are quiescent). An empty histogram snapshots as all zeros, and
  /// a snapshot racing the very first record() clamps the still-unwritten
  /// min to 0 instead of leaking an INT64_MAX-derived value.
  Snapshot snapshot() const;
  /// The raw cumulative state (relaxed reads, same consistency contract as
  /// snapshot()).
  BucketSnapshot bucket_snapshot() const;
  /// Quantiles over the samples recorded between `older` and `newer` (both
  /// cumulative). With an empty `older` this reproduces snapshot() exactly -
  /// there is ONE quantile implementation, windowed or cumulative. Window
  /// min/max are bucket-resolution (the exact extrema of just the window
  /// are not recoverable from cumulative state); racing counts are clamped
  /// so a slightly-stale `older` never yields negative buckets.
  static Snapshot delta_snapshot(const BucketSnapshot& newer,
                                 const BucketSnapshot& older);
  void reset();

  /// Worst-case relative error of p50/p99 for values >= 8: a sub-bucket
  /// spans [L, 1.125L) and reports its geometric midpoint ~1.0607L, so the
  /// exact percentile is within +6.1%/-5.7% of the reported one.
  static constexpr double kQuantileRelativeError = 0.061;

  /// Representative value of bucket `b` (exact for b < 8, else the
  /// geometric midpoint of the bucket's range). Exposed for consumers that
  /// classify BucketSnapshot deltas against a threshold (SLO burn rates).
  static double bucket_value(int bucket);
  /// Upper edge of bucket `b`: exact for b < 8 (the bucket holds exactly
  /// value b, so the edge is inclusive), else the EXCLUSIVE upper bound of
  /// the sub-bucket's half-open range [lower, upper) that bucket_of
  /// implements. Half-open edge semantics - NOT directly usable as a
  /// Prometheus `le` boundary (Prometheus reads `le` as inclusive, but
  /// bucket_of files an integer sample exactly equal to this edge into the
  /// NEXT bucket). Exposition sites use bucket_le instead.
  static double bucket_upper(int bucket);
  /// Largest sample value bucket `b` can hold - the inclusive-`le`-correct
  /// Prometheus boundary for cumulative bucket exposition over
  /// BucketSnapshot counts. Exact, not approximate: samples are int64 and
  /// every bucket edge for octave >= 3 is an integer (2^oct + (sub+1) *
  /// 2^(oct-3)), so the largest held value is simply bucket_upper - 1 for
  /// b >= 8 and b itself below (where buckets hold exactly one value).
  static double bucket_le(int bucket);
  /// The bucket a sample lands in (exposed so consumers can key bounded
  /// per-range state - exemplar slots - consistently with the histogram).
  static int bucket_of(int64_t value);

 private:
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_{INT64_MAX};
  std::atomic<int64_t> max_{0};
  std::array<std::atomic<int64_t>, kBuckets> buckets_{};
};

/// Latency-flavoured view over LogHistogram for the serving runtime: records
/// nanoseconds, snapshots in milliseconds. Kept as a distinct type so every
/// serving stats struct keeps its *_ms field names.
class LatencyStats {
 public:
  struct Snapshot {
    int64_t count = 0;
    double mean_ms = 0.0;
    double min_ms = 0.0;
    double max_ms = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
  };

  void record_ns(int64_t ns) { hist_.record(ns); }
  /// Consistent-enough copy for reporting (relaxed reads; exact only when
  /// writers are quiescent). Empty stats snapshot as all zeros.
  Snapshot snapshot() const { return from_buckets(hist_.bucket_snapshot()); }
  /// The millisecond view of nanosecond buckets (e.g. several merged
  /// LatencyStats histograms).
  static Snapshot from_buckets(const LogHistogram::BucketSnapshot& buckets);
  void reset() { hist_.reset(); }

  /// The underlying unit-agnostic histogram (nanosecond samples).
  const LogHistogram& histogram() const { return hist_; }

 private:
  LogHistogram hist_;
};

/// RAII scope that enables counting and reports the delta.
class AtomicCountScope {
 public:
  AtomicCountScope();
  ~AtomicCountScope();
  /// Atomic adds performed since the scope began.
  int64_t adds() const;

 private:
  int64_t base_;
  bool was_counting_;
};

}  // namespace dsx::device
