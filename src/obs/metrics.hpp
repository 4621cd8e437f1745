// dsx::obs metrics - a process-wide registry of named Counter / Gauge /
// Histogram series.
//
// The serving stack already had lock-free accounting (device::LatencyStats,
// per-batcher atomics) but no uniform way to name, discover or scrape it.
// The registry closes that gap: a series is registered once by
// (name, labels) and scraped via Prometheus-style text exposition or a JSON
// snapshot. Handles are the hot-path face:
//
//   * a handle is two machine words and freely copyable - instruments hold
//     them by value;
//   * a default-constructed handle is DETACHED: every operation is a single
//     null check and a no-op, so un-scoped instruments (tests, ad-hoc
//     batchers) pay nothing and export nothing;
//   * an attached handle's write path is the same relaxed-atomic machinery
//     the serving stats always used (LogHistogram for Histogram), never a
//     lock - scrapes take the registry mutex, writes do not.
//
// Naming convention (see ROADMAP "Observability quickstart"):
// dsx_<tier>_<what>[_<unit>][_total], labels {model=...,replica=...}.
// Series live for the process lifetime and are cumulative across hot-swaps
// of the instrument that feeds them; per-instance views (BatcherStats,
// ModelStats) keep their restart-on-swap semantics.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "device/atomic_stats.hpp"

namespace dsx::obs {

enum class MetricType { kCounter, kGauge, kHistogram };

/// `v` as the body of a JSON string literal: quote, backslash and control
/// characters escaped. The one escaper every obs JSON export uses.
std::string json_escape(std::string_view v);

/// Label set as key/value pairs; the registry sorts them by key, so any
/// order identifies the same series.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// One exported histogram exemplar: a recorded value linked to the trace
/// that explains it (the OpenMetrics idiom - the flight recorder writes
/// these at promotion time, so an alarming series points at a timeline).
struct Exemplar {
  double value = 0.0;
  uint64_t trace_id = 0;
  int64_t wall_ms = 0;  // unix epoch milliseconds at promotion
};

namespace detail {

/// Bounded per-range exemplar slots per histogram cell: slot index is
/// derived from the sample's log-bucket, so a fast-path flood never evicts
/// the slow outlier's exemplar (they live in different ranges).
inline constexpr int kExemplarSlots = 8;

/// One seqlock-guarded exemplar slot. Writers are promotion-rate (rare);
/// readers (scrapes) retry-free skip a torn slot. seq == 0 = never written,
/// odd = write in progress. The payload fields are relaxed atomics (value
/// bit-cast to its uint64 representation) so racing reads stay defined
/// behavior; the seqlock fences in record_exemplar()/exemplars() order them
/// against seq.
struct ExemplarSlot {
  std::atomic<uint64_t> seq{0};
  std::atomic<uint64_t> value_bits{0};  // bit_cast of the double value
  std::atomic<uint64_t> trace_id{0};
  std::atomic<int64_t> wall_ms{0};
};

/// One registered series. Cells are owned by the Registry, never freed, so
/// handles stay valid for the process lifetime.
struct MetricCell {
  std::string name;
  Labels labels;  // sorted by key
  std::string help;
  MetricType type = MetricType::kCounter;
  std::atomic<int64_t> counter{0};
  std::atomic<int64_t> gauge{0};
  device::LogHistogram hist;
  std::array<ExemplarSlot, kExemplarSlots> exemplars;
};

}  // namespace detail

/// Monotone event count. Detached (default-constructed) = no-op.
class Counter {
 public:
  Counter() = default;
  void inc(int64_t n = 1) {
    if (cell_ != nullptr) cell_->counter.fetch_add(n, std::memory_order_relaxed);
  }
  int64_t value() const {
    return cell_ != nullptr ? cell_->counter.load(std::memory_order_relaxed)
                            : 0;
  }
  bool attached() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  explicit Counter(detail::MetricCell* cell) : cell_(cell) {}
  detail::MetricCell* cell_ = nullptr;
};

/// Point-in-time integer level (queue depth, replica count). Detached = no-op.
class Gauge {
 public:
  Gauge() = default;
  void set(int64_t v) {
    if (cell_ != nullptr) cell_->gauge.store(v, std::memory_order_relaxed);
  }
  void add(int64_t n) {
    if (cell_ != nullptr) cell_->gauge.fetch_add(n, std::memory_order_relaxed);
  }
  int64_t value() const {
    return cell_ != nullptr ? cell_->gauge.load(std::memory_order_relaxed) : 0;
  }
  bool attached() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  explicit Gauge(detail::MetricCell* cell) : cell_(cell) {}
  detail::MetricCell* cell_ = nullptr;
};

/// Distribution over int64 samples (device::LogHistogram: lock-free
/// log-bucket machinery, ~6% quantile error). Detached = no-op.
class Histogram {
 public:
  Histogram() = default;
  void record(int64_t v) {
    if (cell_ != nullptr) cell_->hist.record(v);
  }
  device::LogHistogram::Snapshot snapshot() const {
    return cell_ != nullptr ? cell_->hist.snapshot()
                            : device::LogHistogram::Snapshot{};
  }
  /// Raw cumulative bucket state - the windowing primitive (subtract two of
  /// these with LogHistogram::delta_snapshot). Detached = empty.
  device::LogHistogram::BucketSnapshot bucket_snapshot() const {
    return cell_ != nullptr ? cell_->hist.bucket_snapshot()
                            : device::LogHistogram::BucketSnapshot{};
  }
  /// Files an exemplar for `value` into the cell's bounded per-range slots
  /// (slot = the value's log-bucket range, so outlier exemplars survive
  /// fast-path floods). Call at promotion rate, not per sample; a write
  /// racing another writer in the same slot is dropped. Detached = no-op.
  void record_exemplar(int64_t value, uint64_t trace_id);
  /// Valid exemplars currently held, unordered. Torn slots are skipped.
  std::vector<Exemplar> exemplars() const;
  bool attached() const { return cell_ != nullptr; }
  /// Same cell (or both detached).
  bool operator==(const Histogram&) const = default;

 private:
  friend class Registry;
  explicit Histogram(detail::MetricCell* cell) : cell_(cell) {}
  detail::MetricCell* cell_ = nullptr;
};

class Registry {
 public:
  /// The process-wide registry every instrument registers into.
  static Registry& global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Returns the handle for (name, labels), registering the series on first
  /// use. Re-registering the same series returns a handle to the SAME cell
  /// (label order does not matter); registering an existing name as a
  /// different metric type throws dsx::Error. `help` is kept from the first
  /// registration that supplies one.
  Counter counter(const std::string& name, const Labels& labels = {},
                  const std::string& help = "");
  Gauge gauge(const std::string& name, const Labels& labels = {},
              const std::string& help = "");
  Histogram histogram(const std::string& name, const Labels& labels = {},
                      const std::string& help = "");

  /// Exposition options for prometheus_text. The default (all off) keeps
  /// the summary-style output exactly as before - opt in per scrape
  /// surface.
  struct Exposition {
    /// Export histograms as native Prometheus TYPE histogram with
    /// cumulative `_bucket{le="..."}` series (sparse: only non-empty
    /// LogHistogram buckets, plus le="+Inf") so histogram_quantile() can
    /// aggregate across instances. The summary-style quantile series are
    /// still emitted alongside (same ~6% bucket-resolution contract).
    bool native_histogram_buckets = false;
    /// Attach OpenMetrics exemplars (`# {trace_id="..."} value timestamp`)
    /// to the bucket lines their value falls in. Requires
    /// native_histogram_buckets (exemplars attach to buckets) AND
    /// openmetrics: the classic 0.0.4 text parser treats a '#' after the
    /// sample value as a parse error, so exemplars are only legal in the
    /// OpenMetrics exposition.
    bool exemplars = false;
    /// Emit OpenMetrics 1.0 instead of classic 0.0.4 text: terminates with
    /// `# EOF` and drops the summary-style quantile series from
    /// histogram-typed families (a strict OpenMetrics histogram only allows
    /// _bucket/_count/_sum samples). Serve it as
    /// `application/openmetrics-text; version=1.0.0`.
    bool openmetrics = false;
  };

  /// Prometheus text exposition: one # HELP / # TYPE block per metric name,
  /// histograms exported summary-style (quantile="0.5"/"0.99" series plus
  /// _sum and _count). Values are relaxed reads - consistent enough for
  /// scraping, exact when writers are quiescent.
  std::string prometheus_text() const { return prometheus_text(Exposition{}); }
  /// Exposition with explicit options (native buckets, exemplars).
  std::string prometheus_text(const Exposition& expo) const;
  /// The same snapshot as a JSON object {"metrics": [...]}.
  std::string json_snapshot() const;

  /// Number of registered series.
  size_t size() const;

  /// Sum of every counter series named `name` whose label set CONTAINS
  /// `match` (so {model=X} aggregates across the per-replica series of a
  /// sharded model). 0 when nothing matches; never registers anything.
  int64_t sum_counter(const std::string& name, const Labels& match) const;
  /// Bucket-wise merge (counts summed, min of mins / max of maxes) of every
  /// histogram series named `name` whose labels contain `match`. Empty when
  /// nothing matches; never registers anything.
  device::LogHistogram::BucketSnapshot merged_histogram(
      const std::string& name, const Labels& match) const;

  /// Zeroes every registered series IN PLACE (handles stay valid; nothing
  /// is unregistered). Test isolation only - never call while instruments
  /// you care about are live, their cumulative counts are lost.
  void reset_values_for_test();

 private:
  detail::MetricCell* cell(MetricType type, const std::string& name,
                           Labels labels, const std::string& help);

  mutable std::mutex mu_;
  /// Keyed by name + '\0' + serialized sorted labels, so one metric name's
  /// series are contiguous and exposition grouping is a single pass.
  std::map<std::string, std::unique_ptr<detail::MetricCell>> cells_;
  /// name -> type, the duplicate-name/type-clash check.
  std::map<std::string, MetricType> types_;
};

}  // namespace dsx::obs
