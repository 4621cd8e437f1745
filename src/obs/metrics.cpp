#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "common/check.hpp"

namespace dsx::obs {

namespace {

const char* type_name(MetricType t) {
  switch (t) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "?";
}

/// Prometheus label-value escaping: backslash, double-quote, newline.
std::string escape_label(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// `{k="v",...}` with an optional extra label prepended (quantile="0.5").
std::string label_block(const Labels& labels, const std::string& extra = "") {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  if (!extra.empty()) {
    out += extra;
    first = false;
  }
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + escape_label(v) + "\"";
  }
  out += "}";
  return out;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// HELP-text escaping per the exposition format: backslash and newline only
/// (double quotes are legal in HELP, unlike in label values).
std::string escape_help(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// True when every (k, v) of `match` appears in the cell's sorted labels.
bool labels_contain(const Labels& cell_labels, const Labels& match) {
  for (const auto& m : match) {
    if (std::find(cell_labels.begin(), cell_labels.end(), m) ==
        cell_labels.end()) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string json_escape(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

// ---- Histogram exemplars ---------------------------------------------------

void Histogram::record_exemplar(int64_t value, uint64_t trace_id) {
  if (cell_ == nullptr) return;
  const int bucket = device::LogHistogram::bucket_of(value);
  const int slot_idx = std::min(
      detail::kExemplarSlots - 1,
      bucket * detail::kExemplarSlots / device::LogHistogram::kBuckets);
  detail::ExemplarSlot& slot =
      cell_->exemplars[static_cast<size_t>(slot_idx)];
  // Seqlock write: claim the slot by stepping seq to odd; a concurrent
  // writer (promotion-rate, so vanishingly rare) makes us drop ours. The
  // release fence keeps the payload stores from becoming visible before the
  // odd seq does (the reader's acquire fence is the other half).
  uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  if (seq & 1) return;
  if (!slot.seq.compare_exchange_strong(seq, seq + 1,
                                        std::memory_order_relaxed)) {
    return;
  }
  std::atomic_thread_fence(std::memory_order_release);
  slot.value_bits.store(std::bit_cast<uint64_t>(static_cast<double>(value)),
                        std::memory_order_relaxed);
  slot.trace_id.store(trace_id, std::memory_order_relaxed);
  slot.wall_ms.store(std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count(),
                     std::memory_order_relaxed);
  slot.seq.store(seq + 2, std::memory_order_release);
}

std::vector<Exemplar> Histogram::exemplars() const {
  std::vector<Exemplar> out;
  if (cell_ == nullptr) return out;
  for (const detail::ExemplarSlot& slot : cell_->exemplars) {
    const uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (seq == 0 || (seq & 1)) continue;  // never written / mid-write
    Exemplar e;
    e.value = std::bit_cast<double>(
        slot.value_bits.load(std::memory_order_relaxed));
    e.trace_id = slot.trace_id.load(std::memory_order_relaxed);
    e.wall_ms = slot.wall_ms.load(std::memory_order_relaxed);
    // The acquire fence orders the payload reads before the validating
    // re-check - without it they could be hoisted past it and a torn read
    // could pass validation.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != seq) continue;  // torn
    out.push_back(e);
  }
  return out;
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

detail::MetricCell* Registry::cell(MetricType type, const std::string& name,
                                   Labels labels, const std::string& help) {
  DSX_REQUIRE(!name.empty(), "obs::Registry: metric name must not be empty");
  std::sort(labels.begin(), labels.end());
  std::string key = name;
  key.push_back('\0');
  for (const auto& [k, v] : labels) {
    key += k;
    key.push_back('\x01');
    key += v;
    key.push_back('\x01');
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [type_it, inserted] = types_.emplace(name, type);
  DSX_REQUIRE(type_it->second == type,
              "obs::Registry: '" << name << "' already registered as "
                                 << type_name(type_it->second)
                                 << ", requested " << type_name(type));
  auto it = cells_.find(key);
  if (it == cells_.end()) {
    auto owned = std::make_unique<detail::MetricCell>();
    owned->name = name;
    owned->labels = std::move(labels);
    owned->help = help;
    owned->type = type;
    it = cells_.emplace(std::move(key), std::move(owned)).first;
  } else if (it->second->help.empty() && !help.empty()) {
    it->second->help = help;
  }
  return it->second.get();
}

Counter Registry::counter(const std::string& name, const Labels& labels,
                          const std::string& help) {
  return Counter(cell(MetricType::kCounter, name, labels, help));
}

Gauge Registry::gauge(const std::string& name, const Labels& labels,
                      const std::string& help) {
  return Gauge(cell(MetricType::kGauge, name, labels, help));
}

Histogram Registry::histogram(const std::string& name, const Labels& labels,
                              const std::string& help) {
  return Histogram(cell(MetricType::kHistogram, name, labels, help));
}

std::string Registry::prometheus_text(const Exposition& expo) const {
  // Exemplars are OpenMetrics-only syntax: the classic 0.0.4 parser rejects
  // a '#' after the sample value, so a classic scrape must never see them.
  const bool exemplars_on = expo.exemplars && expo.openmetrics;
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  std::string current;  // metric name whose HELP/TYPE block is open
  for (const auto& [key, cell] : cells_) {
    if (cell->name != current) {
      current = cell->name;
      if (!cell->help.empty()) {
        out << "# HELP " << cell->name << " " << escape_help(cell->help)
            << "\n";
      }
      // Histograms default to summary-style (precomputed quantiles); the
      // native-bucket exposition switches them to TYPE histogram.
      const char* t = cell->type == MetricType::kHistogram
                          ? (expo.native_histogram_buckets ? "histogram"
                                                           : "summary")
                          : type_name(cell->type);
      out << "# TYPE " << cell->name << " " << t << "\n";
    }
    switch (cell->type) {
      case MetricType::kCounter:
        out << cell->name << label_block(cell->labels) << " "
            << cell->counter.load(std::memory_order_relaxed) << "\n";
        break;
      case MetricType::kGauge:
        out << cell->name << label_block(cell->labels) << " "
            << cell->gauge.load(std::memory_order_relaxed) << "\n";
        break;
      case MetricType::kHistogram: {
        const device::LogHistogram::Snapshot s = cell->hist.snapshot();
        if (expo.native_histogram_buckets) {
          // Sparse cumulative buckets: one le= line per non-empty
          // LogHistogram bucket plus the mandatory +Inf. Exemplars (if
          // enabled) attach to the first bucket whose upper edge covers
          // their value, OpenMetrics syntax: `# {labels} value ts`.
          std::vector<Exemplar> ex;
          if (exemplars_on) {
            ex = Histogram(cell.get()).exemplars();
            std::sort(ex.begin(), ex.end(),
                      [](const Exemplar& a, const Exemplar& b) {
                        return a.value < b.value;
                      });
          }
          size_t next_ex = 0;
          const device::LogHistogram::BucketSnapshot bs =
              cell->hist.bucket_snapshot();
          int64_t cumulative = 0;
          for (int b = 0; b < device::LogHistogram::kBuckets; ++b) {
            const int64_t n = bs.buckets[static_cast<size_t>(b)];
            if (n == 0) continue;
            cumulative += n;
            // bucket_le, not bucket_upper: Prometheus `le` is inclusive and
            // bucket_of's ranges are half-open, so the boundary is the
            // largest value the bucket actually holds (exact - samples are
            // int64 and every octave >= 3 edge is an integer). An exemplar
            // attaches to the first bucket whose le covers its value.
            const double upper = device::LogHistogram::bucket_le(b);
            out << cell->name << "_bucket"
                << label_block(cell->labels,
                               "le=\"" + format_double(upper) + "\"")
                << " " << cumulative;
            if (next_ex < ex.size() && ex[next_ex].value <= upper) {
              const Exemplar& e = ex[next_ex++];
              char ts[40];
              std::snprintf(ts, sizeof(ts), "%.3f",
                            static_cast<double>(e.wall_ms) / 1000.0);
              out << " # {trace_id=\"" << e.trace_id << "\"} "
                  << format_double(e.value) << " " << ts;
              // Collapse any further exemplars in the same bucket (one
              // exemplar per bucket line).
              while (next_ex < ex.size() && ex[next_ex].value <= upper) {
                ++next_ex;
              }
            }
            out << "\n";
          }
          out << cell->name << "_bucket"
              << label_block(cell->labels, "le=\"+Inf\"") << " " << s.count;
          if (next_ex < ex.size()) {
            const Exemplar& e = ex[next_ex];
            char ts[40];
            std::snprintf(ts, sizeof(ts), "%.3f",
                          static_cast<double>(e.wall_ms) / 1000.0);
            out << " # {trace_id=\"" << e.trace_id << "\"} "
                << format_double(e.value) << " " << ts;
          }
          out << "\n";
        }
        // A strict OpenMetrics histogram family only allows _bucket/_count/
        // _sum samples - the bare quantile series are classic-format only.
        if (!(expo.openmetrics && expo.native_histogram_buckets)) {
          out << cell->name << label_block(cell->labels, "quantile=\"0.5\"")
              << " " << format_double(s.p50) << "\n";
          out << cell->name << label_block(cell->labels, "quantile=\"0.99\"")
              << " " << format_double(s.p99) << "\n";
        }
        out << cell->name << "_sum" << label_block(cell->labels) << " "
            << format_double(s.sum) << "\n";
        out << cell->name << "_count" << label_block(cell->labels) << " "
            << s.count << "\n";
        break;
      }
    }
  }
  if (expo.openmetrics) out << "# EOF\n";
  return out.str();
}

std::string Registry::json_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "{\"metrics\":[";
  bool first = true;
  for (const auto& [key, cell] : cells_) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << json_escape(cell->name) << "\",\"type\":\""
        << type_name(cell->type) << "\",\"labels\":{";
    bool lfirst = true;
    for (const auto& [k, v] : cell->labels) {
      if (!lfirst) out << ",";
      lfirst = false;
      out << "\"" << json_escape(k) << "\":\"" << json_escape(v) << "\"";
    }
    out << "}";
    switch (cell->type) {
      case MetricType::kCounter:
        out << ",\"value\":" << cell->counter.load(std::memory_order_relaxed);
        break;
      case MetricType::kGauge:
        out << ",\"value\":" << cell->gauge.load(std::memory_order_relaxed);
        break;
      case MetricType::kHistogram: {
        const device::LogHistogram::Snapshot s = cell->hist.snapshot();
        out << ",\"count\":" << s.count << ",\"sum\":" << format_double(s.sum)
            << ",\"mean\":" << format_double(s.mean)
            << ",\"min\":" << format_double(s.min)
            << ",\"max\":" << format_double(s.max)
            << ",\"p50\":" << format_double(s.p50)
            << ",\"p99\":" << format_double(s.p99);
        const std::vector<Exemplar> ex = Histogram(cell.get()).exemplars();
        if (!ex.empty()) {
          out << ",\"exemplars\":[";
          bool efirst = true;
          for (const Exemplar& e : ex) {
            if (!efirst) out << ",";
            efirst = false;
            out << "{\"value\":" << format_double(e.value)
                << ",\"trace_id\":" << e.trace_id
                << ",\"wall_ms\":" << e.wall_ms << "}";
          }
          out << "]";
        }
        break;
      }
    }
    out << "}";
  }
  out << "]}";
  return out.str();
}

size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cells_.size();
}

int64_t Registry::sum_counter(const std::string& name,
                              const Labels& match) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t sum = 0;
  // Cells are keyed name-first, so the series of one name are contiguous.
  for (auto it = cells_.lower_bound(name); it != cells_.end(); ++it) {
    const detail::MetricCell* cell = it->second.get();
    if (cell->name != name) break;
    if (cell->type != MetricType::kCounter) break;
    if (!labels_contain(cell->labels, match)) continue;
    sum += cell->counter.load(std::memory_order_relaxed);
  }
  return sum;
}

device::LogHistogram::BucketSnapshot Registry::merged_histogram(
    const std::string& name, const Labels& match) const {
  std::lock_guard<std::mutex> lock(mu_);
  device::LogHistogram::BucketSnapshot merged;
  for (auto it = cells_.lower_bound(name); it != cells_.end(); ++it) {
    const detail::MetricCell* cell = it->second.get();
    if (cell->name != name) break;
    if (cell->type != MetricType::kHistogram) break;
    if (!labels_contain(cell->labels, match)) continue;
    merged.merge(cell->hist.bucket_snapshot());
  }
  return merged;
}

void Registry::reset_values_for_test() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, cell] : cells_) {
    cell->counter.store(0, std::memory_order_relaxed);
    cell->gauge.store(0, std::memory_order_relaxed);
    cell->hist.reset();
    for (detail::ExemplarSlot& slot : cell->exemplars) {
      slot.value_bits.store(0, std::memory_order_relaxed);
      slot.trace_id.store(0, std::memory_order_relaxed);
      slot.wall_ms.store(0, std::memory_order_relaxed);
      slot.seq.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace dsx::obs
