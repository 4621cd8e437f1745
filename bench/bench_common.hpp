// Shared benchmark harness: timing, table printing, SHAPE-CHECK verdicts and
// model-under-test construction.
//
// Every bench binary regenerates one table or figure of the paper (see
// DESIGN.md §4). Absolute numbers differ from the paper's V100 (the substrate
// is a multi-core CPU, sized by DSX_THREADS or the hardware concurrency, plus
// an analytic GPU model), so each bench ends with SHAPE-CHECK lines asserting
// the paper's *qualitative* claim.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "models/mobilenet.hpp"
#include "models/resnet.hpp"
#include "models/schemes.hpp"
#include "models/vgg.hpp"
#include "nn/layers_conv.hpp"
#include "tensor/random.hpp"

namespace dsx::bench {

// ---- timing ---------------------------------------------------------------

/// Wall-clock seconds of fn(), best of `iters` after `warmup` runs.
inline double time_best(const std::function<void()>& fn, int warmup = 1,
                        int iters = 2) {
  for (int i = 0; i < warmup; ++i) fn();
  double best = 1e300;
  for (int i = 0; i < iters; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

/// Median of `iters` timed runs - robust to transient scheduler noise; use
/// for the normalized sweeps (Figs. 11/12) whose checks compare ratios of
/// short measurements.
inline double time_median(const std::function<void()>& fn, int warmup = 1,
                          int iters = 5) {
  for (int i = 0; i < warmup; ++i) fn();
  std::vector<double> times(static_cast<size_t>(iters));
  for (double& t : times) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    t = std::chrono::duration<double>(t1 - t0).count();
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

// ---- output ----------------------------------------------------------------

/// Fixed-width markdown-ish table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void print() const {
    std::vector<size_t> width(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    const auto line = [&](const std::vector<std::string>& cells) {
      std::printf("|");
      for (size_t c = 0; c < headers_.size(); ++c) {
        const std::string& v = c < cells.size() ? cells[c] : std::string();
        std::printf(" %-*s |", static_cast<int>(width[c]), v.c_str());
      }
      std::printf("\n");
    };
    line(headers_);
    std::printf("|");
    for (size_t c = 0; c < headers_.size(); ++c) {
      std::printf("%s|", std::string(width[c] + 2, '-').c_str());
    }
    std::printf("\n");
    for (const auto& row : rows_) line(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

/// Prints a SHAPE-CHECK verdict; returns ok so mains can aggregate an exit
/// code (a failed shape check fails the bench run).
inline bool shape_check(const std::string& claim, bool ok) {
  std::printf("SHAPE-CHECK [%s] %s\n", ok ? "PASS" : "FAIL", claim.c_str());
  return ok;
}

inline void banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// True when `flag` (e.g. "--json") appears anywhere in argv.
inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// Machine-readable bench output: collects pre-formatted JSON objects and,
/// when enabled (the bench's --json flag), writes them as
///   BENCH_<name>.json = {"bench": "<name>", "records": [...]}
/// in the working directory, so CI runs leave a bench trajectory instead of
/// human-eyeball-only tables. Records typically carry op, shape, variant,
/// median ns and QPS/p50/p99 fields - whatever the bench measures.
class JsonWriter {
 public:
  JsonWriter(std::string bench_name, bool enabled)
      : name_(std::move(bench_name)), enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// `object` must be a complete JSON object, e.g. {"op":"scc","ns":123}.
  void add(std::string object) {
    if (enabled_) records_.push_back(std::move(object));
  }

  /// Writes the file and returns its path ("" when disabled).
  std::string write() const {
    if (!enabled_) return "";
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream os(path);
    if (!os.is_open()) {
      std::fprintf(stderr, "JsonWriter: cannot open %s\n", path.c_str());
      return "";
    }
    os << "{\"bench\":\"" << name_ << "\",\"records\":[";
    for (size_t i = 0; i < records_.size(); ++i) {
      os << (i == 0 ? "\n  " : ",\n  ") << records_[i];
    }
    os << "\n]}\n";
    std::printf("wrote %s (%zu records)\n", path.c_str(), records_.size());
    return path;
  }

 private:
  std::string name_;
  bool enabled_;
  std::vector<std::string> records_;
};

// ---- models under test -----------------------------------------------------

enum class ModelKind { kVGG16, kVGG19, kMobileNet, kResNet18, kResNet50 };

inline const char* model_name(ModelKind kind) {
  switch (kind) {
    case ModelKind::kVGG16: return "VGG16";
    case ModelKind::kVGG19: return "VGG19";
    case ModelKind::kMobileNet: return "MobileNet";
    case ModelKind::kResNet18: return "ResNet18";
    case ModelKind::kResNet50: return "ResNet50";
  }
  return "?";
}

inline std::vector<ModelKind> all_models() {
  return {ModelKind::kVGG16, ModelKind::kVGG19, ModelKind::kMobileNet,
          ModelKind::kResNet18, ModelKind::kResNet50};
}

inline std::unique_ptr<nn::Sequential> build_model(
    ModelKind kind, int64_t num_classes, int64_t image_size,
    const models::SchemeConfig& cfg, Rng& rng) {
  switch (kind) {
    case ModelKind::kVGG16:
      return models::build_vgg(16, num_classes, image_size, cfg, rng);
    case ModelKind::kVGG19:
      return models::build_vgg(19, num_classes, image_size, cfg, rng);
    case ModelKind::kMobileNet:
      return models::build_mobilenet(num_classes, cfg, rng);
    case ModelKind::kResNet18:
      return models::build_resnet(18, num_classes, cfg, rng);
    case ModelKind::kResNet50:
      return models::build_resnet(50, num_classes, cfg, rng);
  }
  return nullptr;
}

/// Switches every SCC layer in the model to the given implementation.
inline void set_scc_impl(nn::Sequential& model, nn::SCCImpl impl) {
  model.for_each_layer([impl](nn::Layer& layer) {
    if (auto* scc = dynamic_cast<nn::SCCConv*>(&layer)) scc->set_impl(impl);
  });
}

/// Random batch + labels for training-step timing.
struct BenchBatch {
  Tensor images;
  std::vector<int32_t> labels;
};

inline BenchBatch make_batch(int64_t batch, int64_t image_size,
                             int64_t num_classes, uint64_t seed) {
  Rng rng(seed);
  BenchBatch b;
  b.images = random_uniform(make_nchw(batch, 3, image_size, image_size), rng);
  b.labels.resize(static_cast<size_t>(batch));
  for (int64_t i = 0; i < batch; ++i) {
    b.labels[static_cast<size_t>(i)] =
        static_cast<int32_t>(rng.randint(0, num_classes - 1));
  }
  return b;
}

}  // namespace dsx::bench
