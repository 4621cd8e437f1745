// Shared pieces of the repository benchmark: the fixed model, seeded inputs,
// statistics, metric collection and the host/plan stamp.
//
// Every workload runs MobileNet-SCC (kDWSCC, cg=2, co=0.5, width 0.25,
// 32x32 RGB, 10 classes). Model weights come from a fixed init seed; the
// command-line seed only generates what the program is fed (images, arrival
// schedule, training batches).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "deploy/arch_spec.hpp"
#include "nn/containers.hpp"
#include "serve/compiled_model.hpp"
#include "serve/server.hpp"
#include "tensor/tensor.hpp"

namespace dsx::perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}
inline Clock::duration secs(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}
inline double s_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr int64_t kImage = 32;
constexpr int64_t kClasses = 10;
constexpr int64_t kMaxBatch = 8;
constexpr uint64_t kInitSeed = 1;
/// Distinct images a serving workload cycles through; each one's reference
/// logits are computed before timing starts.
constexpr int kImagePool = 64;
/// End-to-end runs set the system up this many times and report the median.
constexpr int kSetups = 7;

deploy::ArchSpec mnet_spec();
std::unique_ptr<nn::Sequential> build_mnet();
std::vector<Tensor> make_images(int count, uint64_t seed);

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
/// The highest of p99/p95/p90/p75/p50 that leaves at least ten samples
/// beyond it in a sample of size n.
double tail_q(size_t n);

/// Resets this process's peak resident set to its current one, so
/// peak_rss_mb() covers only what runs afterwards (the measured phase).
void reset_peak_rss();
/// Peak resident set (VmHWM) of this process in MB.
double peak_rss_mb();

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What one workload run produced. `metrics` holds the end-to-end metrics
/// of an untraced run, or the per-layer metrics of a traced one.
struct Result {
  Metrics metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Output and self-consistency check failures (any makes the run fail).
  std::vector<std::string> failures;
  /// Open-loop validity: a run whose generator fell behind its schedule
  /// measured the generator, not the program.
  std::vector<std::string> invalid;
  /// Plan identity for the stamp: "layer=variant/grain" per tuned site.
  std::vector<std::string> plan;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& why);
};

/// Batch-1 CompiledModel::run logits for each image (the output references).
std::vector<Tensor> reference_logits(serve::CompiledModel& plan,
                                     const std::vector<Tensor>& images);
/// Bit-identical comparison against a reference.
bool bit_equal(const Tensor& got, const Tensor& ref);
/// ULP-bounded comparison (simd::kMaxUlp) with an argmax agreement check.
bool ulp_close(const Tensor& got, const Tensor& ref);

/// Host stamp fields: CPU model, nproc, pool threads, SIMD ISA.
std::string host_stamp_json();

/// The aggregate "cpu" counters of /proc/stat, in clock ticks.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTimes cpu_times();
/// Share of all CPU time the hypervisor took from this machine between two
/// readings: a run on a contended host shows here, not as a slow program.
double steal_frac(const CpuTimes& before, const CpuTimes& after);

/// Plan-level probes shared by the serving workloads. They call
/// CompiledModel::run and ThreadPool::run_chunks directly, so they must run
/// while no batcher is executing on the global pool.
///
/// Times batch-`batch` runs of `plan` (untraced and under an
/// obs::ScopedLayerSink, interleaved) and records plan.run_<tag>_ms,
/// kernel.<kind>.<tag>_ms, the layer-sum self-consistency check and, per
/// `batch`, the work counts (b1) or the GFLOP/s figures (b8).
void probe_plan(serve::CompiledModel& plan,
                const std::vector<Tensor>& images, int64_t batch,
                Result& out);
/// Median cost of an empty ThreadPool::global().run_chunks dispatch.
double pool_dispatch_us();
/// Best-of-repetitions simd::gemm rate on a 256^3 problem.
double gemm_peak_gflops();

/// Cumulative busy nanoseconds of the global pool (advances only while
/// device::set_pool_accounting(true)).
int64_t pool_busy_ns();

/// Serving-side counters of one registered model, taken around a measured
/// phase so the per-layer figures cover exactly that phase.
struct ServeSnapshot {
  serve::BatcherStats batcher;
  device::LogHistogram::BucketSnapshot queue_wait;  // dsx_serve_queue_wait_us
};
ServeSnapshot serve_snapshot(serve::InferenceServer& server,
                             const std::string& model);
/// Records serve.{queue_wait_p50_ms,batch_mean,batches,server_p50_ms,
/// server_p99_ms} for the phase between two snapshots.
void record_serve_delta(const ServeSnapshot& before, const ServeSnapshot& after,
                        Result& out);

/// Layer kinds the per-layer breakdown groups plan layers into.
std::string layer_kind(const std::string& layer_name);

// ---- workloads --------------------------------------------------------------

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones. A traced
  /// run alternates untraced and traced windows (steps, for training) and
  /// reports the latency difference as trace.overhead_pct.
  bool traced = false;
};

Result run_wire_open_mnet_fast(const RunOptions& opts);
Result run_inproc_closed_mnet_strict(const RunOptions& opts);
Result run_train_mnet_scc(const RunOptions& opts);

}  // namespace dsx::perfbench
