// CUDA-style kernel launches on the CPU substrate.
//
// DSXplore's GPU kernels assign one thread per output (or input) pixel and
// index the flat thread space `blockIdx.x * blockDim.x + threadIdx.x`.
// `launch_kernel` reproduces that model: the work function receives the flat
// thread id and the launch records a KernelRecord (thread count + per-thread
// cost estimate + atomics performed) into the KernelLog when profiling is
// active. gpusim replays those records through an analytic V100 model to
// produce the paper's GPU-side figures.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace dsx::device {

/// Static per-thread cost declaration for a kernel (used by gpusim).
struct KernelCosts {
  double flops_per_thread = 0.0;
  double bytes_per_thread = 0.0;
};

/// One recorded kernel launch.
struct KernelRecord {
  std::string name;
  int64_t threads = 0;
  double flops_per_thread = 0.0;
  double bytes_per_thread = 0.0;
  int64_t atomic_adds = 0;

  double total_flops() const { return flops_per_thread * static_cast<double>(threads); }
  double total_bytes() const { return bytes_per_thread * static_cast<double>(threads); }
};

/// Process-wide launch log (enabled explicitly by profiling scopes).
class KernelLog {
 public:
  static KernelLog& instance();

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  /// One relaxed load: every launch asks, and the answer is almost always
  /// "no".
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void append(KernelRecord record);
  std::vector<KernelRecord> snapshot() const;
  void clear();

 private:
  KernelLog() = default;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards records_
  std::vector<KernelRecord> records_;
};

/// RAII profiling scope: clears and enables the log, restores on exit.
class KernelProfileScope {
 public:
  KernelProfileScope();
  ~KernelProfileScope();
  std::vector<KernelRecord> records() const;

 private:
  bool was_enabled_;
};

// Cheap launches run on the caller: when a launch's modeled work
// (flops_per_thread + bytes_per_thread, times the modeled thread count) is
// below kInlineLaunchWork (device/parallel_for.hpp), the body runs as one
// chunk on the calling thread and never wakes the pool - waking every
// worker for a few KB costs more than the work - and the caller then yields
// its CPU, as a pooled launch does while it waits for its workers. The
// launch is recorded in the KernelLog either way, so launch counts and
// gpusim see no difference.

/// Executes body(tid) for tid in [0, threads) on the pool (or inline, see
/// above), recording the launch when profiling is enabled. This is the
/// single entry point all DSXplore kernels go through.
void launch_kernel(const char* name, int64_t threads, const KernelCosts& costs,
                   const std::function<void(int64_t)>& body);

/// Chunked form: body(begin, end); cheaper when per-thread dispatch through
/// std::function would dominate (the common case for tight inner loops).
void launch_kernel_chunks(const char* name, int64_t threads,
                          const KernelCosts& costs,
                          const std::function<void(int64_t, int64_t)>& body);

/// Chunked form whose recorded GPU-model thread count differs from the CPU
/// execution range (e.g. GEMM executes one chunk per row but models an
/// M*N-thread launch).
void launch_kernel_chunks_modeled(
    const char* name, int64_t exec_range, int64_t model_threads,
    const KernelCosts& costs,
    const std::function<void(int64_t, int64_t)>& body);

}  // namespace dsx::device
