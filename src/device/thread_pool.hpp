// Persistent worker pool.
//
// This is the execution substrate standing in for the GPU: DSXplore's CUDA
// kernels are expressed as per-thread work functions over a flat index space
// (see device/launch.hpp), and the pool executes those index spaces with
// static chunking, one chunk per worker, like an OpenMP `parallel for`.
//
// Like a GPU's single command queue, a pool runs one launch at a time and
// enforces that itself: concurrent run_chunks callers queue on the pool's
// submit lock, so any thread may launch on any pool without an external
// lock. Re-entering the pool a thread is already running on (a chunk body,
// or the submitter's own chunk, launching on the same pool) would wait on
// itself, so it throws dsx::Error instead.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace dsx::device {

namespace detail {
/// Process-wide switch for pool busy/idle accounting. Off by default so the
/// steady-state cost of every accounting site is one relaxed load; the
/// profiler (dsx::obs::prof) flips it on for the sampling window.
inline std::atomic<bool> g_pool_accounting{false};
}  // namespace detail

/// True when busy/idle nanosecond accounting is active (one relaxed load -
/// this is the whole off-path cost of an accounting site).
inline bool pool_accounting_enabled() {
  return detail::g_pool_accounting.load(std::memory_order_relaxed);
}
/// Enables/disables busy/idle accounting process-wide. Counters are
/// cumulative and monotone; toggling only gates whether new time is added.
inline void set_pool_accounting(bool on) {
  detail::g_pool_accounting.store(on, std::memory_order_relaxed);
}

/// Fixed-size pool of worker threads executing range tasks.
class ThreadPool {
 public:
  /// `threads == 0` means std::thread::hardware_concurrency(). A non-empty
  /// `name` registers the pool in the process-wide stats registry (see
  /// pool_stats) so its busy/idle counters are exportable; anonymous pools
  /// stay private.
  explicit ThreadPool(unsigned threads = 0, std::string name = {});
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()) + 1; }

  const std::string& name() const { return name_; }
  /// Cumulative nanoseconds pool threads spent executing chunks (includes
  /// the calling thread's chunk 0). Only accumulates while
  /// pool_accounting_enabled(); monotone.
  int64_t busy_ns() const { return busy_ns_.load(std::memory_order_relaxed); }
  /// Cumulative nanoseconds workers spent parked waiting for work. The
  /// calling thread never parks, so idle covers workers_ only; monotone.
  int64_t idle_ns() const { return idle_ns_.load(std::memory_order_relaxed); }

  struct PoolStats {
    std::string name;
    unsigned threads = 0;
    int64_t busy_ns = 0;
    int64_t idle_ns = 0;
  };
  /// Snapshot of every live NAMED pool's counters (registry is
  /// mutex-guarded; scrape-rate calls only).
  static std::vector<PoolStats> pool_stats();

  /// Runs fn(begin, end) over [0, total) split into one contiguous chunk per
  /// pool thread (the calling thread executes one chunk too). Blocks until
  /// every chunk finished. Exceptions from chunks are rethrown (first one).
  /// Thread-safe: concurrent callers run one launch at a time, in lock
  /// order. Throws dsx::Error when the calling thread is already running a
  /// chunk of this pool (nested launch).
  void run_chunks(int64_t total,
                  const std::function<void(int64_t, int64_t)>& fn);

  /// Process-wide pool; size from DSX_THREADS env var when set, else
  /// hardware concurrency.
  static ThreadPool& global();

  /// Pool the calling thread should run kernels on: the pool bound by the
  /// innermost PoolScope on this thread, else global(). parallel_for and
  /// the launch_kernel entry points route through this, which is how
  /// dsx::shard gives every replica its own execution lane - a replica
  /// worker binds its lane pool and every kernel it launches lands there
  /// instead of the shared global pool.
  static ThreadPool& current();

 private:
  struct Task {
    const std::function<void(int64_t, int64_t)>* fn = nullptr;
    int64_t begin = 0;
    int64_t end = 0;
  };

  void worker_loop(unsigned worker_index);

  std::string name_;
  std::atomic<int64_t> busy_ns_{0};
  std::atomic<int64_t> idle_ns_{0};
  std::vector<std::thread> workers_;
  std::mutex submit_mu_;  // held for a whole launch: one launch at a time
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<Task> tasks_;       // one slot per worker
  uint64_t generation_ = 0;       // bumped per run_chunks call
  unsigned pending_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

/// RAII binding of a pool as ThreadPool::current() for the calling thread.
/// Scopes nest; each restores the previous binding. The binding is
/// thread-local, so one replica lane's scope never leaks into concurrent
/// lanes or into the pool's own worker threads.
class PoolScope {
 public:
  explicit PoolScope(ThreadPool& pool);
  ~PoolScope();

  PoolScope(const PoolScope&) = delete;
  PoolScope& operator=(const PoolScope&) = delete;

 private:
  ThreadPool* saved_;
};

}  // namespace dsx::device
