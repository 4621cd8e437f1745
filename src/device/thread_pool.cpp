#include "device/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/check.hpp"

namespace dsx::device {

namespace {

int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Registry of live NAMED pools, for pool_stats(). Ctor/dtor rate, so a
// mutex-guarded vector is plenty.
std::mutex& pools_mu() {
  static std::mutex mu;
  return mu;
}
std::vector<ThreadPool*>& named_pools() {
  static std::vector<ThreadPool*> pools;
  return pools;
}

// The pool whose launch the calling thread takes part in: set for a worker's
// whole life and for a submitter while its run_chunks is in flight. A launch
// on that same pool would wait for the submit lock its own launch holds.
thread_local const ThreadPool* t_running_on = nullptr;

}  // namespace

ThreadPool::ThreadPool(unsigned threads, std::string name)
    : name_(std::move(name)) {
  unsigned n = threads;
  if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());
  // The calling thread acts as worker 0; spawn n-1 helpers.
  tasks_.resize(n > 0 ? n - 1 : 0);
  workers_.reserve(tasks_.size());
  for (unsigned i = 0; i < tasks_.size(); ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
  if (!name_.empty()) {
    std::lock_guard<std::mutex> lock(pools_mu());
    named_pools().push_back(this);
  }
}

ThreadPool::~ThreadPool() {
  if (!name_.empty()) {
    std::lock_guard<std::mutex> lock(pools_mu());
    auto& pools = named_pools();
    pools.erase(std::remove(pools.begin(), pools.end(), this), pools.end());
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

std::vector<ThreadPool::PoolStats> ThreadPool::pool_stats() {
  std::vector<PoolStats> out;
  std::lock_guard<std::mutex> lock(pools_mu());
  out.reserve(named_pools().size());
  for (const ThreadPool* p : named_pools()) {
    out.push_back({p->name(), p->size(), p->busy_ns(), p->idle_ns()});
  }
  return out;
}

void ThreadPool::worker_loop(unsigned worker_index) {
  t_running_on = this;
  uint64_t seen_generation = 0;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      const auto ready = [&] {
        return stop_ || (generation_ != seen_generation &&
                         tasks_[worker_index].fn != nullptr);
      };
      if (pool_accounting_enabled()) {
        const int64_t t0 = mono_ns();
        cv_work_.wait(lock, ready);
        idle_ns_.fetch_add(mono_ns() - t0, std::memory_order_relaxed);
      } else {
        cv_work_.wait(lock, ready);
      }
      if (stop_) return;
      seen_generation = generation_;
      task = tasks_[worker_index];
      tasks_[worker_index].fn = nullptr;
    }
    std::exception_ptr err;
    if (task.begin < task.end) {
      const bool acct = pool_accounting_enabled();
      const int64_t t0 = acct ? mono_ns() : 0;
      try {
        (*task.fn)(task.begin, task.end);
      } catch (...) {
        err = std::current_exception();
      }
      if (acct) busy_ns_.fetch_add(mono_ns() - t0, std::memory_order_relaxed);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (err && !first_error_) first_error_ = err;
      if (--pending_ == 0) cv_done_.notify_all();
    }
  }
}

void ThreadPool::run_chunks(int64_t total,
                            const std::function<void(int64_t, int64_t)>& fn) {
  DSX_REQUIRE(total >= 0, "run_chunks: negative range");
  DSX_REQUIRE(t_running_on != this,
              "run_chunks: nested launch on the pool this thread is running "
              "on ('" << name_ << "')");
  if (total == 0) return;
  const int64_t nthreads = static_cast<int64_t>(size());
  const int64_t chunk = (total + nthreads - 1) / nthreads;

  // One launch at a time: later submitters wait here until this launch's
  // chunks have all finished.
  const std::lock_guard<std::mutex> submit(submit_mu_);
  struct RestoreRunningOn {
    const ThreadPool* saved;
    ~RestoreRunningOn() { t_running_on = saved; }
  } restore{std::exchange(t_running_on, this)};

  // Chunk 0 runs on the calling thread; the rest go to workers.
  int64_t my_end = std::min<int64_t>(chunk, total);
  {
    std::lock_guard<std::mutex> lock(mu_);
    DSX_CHECK(pending_ == 0, "run_chunks: overlapping launches");
    first_error_ = nullptr;
    unsigned used = 0;
    for (unsigned i = 0; i < tasks_.size(); ++i) {
      const int64_t b = std::min<int64_t>(chunk * (i + 1), total);
      const int64_t e = std::min<int64_t>(chunk * (i + 2), total);
      tasks_[i] = Task{&fn, b, e};
      ++used;
    }
    pending_ = used;
    ++generation_;
  }
  cv_work_.notify_all();

  std::exception_ptr my_err;
  {
    const bool acct = pool_accounting_enabled();
    const int64_t t0 = acct ? mono_ns() : 0;
    try {
      if (my_end > 0) fn(0, my_end);
    } catch (...) {
      my_err = std::current_exception();
    }
    if (acct) busy_ns_.fetch_add(mono_ns() - t0, std::memory_order_relaxed);
  }

  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return pending_ == 0; });
    if (!first_error_ && my_err) first_error_ = my_err;
    if (first_error_) {
      std::exception_ptr err = first_error_;
      first_error_ = nullptr;
      std::rethrow_exception(err);
    }
  }
  if (my_err) std::rethrow_exception(my_err);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(
      []() -> unsigned {
        if (const char* env = std::getenv("DSX_THREADS")) {
          const int v = std::atoi(env);
          if (v > 0) return static_cast<unsigned>(v);
        }
        return 0;
      }(),
      "global");
  return pool;
}

namespace {
// Lane binding for the calling thread (see PoolScope); null = global pool.
thread_local ThreadPool* t_current_pool = nullptr;
}  // namespace

ThreadPool& ThreadPool::current() {
  return t_current_pool != nullptr ? *t_current_pool : global();
}

PoolScope::PoolScope(ThreadPool& pool) : saved_(t_current_pool) {
  t_current_pool = &pool;
}

PoolScope::~PoolScope() { t_current_pool = saved_; }

}  // namespace dsx::device
