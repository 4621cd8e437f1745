#include "device/launch.hpp"

#include <mutex>
#include <thread>

#include "device/atomic_stats.hpp"
#include "device/parallel_for.hpp"

namespace dsx::device {

KernelLog& KernelLog::instance() {
  static KernelLog log;
  return log;
}

void KernelLog::append(KernelRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (enabled()) records_.push_back(std::move(record));
}

std::vector<KernelRecord> KernelLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

void KernelLog::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
}

KernelProfileScope::KernelProfileScope() {
  auto& log = KernelLog::instance();
  was_enabled_ = log.enabled();
  log.clear();
  log.set_enabled(true);
}

KernelProfileScope::~KernelProfileScope() {
  KernelLog::instance().set_enabled(was_enabled_);
}

std::vector<KernelRecord> KernelProfileScope::records() const {
  return KernelLog::instance().snapshot();
}

namespace {

void record_launch(const char* name, int64_t threads, const KernelCosts& costs,
                   int64_t atomics_before) {
  if (!KernelLog::instance().enabled()) return;
  KernelRecord rec;
  rec.name = name;
  rec.threads = threads;
  rec.flops_per_thread = costs.flops_per_thread;
  rec.bytes_per_thread = costs.bytes_per_thread;
  rec.atomic_adds = AtomicCounters::instance().adds() - atomics_before;
  KernelLog::instance().append(std::move(rec));
}

}  // namespace

void launch_kernel(const char* name, int64_t threads, const KernelCosts& costs,
                   const std::function<void(int64_t)>& body) {
  launch_kernel_chunks_modeled(name, threads, threads, costs,
                               [&](int64_t b, int64_t e) {
                                 for (int64_t i = b; i < e; ++i) body(i);
                               });
}

void launch_kernel_chunks(const char* name, int64_t threads,
                          const KernelCosts& costs,
                          const std::function<void(int64_t, int64_t)>& body) {
  launch_kernel_chunks_modeled(name, threads, threads, costs, body);
}

void launch_kernel_chunks_modeled(
    const char* name, int64_t exec_range, int64_t model_threads,
    const KernelCosts& costs,
    const std::function<void(int64_t, int64_t)>& body) {
  const int64_t atomics_before = AtomicCounters::instance().adds();
  const double work = (costs.flops_per_thread + costs.bytes_per_thread) *
                      static_cast<double>(model_threads);
  if (work < kInlineLaunchWork) {
    parallel_for_chunks(exec_range, body, kSerialGrain);
    // A pooled launch gives up the CPU while it waits for its workers; an
    // inline one yields instead. Without it a batch-1 plan of back-to-back
    // inline launches held its CPU for the whole ~1.2 ms run: on a 4-vCPU
    // Xeon, an in-process client woken meanwhile waited ~0.5 ms per wakeup
    // on the run queue (/proc schedstat), against ~0.05 ms with the yield.
    std::this_thread::yield();
  } else {
    parallel_for_chunks(exec_range, body);
  }
  record_launch(name, model_threads, costs, atomics_before);
}

}  // namespace dsx::device
