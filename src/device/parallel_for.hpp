// Structured parallel loops over index ranges.
//
// parallel_for(n, f) runs f(i) for i in [0, n) on ThreadPool::current() -
// the lane pool bound by a device::PoolScope when one is active (dsx::shard
// replica lanes), else the process-global pool. Chunking never changes
// results: every output index is computed by exactly one thread, so pool
// size only affects scheduling, not floating-point evaluation order.
// parallel_for_2d flattens a rectangular space. `grain` lets callers keep
// tiny loops serial (thread hand-off costs more than the work it would
// save). Kernel launches add a work-based rule on top (kInlineLaunchWork
// below); running a launch inline does not change float order either.
//
// The grain threshold is a heuristic, and dsx::tune measures it instead of
// trusting it: a GrainOverride scope substitutes a tuned grain for
// kDefaultGrain at every loop it dynamically encloses (call sites that pass
// an explicit non-default grain keep their choice). With no scope active the
// constant applies unchanged, so tuning-off behavior is bit-for-bit the
// pre-tuning behavior.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

#include "device/thread_pool.hpp"

namespace dsx::device {

/// Minimum iterations per worker before a loop is worth parallelising.
inline constexpr int64_t kDefaultGrain = 1024;

/// Modeled work (KernelCosts flops + bytes, times modeled threads) below
/// which a kernel launch runs on the calling thread instead of the pool
/// (see device/launch.hpp). A pooled launch costs at least one dispatch plus
/// its work split P ways, so running inline wins whenever the serial work
/// takes no longer than a dispatch. Calibration on a 4-vCPU Xeon: an empty
/// ThreadPool::run_chunks (perfbench's pool.dispatch_us) costs 6-9 us quiet
/// and 15-20 us under serving load; a ReLU launch (9 units per element)
/// runs 73 Ki units in 7.3 us inline against 15.1 us pooled, and 147 Ki
/// units in 15.1 us against 25.8 us. 128 Ki units is about one quiet
/// dispatch of serial work. In perfbench's MobileNet-SCC plan it moves 26
/// of the 27 batch-1 ReLUs inline; the first conv, the 16 Ki-element ReLU
/// and most batch-8 launches stay on the pool.
inline constexpr double kInlineLaunchWork = 128.0 * 1024.0;

/// Grain value that keeps any loop serial (total < grain always holds).
inline constexpr int64_t kSerialGrain = std::numeric_limits<int64_t>::max();

/// Grain a loop will actually use: `requested`, unless the caller asked for
/// the library default while a GrainOverride scope is active on this thread.
int64_t effective_grain(int64_t requested);

/// RAII override of kDefaultGrain for the enclosed loops on this thread.
/// `grain <= 0` installs nothing (tuning records use 0 for "library
/// default"). Scopes nest; each restores the previous override.
class GrainOverride {
 public:
  explicit GrainOverride(int64_t grain);
  ~GrainOverride();
  GrainOverride(const GrainOverride&) = delete;
  GrainOverride& operator=(const GrainOverride&) = delete;

 private:
  int64_t saved_;
};

/// Runs body(i) for every i in [0, total). Parallel when total >= grain.
void parallel_for(int64_t total, const std::function<void(int64_t)>& body,
                  int64_t grain = kDefaultGrain);

/// Runs body(begin, end) over chunked subranges of [0, total); this is the
/// cheaper form when the body can keep per-chunk state (accumulators,
/// scratch buffers).
void parallel_for_chunks(int64_t total,
                         const std::function<void(int64_t, int64_t)>& body,
                         int64_t grain = kDefaultGrain);

/// Runs body(i, j) over [0, rows) x [0, cols), parallel over the flattened
/// space.
void parallel_for_2d(int64_t rows, int64_t cols,
                     const std::function<void(int64_t, int64_t)>& body,
                     int64_t grain = kDefaultGrain);

}  // namespace dsx::device
