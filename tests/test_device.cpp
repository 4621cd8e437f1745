// Unit tests for src/device: thread pool, parallel loops, instrumented
// atomics, kernel-launch logging and the virtual device group.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "device/atomic_stats.hpp"
#include "device/device_group.hpp"
#include "device/launch.hpp"
#include "device/parallel_for.hpp"
#include "device/thread_pool.hpp"
#include "tensor/random.hpp"
#include "tensor/tensor_ops.hpp"
#include "testing_utils.hpp"

namespace dsx::device {
namespace {

// ---- ThreadPool -------------------------------------------------------------

TEST(ThreadPool, CoversWholeRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.run_chunks(1000, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  pool.run_chunks(0, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, NegativeRangeThrows) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.run_chunks(-1, [](int64_t, int64_t) {}), Error);
}

TEST(ThreadPool, SingleThreadPoolWorks) {
  ThreadPool pool(1);
  std::atomic<int64_t> sum{0};
  pool.run_chunks(100, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, PropagatesWorkerException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run_chunks(100,
                               [&](int64_t b, int64_t) {
                                 if (b > 0) throw Error("boom");
                               }),
               Error);
  // Pool must still be usable afterwards.
  std::atomic<int> ok{0};
  pool.run_chunks(8, [&](int64_t b, int64_t e) {
    ok += static_cast<int>(e - b);
  });
  EXPECT_EQ(ok.load(), 8);
}

TEST(ThreadPool, PropagatesCallerChunkException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run_chunks(100,
                               [&](int64_t b, int64_t) {
                                 if (b == 0) throw Error("boom");
                               }),
               Error);
}

TEST(ThreadPool, ReusableAcrossManyCalls) {
  ThreadPool pool(3);
  for (int iter = 0; iter < 50; ++iter) {
    std::atomic<int64_t> sum{0};
    pool.run_chunks(64, [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) sum += 1;
    });
    EXPECT_EQ(sum.load(), 64);
  }
}

TEST(ThreadPool, ConcurrentSubmittersEachCoverTheirRangeExactlyOnce) {
  // The pool owns its exclusion: submitters on many threads need no lock of
  // their own, and every launch still covers its range exactly once.
  ThreadPool pool(4);
  constexpr int kSubmitters = 6;
  constexpr int kLaunches = 100;
  constexpr int64_t kRange = 97;
  std::vector<std::vector<std::atomic<int>>> hits(kSubmitters);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kRange);
  {
    std::vector<std::jthread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.push_back(testing::test_thread([&, t] {
        for (int l = 0; l < kLaunches; ++l) {
          pool.run_chunks(kRange, [&](int64_t b, int64_t e) {
            for (int64_t i = b; i < e; ++i) {
              hits[static_cast<size_t>(t)][static_cast<size_t>(i)]++;
            }
          });
        }
      }));
    }
  }
  for (const auto& h : hits) {
    for (const auto& count : h) EXPECT_EQ(count.load(), kLaunches);
  }
}

/// Runs a launch on `pool` whose chunks starting at `b` satisfying
/// `nest(b)` launch on `pool` again; returns the error text ("" = none).
template <typename Nest>
std::string nested_launch_error(ThreadPool& pool, Nest nest) {
  try {
    pool.run_chunks(100, [&](int64_t b, int64_t) {
      if (nest(b)) pool.run_chunks(4, [](int64_t, int64_t) {});
    });
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(ThreadPool, NestedLaunchFromWorkerChunkThrows) {
  ThreadPool pool(4);
  const std::string what =
      nested_launch_error(pool, [](int64_t b) { return b > 0; });
  EXPECT_NE(what.find("nested launch"), std::string::npos) << what;
  // Not wedged: the pool serves the next launch.
  std::atomic<int> ok{0};
  pool.run_chunks(8, [&](int64_t b, int64_t e) {
    ok += static_cast<int>(e - b);
  });
  EXPECT_EQ(ok.load(), 8);
}

TEST(ThreadPool, NestedLaunchFromSubmitterChunkThrows) {
  ThreadPool pool(4);
  const std::string what =
      nested_launch_error(pool, [](int64_t b) { return b == 0; });
  EXPECT_NE(what.find("nested launch"), std::string::npos) << what;
  std::atomic<int> ok{0};
  pool.run_chunks(8, [&](int64_t b, int64_t e) {
    ok += static_cast<int>(e - b);
  });
  EXPECT_EQ(ok.load(), 8);
}

TEST(ThreadPool, LaunchOnAnotherPoolFromAChunkRuns) {
  // Only re-entering the SAME pool is an error: a chunk may launch on a
  // different pool (e.g. a lane worker's kernel reaching the global pool).
  ThreadPool outer(2);
  ThreadPool inner(2);
  std::atomic<int64_t> covered{0};
  outer.run_chunks(4, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      inner.run_chunks(10, [&](int64_t ib, int64_t ie) { covered += ie - ib; });
    }
  });
  EXPECT_EQ(covered.load(), 40);
}

TEST(ThreadPool, GlobalPoolExists) {
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

// ---- parallel_for -------------------------------------------------------------

TEST(ParallelFor, MatchesSerialSum) {
  std::vector<int64_t> data(5000);
  std::iota(data.begin(), data.end(), 0);
  std::atomic<int64_t> sum{0};
  parallel_for(
      5000, [&](int64_t i) { sum += data[static_cast<size_t>(i)]; },
      /*grain=*/16);
  EXPECT_EQ(sum.load(), 5000 * 4999 / 2);
}

TEST(ParallelFor, SmallRangeStaysSerial) {
  // Bodies under the grain threshold run inline on the caller.
  const auto caller = std::this_thread::get_id();
  bool same_thread = true;
  parallel_for(
      8,
      [&](int64_t) {
        same_thread = same_thread && std::this_thread::get_id() == caller;
      },
      /*grain=*/1024);
  EXPECT_TRUE(same_thread);
}

TEST(ParallelForChunks, ChunksPartitionRange) {
  std::vector<std::atomic<int>> hits(4096);
  parallel_for_chunks(
      4096,
      [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
      },
      /*grain=*/8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor2d, CoversGrid) {
  std::vector<std::atomic<int>> hits(12 * 34);
  parallel_for_2d(
      12, 34,
      [&](int64_t r, int64_t c) { hits[static_cast<size_t>(r * 34 + c)]++; },
      /*grain=*/4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroIterations) {
  int calls = 0;
  parallel_for(0, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_THROW(parallel_for(-5, [](int64_t) {}), Error);
}

// ---- atomics -------------------------------------------------------------------

TEST(AtomicAddFloat, ConcurrentSumIsExact) {
  float target = 0.0f;
  parallel_for_chunks(
      10000,
      [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) atomic_add_float(target, 1.0f);
      },
      /*grain=*/8);
  EXPECT_FLOAT_EQ(target, 10000.0f);
}

TEST(AtomicCounters, ScopeCountsOnlyInside) {
  float x = 0.0f;
  atomic_add_float(x, 1.0f);  // outside any scope: not counted
  {
    AtomicCountScope scope;
    atomic_add_float(x, 1.0f);
    atomic_add_float(x, 1.0f);
    EXPECT_EQ(scope.adds(), 2);
  }
  EXPECT_FALSE(AtomicCounters::instance().counting());
}

TEST(AtomicCounters, NestedScopesRestoreState) {
  AtomicCountScope outer;
  float x = 0.0f;
  {
    AtomicCountScope inner;
    atomic_add_float(x, 1.0f);
  }
  atomic_add_float(x, 1.0f);
  EXPECT_TRUE(AtomicCounters::instance().counting());
  EXPECT_GE(outer.adds(), 2);
}

// ---- kernel log ----------------------------------------------------------------

TEST(KernelLog, RecordsLaunchesInsideScope) {
  KernelProfileScope scope;
  launch_kernel("test_kernel", 100, {3.0, 5.0}, [](int64_t) {});
  const auto records = scope.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].name, "test_kernel");
  EXPECT_EQ(records[0].threads, 100);
  EXPECT_DOUBLE_EQ(records[0].flops_per_thread, 3.0);
  EXPECT_DOUBLE_EQ(records[0].total_flops(), 300.0);
  EXPECT_DOUBLE_EQ(records[0].total_bytes(), 500.0);
}

TEST(KernelLog, SilentWhenDisabled) {
  KernelLog::instance().clear();
  launch_kernel("quiet", 10, {}, [](int64_t) {});
  EXPECT_TRUE(KernelLog::instance().snapshot().empty());
}

TEST(KernelLog, ModeledThreadCountDiffersFromExecRange) {
  KernelProfileScope scope;
  launch_kernel_chunks_modeled("gemm_like", /*exec=*/4, /*model=*/4096,
                               {2.0, 1.0}, [](int64_t, int64_t) {});
  const auto records = scope.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].threads, 4096);
}

TEST(KernelLog, CapturesAtomicsPerLaunch) {
  AtomicCountScope counting;
  KernelProfileScope scope;
  float x = 0.0f;
  launch_kernel("atomic_kernel", 4, {}, [&](int64_t) {
    atomic_add_float(x, 1.0f);
  });
  launch_kernel("clean_kernel", 4, {}, [](int64_t) {});
  const auto records = scope.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].atomic_adds, 4);
  EXPECT_EQ(records[1].atomic_adds, 0);
}

// ---- DeviceGroup ---------------------------------------------------------------

TEST(DeviceGroup, AllReduceMeanAveragesReplicas) {
  DeviceGroup group(3);
  Tensor a(Shape{4}, 1.0f), b(Shape{4}, 2.0f), c(Shape{4}, 6.0f);
  std::vector<Tensor*> replicas = {&a, &b, &c};
  const CollectiveStats stats = group.all_reduce_mean(replicas);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(a[i], 3.0f);
    EXPECT_FLOAT_EQ(b[i], 3.0f);
    EXPECT_FLOAT_EQ(c[i], 3.0f);
  }
  EXPECT_EQ(stats.devices, 3);
  EXPECT_DOUBLE_EQ(stats.payload_bytes, 16.0);
}

TEST(DeviceGroup, AllReduceValidatesShapes) {
  DeviceGroup group(2);
  Tensor a(Shape{4}), b(Shape{5});
  std::vector<Tensor*> replicas = {&a, &b};
  EXPECT_THROW(group.all_reduce_mean(replicas), Error);
}

TEST(DeviceGroup, AllReduceValidatesReplicaCount) {
  DeviceGroup group(2);
  Tensor a(Shape{4});
  std::vector<Tensor*> replicas = {&a};
  EXPECT_THROW(group.all_reduce_mean(replicas), Error);
}

TEST(DeviceGroup, ParamListCollective) {
  DeviceGroup group(2);
  Tensor a0(Shape{2}, 0.0f), a1(Shape{2}, 4.0f);
  Tensor b0(Shape{3}, 1.0f), b1(Shape{3}, 3.0f);
  std::vector<std::vector<Tensor*>> params = {{&a0, &b0}, {&a1, &b1}};
  const CollectiveStats stats = group.all_reduce_mean(params);
  EXPECT_FLOAT_EQ(a0[0], 2.0f);
  EXPECT_FLOAT_EQ(b1[2], 2.0f);
  EXPECT_DOUBLE_EQ(stats.payload_bytes, (2 + 3) * 4.0);
}

TEST(DeviceGroup, Broadcast) {
  DeviceGroup group(3);
  Tensor src(Shape{3}, 5.0f);
  Tensor d1(Shape{3}), d2(Shape{3});
  std::vector<Tensor*> dst = {&d1, &d2};
  group.broadcast(src, dst);
  EXPECT_FLOAT_EQ(d1[2], 5.0f);
  EXPECT_FLOAT_EQ(d2[0], 5.0f);
}

TEST(DeviceGroup, RingBytesFormula) {
  EXPECT_DOUBLE_EQ(ring_all_reduce_bytes(100.0, 1), 0.0);
  EXPECT_DOUBLE_EQ(ring_all_reduce_bytes(100.0, 2), 100.0);
  EXPECT_DOUBLE_EQ(ring_all_reduce_bytes(100.0, 4), 150.0);
  EXPECT_THROW(ring_all_reduce_bytes(1.0, 0), Error);
}

TEST(DeviceGroup, RequiresAtLeastOneDevice) {
  EXPECT_THROW(DeviceGroup(0), Error);
}

TEST(DeviceGroup, SingleDeviceGroupIsIdentityWithZeroWireTraffic) {
  DeviceGroup group(1);
  EXPECT_EQ(group.size(), 1);
  Tensor a(Shape{4}, 7.0f);
  std::vector<Tensor*> replicas = {&a};
  const CollectiveStats stats = group.all_reduce_mean(replicas);
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(a[i], 7.0f);
  EXPECT_EQ(stats.devices, 1);
  EXPECT_DOUBLE_EQ(stats.wire_bytes, 0.0);  // a 1-ring moves nothing
  EXPECT_DOUBLE_EQ(ring_all_reduce_bytes(1024.0, 1), 0.0);
}

TEST(DeviceGroup, EmptyReplicaSpanIsRejected) {
  DeviceGroup group(1);
  std::vector<Tensor*> none;
  EXPECT_THROW(group.all_reduce_mean(std::span<Tensor* const>(none)), Error);
  DeviceGroup group2(2);
  EXPECT_THROW(group2.all_reduce_mean(std::span<Tensor* const>(none)), Error);
  // A null replica inside a correctly sized span is also a caller bug.
  Tensor a(Shape{2});
  std::vector<Tensor*> with_null = {&a, nullptr};
  EXPECT_THROW(group2.all_reduce_mean(with_null), Error);
}

TEST(DeviceGroup, MismatchedParamListLengthsAreRejected) {
  DeviceGroup group(2);
  Tensor a0(Shape{2}), b0(Shape{3});
  Tensor a1(Shape{2});
  // Device 0 holds two params, device 1 only one.
  std::vector<std::vector<Tensor*>> uneven = {{&a0, &b0}, {&a1}};
  EXPECT_THROW(group.all_reduce_mean(uneven), Error);
  // Wrong outer (device) count fails too.
  std::vector<std::vector<Tensor*>> wrong_devices = {{&a0}};
  EXPECT_THROW(group.all_reduce_mean(wrong_devices), Error);
  // Zero-length param lists are a valid no-op collective.
  std::vector<std::vector<Tensor*>> empty_lists = {{}, {}};
  const CollectiveStats stats = group.all_reduce_mean(empty_lists);
  EXPECT_DOUBLE_EQ(stats.payload_bytes, 0.0);
  EXPECT_DOUBLE_EQ(stats.wire_bytes, 0.0);
}

// ---- ThreadPool::current / PoolScope (dsx::shard execution lanes) ----------

TEST(PoolScope, CurrentDefaultsToGlobalAndBindsPerThread) {
  EXPECT_EQ(&ThreadPool::current(), &ThreadPool::global());
  ThreadPool lane(1);
  {
    PoolScope scope(lane);
    EXPECT_EQ(&ThreadPool::current(), &lane);
    // The binding is thread-local: a fresh thread still sees the global.
    std::thread observer([] {
      EXPECT_EQ(&ThreadPool::current(), &ThreadPool::global());
    });
    observer.join();
    // Scopes nest and restore.
    ThreadPool inner(1);
    {
      PoolScope nested(inner);
      EXPECT_EQ(&ThreadPool::current(), &inner);
    }
    EXPECT_EQ(&ThreadPool::current(), &lane);
  }
  EXPECT_EQ(&ThreadPool::current(), &ThreadPool::global());
}

TEST(PoolScope, ParallelForRunsOnBoundLane) {
  // Two lanes execute parallel loops concurrently without touching the
  // global pool: this is the property that lets shard replicas run
  // concurrently instead of taking turns on one pool.
  ThreadPool lane_a(2), lane_b(2);
  std::atomic<int64_t> sum{0};
  std::thread ta([&] {
    PoolScope scope(lane_a);
    parallel_for(
        4096, [&](int64_t i) { sum.fetch_add(i, std::memory_order_relaxed); },
        /*grain=*/1);
  });
  std::thread tb([&] {
    PoolScope scope(lane_b);
    parallel_for(
        4096, [&](int64_t i) { sum.fetch_add(i, std::memory_order_relaxed); },
        /*grain=*/1);
  });
  ta.join();
  tb.join();
  EXPECT_EQ(sum.load(), 2 * (4096 * 4095) / 2);
}

// ---- busy/idle pool accounting (obs::prof resource layer) ------------------

/// RAII arm/disarm so a failing assertion never leaks the process-wide flag
/// into later tests.
struct AccountingScope {
  AccountingScope() { set_pool_accounting(true); }
  ~AccountingScope() { set_pool_accounting(false); }
};

TEST(PoolAccounting, OffByDefaultAndAccumulatesNothing) {
  ThreadPool pool(4, "acct-off");
  ASSERT_FALSE(pool_accounting_enabled());
  pool.run_chunks(1 << 16, [&](int64_t b, int64_t e) {
    volatile double x = 0;
    for (int64_t i = b; i < e; ++i) x = x + static_cast<double>(i);
  });
  EXPECT_EQ(pool.busy_ns(), 0);
  EXPECT_EQ(pool.idle_ns(), 0);
}

TEST(PoolAccounting, SaturatedPoolShowsHighUtilization) {
  AccountingScope acct;
  ThreadPool pool(4, "acct-busy");
  const auto t0 = std::chrono::steady_clock::now();
  // Every thread spins its whole chunk: busy time should approach
  // threads x wall. Several run_chunks calls keep per-call dispatch
  // overhead amortized.
  for (int rep = 0; rep < 4; ++rep) {
    pool.run_chunks(static_cast<int64_t>(pool.size()),
                    [&](int64_t b, int64_t e) {
                      volatile double x = 1.0;
                      const auto until = std::chrono::steady_clock::now() +
                                         std::chrono::milliseconds(20);
                      while (std::chrono::steady_clock::now() < until) {
                        for (int i = 0; i < 1000; ++i) x = x * 1.0000001;
                      }
                      (void)b;
                      (void)e;
                    });
  }
  const double wall_ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
  const double util = static_cast<double>(pool.busy_ns()) /
                      (wall_ns * static_cast<double>(pool.size()));
  // Near 1.0 in theory; leave slack for scheduling noise on loaded CI
  // machines. Well above 0 proves chunk execution is what is being timed.
  EXPECT_GT(util, 0.5);
  EXPECT_LE(util, 1.1);  // never more busy than threads x wall (+10% clock skew)
}

TEST(PoolAccounting, IdlePoolAccumulatesIdleNotBusy) {
  AccountingScope acct;
  ThreadPool pool(4, "acct-idle");
  // One trivial dispatch parks the workers inside an accounted cv wait...
  pool.run_chunks(1, [](int64_t, int64_t) {});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // ...then a second dispatch forces every worker through the wait exit,
  // banking the parked time into idle_ns.
  pool.run_chunks(1, [](int64_t, int64_t) {});
  EXPECT_GT(pool.idle_ns(), 30'000'000);  // most of the 50ms park
  EXPECT_LT(pool.busy_ns(), 20'000'000);  // two trivial chunks only
}

TEST(PoolAccounting, CountersMonotoneUnderHammer) {
  AccountingScope acct;
  ThreadPool pool(4, "acct-hammer");
  std::atomic<bool> stop{false};
  std::atomic<bool> violated{false};
  // 8 reader threads poll the counters for monotonicity while the pool
  // executes work - the TSan-tier interleaving check for the relaxed
  // counter writes against concurrent pool_stats() snapshots.
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&] {
      int64_t last_busy = 0;
      int64_t last_idle = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (const auto& st : ThreadPool::pool_stats()) {
          if (st.name != "acct-hammer") continue;
          if (st.busy_ns < last_busy || st.idle_ns < last_idle) {
            violated.store(true, std::memory_order_relaxed);
          }
          last_busy = st.busy_ns;
          last_idle = st.idle_ns;
        }
      }
    });
  }
  for (int rep = 0; rep < 50; ++rep) {
    pool.run_chunks(1 << 12, [&](int64_t b, int64_t e) {
      volatile int64_t x = 0;
      for (int64_t i = b; i < e; ++i) x = x + i;
    });
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();
  EXPECT_FALSE(violated.load());
  EXPECT_GT(pool.busy_ns(), 0);
}

TEST(PoolAccounting, NamedPoolsAppearInStatsAnonymousDoNot) {
  ThreadPool named(2, "acct-named");
  ThreadPool anon(2);
  bool saw_named = false;
  for (const auto& st : ThreadPool::pool_stats()) {
    if (st.name == "acct-named") {
      saw_named = true;
      EXPECT_EQ(st.threads, 2u);
    }
    EXPECT_FALSE(st.name.empty());
  }
  EXPECT_TRUE(saw_named);
  // The process-wide global() pool registers under "global".
  (void)ThreadPool::global();
  bool saw_global = false;
  for (const auto& st : ThreadPool::pool_stats()) {
    saw_global = saw_global || st.name == "global";
  }
  EXPECT_TRUE(saw_global);
}

// ---- launch inline rule (cheap launches run on the caller) -----------------

/// Where each chunk of one launch ran.
struct ChunkTrace {
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> ranges;
  std::vector<std::thread::id> threads;

  std::function<void(int64_t, int64_t)> body(std::vector<float>& out) {
    return [this, &out](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) {
        const float x = static_cast<float>(i) * 0.37f;
        out[static_cast<size_t>(i)] = x / (1.0f + x * x) + 0.1f * x;
      }
      const std::lock_guard<std::mutex> lock(mu);
      ranges.emplace_back(b, e);
      threads.push_back(std::this_thread::get_id());
    };
  }
};

constexpr KernelCosts kReluCosts{1.0, 8.0};

TEST(Launch, BelowBreakEvenRunsOnTheCallingThread) {
  AccountingScope acct;
  ThreadPool pool(4, "launch-inline");
  const PoolScope scope(pool);
  // Above kDefaultGrain iterations, so only the work rule keeps it inline.
  constexpr int64_t kExec = 4096;
  constexpr int64_t kModeled = 8192;
  ASSERT_LT((kReluCosts.flops_per_thread + kReluCosts.bytes_per_thread) *
                static_cast<double>(kModeled),
            kInlineLaunchWork);
  std::vector<float> out(kExec);
  ChunkTrace trace;
  KernelProfileScope profile;
  launch_kernel_chunks_modeled("cheap", kExec, kModeled, kReluCosts,
                               trace.body(out));
  ASSERT_EQ(trace.ranges.size(), 1u);
  EXPECT_EQ(trace.ranges[0], (std::pair<int64_t, int64_t>{0, kExec}));
  EXPECT_EQ(trace.threads[0], std::this_thread::get_id());
  EXPECT_EQ(pool.busy_ns(), 0);
  const auto records = profile.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].name, "cheap");
  EXPECT_EQ(records[0].threads, kModeled);
}

TEST(Launch, AboveBreakEvenSplitsAcrossThePool) {
  AccountingScope acct;
  ThreadPool pool(4, "launch-pooled");
  const PoolScope scope(pool);
  constexpr int64_t kN = 1 << 16;
  ASSERT_GE((kReluCosts.flops_per_thread + kReluCosts.bytes_per_thread) *
                static_cast<double>(kN),
            kInlineLaunchWork);
  std::vector<float> out(kN);
  ChunkTrace trace;
  KernelProfileScope profile;
  launch_kernel_chunks("costly", kN, kReluCosts, trace.body(out));
  EXPECT_EQ(trace.ranges.size(), pool.size());
  int64_t covered = 0;
  for (const auto& [b, e] : trace.ranges) covered += e - b;
  EXPECT_EQ(covered, kN);
  EXPECT_NE(std::count(trace.threads.begin(), trace.threads.end(),
                       std::this_thread::get_id()),
            static_cast<std::ptrdiff_t>(trace.threads.size()));
  EXPECT_GT(pool.busy_ns(), 0);
  ASSERT_EQ(profile.records().size(), 1u);
  EXPECT_EQ(profile.records()[0].threads, kN);
}

TEST(Launch, InlineAndPooledOutputsAreBitIdentical) {
  ThreadPool pool(4);
  const PoolScope scope(pool);
  constexpr int64_t kN = 1 << 15;
  std::vector<float> inline_out(kN), pooled_out(kN);
  ChunkTrace inline_trace, pooled_trace;
  launch_kernel_chunks("same", kN, {}, inline_trace.body(inline_out));
  launch_kernel_chunks("same", kN, kReluCosts, pooled_trace.body(pooled_out));
  ASSERT_EQ(inline_trace.ranges.size(), 1u);
  ASSERT_GT(pooled_trace.ranges.size(), 1u);
  EXPECT_EQ(std::memcmp(inline_out.data(), pooled_out.data(),
                        inline_out.size() * sizeof(float)),
            0);
  // The per-thread form takes the same rule.
  std::vector<std::thread::id> ran_on(kN);
  launch_kernel("per_thread", kN, {}, [&](int64_t i) {
    ran_on[static_cast<size_t>(i)] = std::this_thread::get_id();
  });
  EXPECT_EQ(std::count(ran_on.begin(), ran_on.end(),
                       std::this_thread::get_id()),
            kN);
}

}  // namespace
}  // namespace dsx::device
