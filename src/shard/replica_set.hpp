// Replicated serving of one logical model (the heart of dsx::shard).
//
// Every model the serving tier serves is a ReplicaSet: R >= 1 independent
// CompiledModel replicas - the serving-side analogue of the paper's Fig. 14
// data-parallel scaling (each V100 holds a model replica and consumes a
// shard of the batch). Each replica owns:
//
//   * its own CompiledModel (replica 0 is the prototype; the rest are
//     deep-cloned via CompiledModel::clone_replica, sharing tuned kernel
//     plans through the dsx::tune cache);
//   * its own DeadlineBatcher (per-replica queue, priorities, deadlines);
//   * with R > 1, its own execution lane - a private device::ThreadPool
//     holding an even partition of the host's worker budget - so replicas
//     genuinely run concurrently. An R = 1 set has no lane: its batcher runs
//     on the constructing thread's current pool (normally the global pool),
//     which must outlive the set.
//
// A Router spreads submissions across replicas (round-robin /
// least-outstanding / power-of-two-choices); outputs remain bit-identical
// to per-image eval-mode forward no matter which replica answers.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "device/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "serve/compiled_model.hpp"
#include "serve/request.hpp"
#include "shard/deadline_batcher.hpp"
#include "shard/router.hpp"

namespace dsx::shard {

/// One replica's observability snapshot.
struct ReplicaStats {
  int replica = 0;
  unsigned lane_threads = 0;
  DeadlineBatcherStats batcher;
};

/// Shard-wide aggregate + per-replica breakdown.
struct ShardStats {
  int replicas = 0;
  RoutingPolicy policy = RoutingPolicy::kLeastOutstanding;
  int64_t requests = 0;  // answered across all replicas
  double qps = 0.0;      // aggregate answered / seconds since construction
  int64_t shed = 0;
  int64_t rejected = 0;
  /// Submit->answer latency across replicas: the bucket-wise merge of the
  /// replicas' own histograms.
  device::LatencyStats::Snapshot latency;
  /// The merged raw cumulative buckets (nanosecond samples) - the windowing
  /// primitive SLO/guardrail evaluation diffs.
  device::LogHistogram::BucketSnapshot latency_buckets;
  std::vector<ReplicaStats> per_replica;
};

class ReplicaSet {
 public:
  /// Takes ownership of the prototype (replica 0) and compiles
  /// opts.replicas - 1 clones of it. Throws std::invalid_argument on
  /// invalid options. Compilation happens here, before any traffic.
  ReplicaSet(std::unique_ptr<serve::CompiledModel> prototype,
             serve::BatcherOptions opts = {});
  ~ReplicaSet();

  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  int replicas() const { return static_cast<int>(replicas_.size()); }

  /// Routes one request to a replica chosen by the routing policy.
  /// Thread-safe. Admission control is per replica: a bounded replica
  /// queue at capacity throws serve::QueueFull to the caller (the routing
  /// policies steer load away from full replicas long before that).
  std::future<Tensor> submit(const Tensor& image, SubmitOptions sopts = {});

  /// Blocking convenience wrapper.
  Tensor infer(const Tensor& image, SubmitOptions sopts = {}) {
    return submit(image, sopts).get();
  }

  /// Drains and stops every replica batcher. Idempotent.
  void stop();

  /// Moves every replica batcher's dsx_serve_* series to scope `model`
  /// (InferenceServer::swap_model_with installs a fleet under a new name).
  /// Routed counters, lane names and workspace gauges keep the scope the
  /// fleet was built with. Callers serialize rescope() calls.
  void rescope(const std::string& model);

  ShardStats stats() const;

  /// The prototype's compile report (replicas share its plan).
  const serve::CompileReport& prototype_report() const;

  /// Direct replica access for tests and benches (bit-identity checks,
  /// targeted routing). `r` in [0, replicas()).
  serve::CompiledModel& replica_model(int r);
  DeadlineBatcher& replica_batcher(int r);

 private:
  struct Replica {
    std::unique_ptr<serve::CompiledModel> model;
    std::unique_ptr<device::ThreadPool> lane;  // null on an R = 1 set
    device::ThreadPool* pool = nullptr;        // where the batches run
    std::unique_ptr<DeadlineBatcher> batcher;  // declared last: stops first
  };

  std::vector<Replica> replicas_;
  /// dsx_shard_routed_total{model,replica}, one per replica (detached when
  /// the fleet has no metric scope or a single replica).
  std::vector<obs::Counter> routed_;
  Router router_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace dsx::shard
