// Replica scaling of the sharded serving tier (dsx::shard) on a synthetic
// MobileNet-SCC workload.
//
// The scaling claim mirrors the paper's Fig. 14 (data-parallel training on
// 1-4 V100s scales near-linearly): serving one logical model from R replicas
// with private execution lanes should scale aggregate throughput with R.
// Following the repo's substrate substitution (bench/fig14, serve_throughput)
// the bench reports BOTH:
//   * measured CPU numbers from the real ReplicaSet pipeline (aggregate QPS,
//     p50/p99, per-replica request balance) - informative on this small CPU
//     substrate, where R lanes mostly trade intra-op threads for
//     inter-request concurrency; asserted only not to collapse; and
//   * modeled V100 aggregate QPS: each replica is one modeled device; its
//     busy time is its executed-batch count times the gpusim time of one
//     profiled run() at its observed mean occupancy, and aggregate QPS is
//     total requests / makespan (the busiest replica). Near-linear scaling
//     here requires the router to actually balance the fleet - a router
//     that funnels everything to one replica shows flat modeled scaling.
//
// SHAPE-CHECKs: modeled R=2 >= 1.3x R=1 (the ROADMAP acceptance bar),
// measured R=2 not slower than R=1 beyond noise, and non-degenerate routing
// at the largest R. `--smoke` shrinks the sweep for CI; `--json` writes
// BENCH_shard_scaling.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "device/launch.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/estimator.hpp"
#include "serve/compiled_model.hpp"
#include "shard/shard.hpp"

namespace {

struct Result {
  int replicas = 0;
  double cpu_qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double modeled_qps = 0.0;   // V100-per-replica makespan model
  int64_t min_requests = 0;   // least-loaded replica (routing balance)
  int64_t max_requests = 0;   // busiest replica
  double avg_batch = 0.0;     // fleet-wide mean occupancy
};

std::unique_ptr<dsx::serve::CompiledModel> make_prototype(int64_t image,
                                                          int64_t max_batch) {
  using namespace dsx;
  Rng rng(11);
  models::SchemeConfig cfg;
  cfg.scheme = models::ConvScheme::kDWSCC;
  cfg.cg = 4;
  cfg.co = 0.5;
  cfg.width_mult = 0.25;
  auto net = models::build_mobilenet(10, cfg, rng);
  return std::make_unique<serve::CompiledModel>(
      std::move(net), Shape{3, image, image},
      serve::CompileOptions{.max_batch = max_batch});
}

Result run_config(int replicas, int64_t image, int64_t max_batch,
                  int64_t clients, int64_t per_client,
                  const std::vector<dsx::Tensor>& images) {
  using namespace dsx;
  Result res;
  res.replicas = replicas;

  shard::ReplicaSet set(make_prototype(image, max_batch),
                        {.max_batch = max_batch,
                         .max_delay = std::chrono::microseconds(1000),
                         .replicas = replicas,
                         .policy = shard::RoutingPolicy::kLeastOutstanding});

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int64_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      // Sliding window: keep 2*max_batch requests in flight per client so
      // every lane's queue can fill micro-batches without burst stalls.
      std::vector<std::future<Tensor>> inflight;
      size_t next_wait = 0;
      for (int64_t r = 0; r < per_client; ++r) {
        inflight.push_back(set.submit(
            images[static_cast<size_t>((c + r) % images.size())]));
        if (static_cast<int64_t>(inflight.size() - next_wait) >
            2 * max_batch) {
          inflight[next_wait++].get();
        }
      }
      for (; next_wait < inflight.size(); ++next_wait) {
        inflight[next_wait].get();
      }
    });
  }
  for (auto& w : workers) w.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const shard::ShardStats stats = set.stats();
  res.cpu_qps = static_cast<double>(stats.requests) / elapsed;
  res.p50_ms = stats.latency.p50_ms;
  res.p99_ms = stats.latency.p99_ms;

  // Modeled V100 fleet: one profiled run() per replica at its observed mean
  // occupancy; busy_r = batches_r * t_model(occupancy_r); aggregate QPS =
  // requests / makespan. Profiling happens after the measured window, one
  // replica at a time (the kernel log is process-wide).
  double makespan = 0.0;
  int64_t total_batches = 0;
  res.min_requests = stats.requests;
  for (const shard::ReplicaStats& rs : stats.per_replica) {
    const serve::BatcherStats& bs = rs.batcher.batcher;
    res.min_requests = std::min(res.min_requests, bs.requests);
    res.max_requests = std::max(res.max_requests, bs.requests);
    total_batches += bs.batches;
    if (bs.batches == 0) continue;
    const int64_t occupancy = std::clamp<int64_t>(
        static_cast<int64_t>(bs.avg_batch + 0.5), 1, max_batch);
    Tensor probe(set.replica_model(rs.replica).input_shape(occupancy));
    device::KernelProfileScope profile;
    (void)set.replica_model(rs.replica).run(probe);
    const double t_batch =
        gpusim::estimate_log_time(gpusim::DeviceSpec::v100(), profile.records());
    makespan = std::max(makespan, static_cast<double>(bs.batches) * t_batch);
  }
  res.modeled_qps =
      makespan > 0.0 ? static_cast<double>(stats.requests) / makespan : 0.0;
  res.avg_batch =
      total_batches > 0
          ? static_cast<double>(stats.requests) / static_cast<double>(total_batches)
          : 0.0;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsx;
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  bench::JsonWriter json("shard_scaling",
                         bench::has_flag(argc, argv, "--json"));

  bench::banner("dsx::shard replica scaling (MobileNet-SCC)");
  const int64_t image = 16;
  const int64_t max_batch = 4;
  const int64_t clients = 8;
  const int64_t per_client = smoke ? 16 : 64;

  std::printf("one logical MobileNet-SCC model served from R replicas, each "
              "with a private\nexecution lane; %lld clients x %lld requests, "
              "max_batch %lld, least-outstanding routing.\nModeled V100 "
              "aggregate = total requests / busiest-replica busy time "
              "(gpusim per-batch model).\n\n",
              static_cast<long long>(clients),
              static_cast<long long>(per_client),
              static_cast<long long>(max_batch));

  Rng rng(13);
  std::vector<Tensor> images;
  for (int64_t i = 0; i < 16; ++i) {
    images.push_back(random_uniform(make_nchw(1, 3, image, image), rng));
  }

  // Warm the pools/arenas out of the measurement.
  (void)run_config(1, image, max_batch, 2, 8, images);

  const std::vector<int> sweep{1, 2, 4};
  std::vector<Result> results;
  for (const int r : sweep) {
    // Best of two runs: ~3ms batches on a shared 1-2 core substrate jitter
    // by tens of percent, and the scaling claims compare ratios of short
    // measurements.
    Result a = run_config(r, image, max_batch, clients, per_client, images);
    Result b = run_config(r, image, max_batch, clients, per_client, images);
    results.push_back(a.cpu_qps >= b.cpu_qps ? a : b);
  }

  const Result& base = results.front();
  bench::Table table({"replicas", "CPU QPS", "p50 (ms)", "p99 (ms)",
                      "avg batch", "min/max req", "V100 QPS", "V100 speedup"});
  for (const Result& r : results) {
    table.add_row({std::to_string(r.replicas), bench::fmt(r.cpu_qps, 0),
                   bench::fmt(r.p50_ms), bench::fmt(r.p99_ms),
                   bench::fmt(r.avg_batch, 1),
                   std::to_string(r.min_requests) + "/" +
                       std::to_string(r.max_requests),
                   bench::fmt(r.modeled_qps, 0),
                   bench::fmt(r.modeled_qps / base.modeled_qps)});
  }
  table.print();

  std::printf("\n");
  for (const Result& r : results) {
    char record[320];
    std::snprintf(
        record, sizeof(record),
        "{\"op\":\"shard\",\"model\":\"mobilenet-scc\",\"replicas\":%d,"
        "\"cpu_qps\":%.1f,\"p50_ms\":%.3f,\"p99_ms\":%.3f,"
        "\"avg_batch\":%.2f,\"min_requests\":%lld,\"max_requests\":%lld,"
        "\"modeled_qps\":%.1f,\"modeled_speedup_vs_r1\":%.3f}",
        r.replicas, r.cpu_qps, r.p50_ms, r.p99_ms, r.avg_batch,
        static_cast<long long>(r.min_requests),
        static_cast<long long>(r.max_requests), r.modeled_qps,
        r.modeled_qps / base.modeled_qps);
    std::printf("JSON %s\n", record);
    json.add(record);
  }
  std::printf("\n");
  json.write();

  const Result& r2 = results[1];
  const Result& rmax = results.back();
  char claim[220];
  std::snprintf(claim, sizeof(claim),
                "modeled V100 fleet: R=2 aggregate QPS >= 1.3x R=1 "
                "(%.0f vs %.0f QPS, %.2fx)",
                r2.modeled_qps, base.modeled_qps,
                r2.modeled_qps / base.modeled_qps);
  bool ok = bench::shape_check(claim,
                               r2.modeled_qps >= 1.3 * base.modeled_qps);
  std::snprintf(claim, sizeof(claim),
                "measured CPU: R=2 is not slower than R=1 beyond noise "
                "(%.0f vs %.0f QPS)",
                r2.cpu_qps, base.cpu_qps);
  ok = bench::shape_check(claim, r2.cpu_qps >= 0.85 * base.cpu_qps) && ok;
  std::snprintf(claim, sizeof(claim),
                "routing is non-degenerate at R=%d: every replica served "
                "requests (min %lld)",
                rmax.replicas, static_cast<long long>(rmax.min_requests));
  ok = bench::shape_check(claim, rmax.min_requests > 0) && ok;
  return ok ? 0 : 1;
}
