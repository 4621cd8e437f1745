// Serving walkthrough: train a tiny MobileNet-SCC on synthetic data, compile
// it into a frozen inference plan, and serve concurrent single-image
// requests through the dynamic micro-batching server.
//
//  1. train a few batches (enough for non-trivial BN statistics),
//  2. CompiledModel: fold BN, freeze SCC maps, size the workspace arena,
//  3. InferenceServer: register the plan, fire client threads at it,
//  4. print the per-model stats snapshot (QPS, p50/p99, batch occupancy).
//
// Build & run:  cmake -B build -S . && cmake --build build &&
//               ./build/example_serve_mobilenet_scc
//
// `--tune` demonstrates the dsx::tune compile pass instead: a cold-cache
// compile (every conv/SCC problem measured, winners persisted to
// dsx_tune_cache.bin) vs a warm-cache compile of the same architecture (no
// re-measuring), plus the measured per-layer speedup table the plan baked in.
//
// `--shard R` demonstrates dsx::shard instead: the model is registered with
// BatcherOptions::replicas = R (the one-field sharding switch), clients fire
// a mix of interactive, normal and deliberately-expired requests at it, and
// the per-replica stats table (requests, avg batch, p99, sheds) is printed.
//
// `--canary` demonstrates dsx::deploy instead: two weight versions are
// persisted to a ModelStore, v1 goes live behind a RolloutController, v2 is
// staged through the full ladder - shadow (mirrored traffic, output
// comparison) -> canary (25% of real requests by deterministic hash) ->
// promote (zero-downtime hot-swap) - with per-version stats printed at each
// step.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/synth.hpp"
#include "deploy/deploy.hpp"
#include "models/mobilenet.hpp"
#include "net/net.hpp"
#include "nn/layer.hpp"
#include "nn/sgd.hpp"
#include "nn/trainer.hpp"
#include "obs/obs.hpp"
#include "serve/server.hpp"
#include "shard/shard.hpp"
#include "tensor/random.hpp"
#include "tensor/tensor_ops.hpp"
#include "tune/tune.hpp"

namespace {

dsx::models::SchemeConfig scheme() {
  dsx::models::SchemeConfig cfg;
  cfg.scheme = dsx::models::ConvScheme::kDWSCC;
  cfg.cg = 4;
  cfg.co = 0.5;
  cfg.width_mult = 0.25;
  return cfg;
}

int run_tuning_demo() {
  using namespace dsx;
  const int64_t image = 16;
  const char* cache = "dsx_tune_cache.bin";
  std::remove(cache);  // a true cold start
  std::printf("model: MobileNet %s, tuning cache: %s\n",
              scheme().to_string().c_str(), cache);

  const auto compile_ms = [&](tune::Mode mode) {
    Rng rng(7);  // same seed -> same architecture + weights both times
    auto net = models::build_mobilenet(10, scheme(), rng);
    serve::CompileOptions copts;
    copts.max_batch = 8;
    copts.tuning = mode;
    copts.tuning_cache = cache;
    copts.tuner = {.warmup = 2, .iters = 7};
    const auto t0 = std::chrono::steady_clock::now();
    serve::CompiledModel compiled(std::move(net), Shape{3, image, image},
                                  copts);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    return std::make_pair(ms, compiled.report());
  };

  const int64_t tunes_before = tune::Session::global().tunes_performed();
  const auto [cold_ms, cold_report] = compile_ms(tune::Mode::kTune);
  const int64_t cold_tunes =
      tune::Session::global().tunes_performed() - tunes_before;
  std::printf("\ncold-cache compile: %.0f ms, %lld problems measured, "
              "%lld call sites resolved\n",
              cold_ms, static_cast<long long>(cold_tunes),
              static_cast<long long>(cold_report.layers_tuned));

  // Drop the in-memory records so the second compile genuinely exercises
  // the persisted file - without this, warm start would "work" even if
  // disk persistence were broken.
  tune::Session::global().cache().clear();
  const auto [warm_ms, warm_report] = compile_ms(tune::Mode::kTune);
  const int64_t warm_tunes = tune::Session::global().tunes_performed() -
                             tunes_before - cold_tunes;
  std::printf("warm-cache compile: %.0f ms, %lld problems measured "
              "(records loaded from %s)\n",
              warm_ms, static_cast<long long>(warm_tunes), cache);

  std::printf("\nper-layer winners (cold compile):\n");
  std::printf("  %-44s %-18s %10s %10s %7s\n", "layer", "variant", "default",
              "tuned", "gain");
  for (const serve::TunedLayerChoice& c : cold_report.tuned) {
    std::printf("  %-44s %-18s %8.0fns %8.0fns %6.2fx\n", c.layer.c_str(),
                (c.variant + "@g=" + tune::grain_name(c.grain)).c_str(),
                c.default_ns, c.median_ns, c.default_ns / c.median_ns);
  }
  if (cold_report.tuned.empty()) {
    std::printf("  (every problem kept the default implementation)\n");
  }
  std::printf("\nwarm start %s: %lld re-measurements on the second compile\n",
              warm_tunes == 0 ? "OK" : "FAILED",
              static_cast<long long>(warm_tunes));
  return warm_tunes == 0 ? 0 : 1;
}

int run_shard_demo(int replicas) {
  using namespace dsx;
  const int64_t image = 16;
  Rng rng(7);
  auto net = models::build_mobilenet(10, scheme(), rng);
  auto compiled = std::make_unique<serve::CompiledModel>(
      std::move(net), Shape{3, image, image},
      serve::CompileOptions{.max_batch = 8});
  std::printf("model: MobileNet %s, sharded across %d replicas\n",
              scheme().to_string().c_str(), replicas);

  serve::InferenceServer server;
  // Sharding is the one-field change: replicas > 1 compiles R - 1 clones of
  // the plan and serves them behind per-replica deadline batchers with
  // private execution lanes.
  server.register_model("mobilenet-scc", std::move(compiled),
                        {.max_batch = 8,
                         .max_delay = std::chrono::microseconds(1000),
                         .replicas = replicas});

  const int kClients = 4, kPerClient = 48;
  Rng img_rng(13);
  std::vector<Tensor> requests;
  for (int i = 0; i < 16; ++i) {
    requests.push_back(random_uniform(make_nchw(1, 3, image, image), img_rng));
  }
  std::vector<std::thread> clients;
  std::vector<int> sheds(static_cast<size_t>(kClients), 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::future<Tensor>> inflight;
      for (int r = 0; r < kPerClient; ++r) {
        const Tensor& img =
            requests[static_cast<size_t>((c + r) % requests.size())];
        shard::SubmitOptions sopts;
        if (r % 3 == 0) {
          // Interactive traffic: tight but satisfiable deadline.
          sopts = shard::within(std::chrono::microseconds(500000),
                                serve::Priority::kInteractive);
        } else if (r % 7 == 0) {
          // Already-expired deadline: shed on arrival, never batched.
          sopts.deadline = std::chrono::steady_clock::now() -
                           std::chrono::milliseconds(1);
        }
        inflight.push_back(server.submit("mobilenet-scc", img, sopts));
      }
      for (auto& f : inflight) {
        try {
          (void)f.get();
        } catch (const serve::DeadlineExceeded&) {
          ++sheds[static_cast<size_t>(c)];
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  const serve::ModelStats stats = server.stats("mobilenet-scc");
  if (!stats.shard.has_value()) {
    std::printf("(replicas=1: served by a single batcher)\n");
    std::printf("  requests %lld, p99 %.2f ms\n",
                static_cast<long long>(stats.batcher.requests),
                stats.batcher.latency.p99_ms);
    return 0;
  }
  const shard::ShardStats& shard_stats = *stats.shard;
  std::printf("\nserved %d clients x %d requests, %s routing:\n", kClients,
              kPerClient, shard::routing_policy_name(shard_stats.policy));
  std::printf("  %-8s %-6s %-10s %-10s %-10s %-6s %-9s\n", "replica", "lane",
              "requests", "batches", "avg batch", "p99", "sheds");
  for (const shard::ReplicaStats& rs : shard_stats.per_replica) {
    std::printf("  %-8d %-6u %-10lld %-10lld %-10.2f %-6.2f %-9lld\n",
                rs.replica, rs.lane_threads,
                static_cast<long long>(rs.batcher.batcher.requests),
                static_cast<long long>(rs.batcher.batcher.batches),
                rs.batcher.batcher.avg_batch, rs.batcher.batcher.latency.p99_ms,
                static_cast<long long>(rs.batcher.shed));
  }
  int client_sheds = 0;
  for (const int s : sheds) client_sheds += s;
  std::printf("  aggregate: %lld answered (%.0f QPS), %lld shed, %lld "
              "rejected, p50 %.2f ms, p99 %.2f ms\n",
              static_cast<long long>(shard_stats.requests), shard_stats.qps,
              static_cast<long long>(shard_stats.shed),
              static_cast<long long>(shard_stats.rejected),
              shard_stats.latency.p50_ms, shard_stats.latency.p99_ms);
  std::printf("  clients observed %d DeadlineExceeded - must equal the "
              "server-side shed count\n", client_sheds);
  return shard_stats.requests > 0 && shard_stats.shed > 0 &&
                 client_sheds == static_cast<int>(shard_stats.shed)
             ? 0
             : 1;
}

/// Pass-through layer that holds the first forward after it is armed for
/// 80 ms: the demo's forced tail outlier, one genuinely slow batch that the
/// flight recorder sees end to end.
class SlowWhenArmed : public dsx::nn::Layer {
 public:
  explicit SlowWhenArmed(std::shared_ptr<std::atomic<bool>> armed)
      : armed_(std::move(armed)) {}
  dsx::Tensor forward(const dsx::Tensor& input, bool /*training*/) override {
    if (armed_->exchange(false)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(80));
    }
    return input;
  }
  dsx::Tensor backward(const dsx::Tensor& doutput) override { return doutput; }
  std::unique_ptr<dsx::nn::Layer> clone() const override {
    return std::make_unique<SlowWhenArmed>(armed_);
  }
  dsx::Shape output_shape(const dsx::Shape& input) const override {
    return input;
  }
  std::string name() const override { return "SlowWhenArmed"; }

 private:
  std::shared_ptr<std::atomic<bool>> armed_;
};

int run_metrics_endpoint_demo(int port, double slo_p99_ms, bool profile) {
  using namespace dsx;
  const int64_t image = 16;
  Rng rng(7);
  auto net = models::build_mobilenet(10, scheme(), rng);
  auto slow_armed = std::make_shared<std::atomic<bool>>(false);
  net->emplace<SlowWhenArmed>(slow_armed);
  auto compiled = std::make_unique<serve::CompiledModel>(
      std::move(net), Shape{3, image, image},
      serve::CompileOptions{.max_batch = 8});
  std::printf("model: MobileNet %s, serving with a live telemetry endpoint\n",
              scheme().to_string().c_str());

  serve::InferenceServer server;
  server.register_model("mobilenet-scc", std::move(compiled),
                        {.max_batch = 8,
                         .max_delay = std::chrono::microseconds(1000)});

  // Short burn windows so an impossible --slo-p99-ms flips /healthz to 503
  // within a few seconds of traffic (the production defaults are 5s/60s).
  obs::slo::SloSpec spec;
  spec.p99_ms = slo_p99_ms > 0 ? slo_p99_ms : 10000.0;  // generous default
  spec.fast_window = std::chrono::milliseconds(500);
  spec.slow_window = std::chrono::milliseconds(2000);
  spec.min_samples = 8;
  server.set_slo("mobilenet-scc", spec);

  obs::ExporterOptions eopts;
  eopts.port = port;
  const int bound = server.start_exporter(eopts);
  // The machine-readable line CI greps for (flushed before traffic starts).
  std::printf("METRICS_PORT=%d\n", bound);
  std::fflush(stdout);
  std::printf("scrape me:  curl http://127.0.0.1:%d/metrics\n"
              "            curl http://127.0.0.1:%d/healthz\n",
              bound, bound);
  if (profile) {
    if (server.start_profile()) {
      std::printf("profiler:   sampling at %d Hz; folded stacks at\n"
                  "            curl 'http://127.0.0.1:%d/profile?seconds=1'\n"
                  "            curl 'http://127.0.0.1:%d/profile.json'\n",
                  obs::prof::sampling_hz(), bound, bound);
    } else {
      std::printf("profiler:   unavailable on this platform (resource "
                  "utilization series still exported)\n");
    }
  }

  // Drive steady traffic so the scraped series and SLO windows are live.
  constexpr auto kServeFor = std::chrono::seconds(20);
  Rng img_rng(13);
  std::vector<Tensor> requests;
  for (int i = 0; i < 8; ++i) {
    requests.push_back(random_uniform(make_nchw(1, 3, image, image), img_rng));
  }

  // Force one genuine tail outlier so /outliers, the /metrics exemplars and
  // their /trace timelines have something real to show: the armed layer
  // holds the next batch ~80 ms, so its request's reply-time latency trips
  // the (lowered) absolute threshold and the flight recorder promotes its
  // capture.
  obs::flight::set_absolute_threshold_us(50'000);
  slow_armed->store(true);
  (void)server.infer("mobilenet-scc", requests[0]);
  std::printf("flight recorder: %lld capture(s) promoted; "
              "curl http://127.0.0.1:%d/outliers\n",
              static_cast<long long>(obs::flight::flight_stats().promoted),
              bound);

  const auto t_end = std::chrono::steady_clock::now() + kServeFor;
  int64_t answered = 0;
  while (std::chrono::steady_clock::now() < t_end) {
    (void)server.infer(
        "mobilenet-scc",
        requests[static_cast<size_t>(answered % requests.size())]);
    ++answered;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  const obs::slo::Health health = server.health("mobilenet-scc");
  std::printf("served %lld requests; final health: %s\n",
              static_cast<long long>(answered),
              obs::slo::health_name(health));
  // An impossible objective is SUPPOSED to end Critical - this demo's exit
  // code reports "did the endpoint serve", not "was the SLO met".
  return answered > 0 ? 0 : 1;
}

int run_canary_demo() {
  using namespace dsx;
  const int64_t image = 16;

  // --- 1. two weight versions of the design point into the store -----------
  const std::string store_root = "dsx_model_store";
  std::filesystem::remove_all(store_root);  // a fresh walkthrough every run
  deploy::ModelStore store(store_root);
  deploy::ArchSpec spec;
  spec.family = "mobilenet";
  spec.num_classes = 10;
  spec.image = image;
  spec.scheme = scheme();
  for (const auto& [version, seed] :
       {std::pair<const char*, uint64_t>{"v1", 7},
        std::pair<const char*, uint64_t>{"v2", 8}}) {
    spec.init_seed = seed;
    auto net = deploy::build_architecture(spec);
    store.save_version("mobilenet-scc", version, *net, spec);
    const auto m = store.manifest("mobilenet-scc", version);
    std::printf("stored %s/%s: %s, weights %lld bytes (checksum %016llx)\n",
                m.model.c_str(), m.version.c_str(),
                m.arch.to_string().c_str(),
                static_cast<long long>(m.weights.bytes),
                static_cast<unsigned long long>(m.weights.checksum));
  }

  // --- 2. v1 live, v2 through shadow -> canary -> promote ------------------
  serve::InferenceServer server;
  deploy::RolloutOptions ropts;
  ropts.shadow_fraction = 0.5;
  ropts.canary_fraction = 0.25;
  deploy::RolloutController rollout(server, store, ropts);
  rollout.deploy("mobilenet-scc", "v1",
                 serve::CompileOptions{.max_batch = 8});

  Rng img_rng(13);
  std::vector<Tensor> requests;
  for (int i = 0; i < 24; ++i) {
    requests.push_back(
        random_uniform(make_nchw(1, 3, image, image), img_rng));
  }
  const auto drive = [&](int rounds) {
    int answered = 0;
    for (int r = 0; r < rounds; ++r) {
      for (const Tensor& img : requests) {
        (void)rollout.infer("mobilenet-scc", img);
        ++answered;
      }
    }
    return answered;
  };
  const auto print_status = [&](const char* moment) {
    const deploy::RolloutStatus s = rollout.status("mobilenet-scc");
    std::printf("\n[%s] live=%s%s%s phase=%s split=%.0f%%\n", moment,
                s.live_version.c_str(),
                s.candidate_version.empty() ? "" : " candidate=",
                s.candidate_version.c_str(), deploy::phase_name(s.phase),
                s.split_fraction * 100.0);
    std::printf("  primary:   %lld requests, p99 %.2f ms\n",
                static_cast<long long>(s.primary_requests), s.primary_p99_ms);
    if (!s.candidate_version.empty()) {
      std::printf("  candidate: %lld requests, p99 %.2f ms, %lld errors\n",
                  static_cast<long long>(s.candidate_requests),
                  s.candidate_p99_ms,
                  static_cast<long long>(s.candidate_errors));
    }
    if (s.shadow.mirrored > 0) {
      std::printf("  shadow:    %lld mirrored, %lld compared, %lld "
                  "mismatches (max |diff| %.4f)\n",
                  static_cast<long long>(s.shadow.mirrored),
                  static_cast<long long>(s.shadow.compared),
                  static_cast<long long>(s.shadow.mismatches),
                  s.shadow.max_abs_diff);
    }
  };

  int answered = drive(1);
  print_status("v1 live");

  rollout.stage("mobilenet-scc", "v2", serve::CompileOptions{.max_batch = 8});
  answered += drive(2);
  rollout.drain_shadow_compares();
  print_status("v2 shadowing at 50%");
  const deploy::RolloutStatus shadow_status = rollout.status("mobilenet-scc");

  rollout.advance_to_canary("mobilenet-scc");
  answered += drive(2);
  print_status("v2 canary at 25% (deterministic request-hash split)");

  rollout.promote("mobilenet-scc");
  answered += drive(1);
  print_status("v2 promoted (hot-swap; v1 drained, zero dropped)");

  // --- 3. sanity: the promoted fleet really is v2 --------------------------
  auto v2_ref = store.compile("mobilenet-scc", "v2",
                              serve::CompileOptions{.max_batch = 8});
  const float diff = max_abs_diff(rollout.infer("mobilenet-scc", requests[0]),
                                  v2_ref->run(requests[0]));
  ++answered;
  std::printf("\nserved %d requests end to end; post-promote reply vs v2 "
              "reference |diff| = %g\n", answered, diff);
  const bool ok = diff == 0.0f && shadow_status.shadow.mirrored > 0 &&
                  shadow_status.shadow.compared ==
                      shadow_status.shadow.mirrored &&
                  rollout.status("mobilenet-scc").promotions == 1;
  std::printf("canary walkthrough %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

int run_listen_demo(int port) {
  using namespace dsx;
  const int64_t image = 16;

  // Two store-backed designs under a residency budget that fits ~1.5 of
  // them: requesting the cold name evicts the other and faults in from
  // disk - watch it live on GET /residency.
  const std::string store_root = "dsx_listen_store";
  std::filesystem::remove_all(store_root);
  deploy::ModelStore store(store_root);
  deploy::ArchSpec spec;
  spec.family = "mobilenet";
  spec.num_classes = 10;
  spec.image = image;
  spec.scheme = scheme();
  for (const auto& [name, seed] :
       {std::pair<const char*, uint64_t>{"mobilenet-scc", 7},
        std::pair<const char*, uint64_t>{"mobilenet-scc-alt", 8}}) {
    spec.init_seed = seed;
    auto net = deploy::build_architecture(spec);
    store.save_version(name, "v1", *net, spec);
  }

  serve::InferenceServer server;
  const int metrics_port = server.start_exporter({.port = 0});

  net::ResidencyOptions ropts;
  {
    auto probe =
        store.compile("mobilenet-scc", "v1", {.max_batch = 8});
    const int64_t cost = probe->report().param_floats +
                         probe->report().workspace_floats;
    ropts.budget_floats = cost + cost / 2;
  }
  ropts.compile.max_batch = 8;
  net::ResidencyManager residency(server, store, ropts);
  residency.add_model("mobilenet-scc", "v1");
  residency.add_model("mobilenet-scc-alt", "v1");

  net::IngressOptions iopts;
  iopts.port = port;
  iopts.tenants = {
      net::TenantSpec{.token = "demo-interactive",
                      .priority = serve::Priority::kInteractive},
      net::TenantSpec{.token = "demo-bulk",
                      .priority = serve::Priority::kBulk,
                      .max_inflight = 8},
  };
  net::IngressServer ingress(server, iopts, &residency);
  ingress.start();

  // The machine-readable lines CI greps for (flushed before traffic).
  std::printf("INGRESS_PORT=%d\n", ingress.port());
  std::printf("METRICS_PORT=%d\n", metrics_port);
  std::fflush(stdout);
  std::printf(
      "listening; send an image:\n"
      "  ./build/example_dsx_client --port %d --model mobilenet-scc\n"
      "residency table:  curl http://127.0.0.1:%d/residency\n"
      "metrics:          curl http://127.0.0.1:%d/metrics | grep dsx_net\n",
      ingress.port(), metrics_port, metrics_port);

  // Fault both names once so /residency shows a real eviction before any
  // client arrives.
  Rng img_rng(13);
  const Tensor img = random_uniform(make_nchw(1, 3, image, image), img_rng);
  (void)residency.infer("mobilenet-scc", img);
  (void)residency.infer("mobilenet-scc-alt", img);
  const net::ResidencyStats warm = residency.stats();
  std::printf("residency: %lld registered, %lld resident, %lld faults, "
              "%lld evictions (budget %lld floats)\n",
              static_cast<long long>(warm.registered),
              static_cast<long long>(warm.resident),
              static_cast<long long>(warm.faults),
              static_cast<long long>(warm.evictions),
              static_cast<long long>(warm.budget_floats));

  constexpr auto kServeFor = std::chrono::seconds(30);
  std::this_thread::sleep_for(kServeFor);

  const net::IngressServer::Stats stats = ingress.stats();
  std::printf("ingress: %llu connections, %llu frames, %llu replies "
              "(%llu dropped), %llu framing errors, %llu rejected\n",
              static_cast<unsigned long long>(stats.connections),
              static_cast<unsigned long long>(stats.frames),
              static_cast<unsigned long long>(stats.replies),
              static_cast<unsigned long long>(stats.dropped_replies),
              static_cast<unsigned long long>(stats.framing_errors),
              static_cast<unsigned long long>(stats.rejected));
  ingress.stop();
  server.stop();
  std::filesystem::remove_all(store_root);
  return 0;
}

void print_usage(const char* prog) {
  std::printf(
      "usage: %s [demo] [observability flags]\n"
      "\n"
      "demos (pick at most one; default: the serving walkthrough):\n"
      "  (none)        train, compile and serve a tiny MobileNet-SCC\n"
      "  --tune        cold- vs warm-cache autotuned compile (dsx::tune)\n"
      "  --shard [R]   sharded serving across R replicas (dsx::shard)\n"
      "  --canary      shadow -> canary -> promote rollout (dsx::deploy)\n"
      "  --listen PORT network ingress demo (dsx::net): two store-backed\n"
      "                models under a residency budget that fits one and a\n"
      "                half, served over the framed TCP protocol on PORT\n"
      "                (0 = ephemeral; prints 'INGRESS_PORT=<port>' and\n"
      "                'METRICS_PORT=<port>') for ~30s - drive it with\n"
      "                example_dsx_client, watch GET /residency meanwhile\n"
      "  --serve-metrics PORT\n"
      "                live telemetry endpoint demo (dsx::obs): compile and\n"
      "                serve the model, start the HTTP exporter on PORT\n"
      "                (0 = ephemeral), print 'METRICS_PORT=<port>' and keep\n"
      "                driving traffic for ~20s - scrape GET /metrics,\n"
      "                /metrics.json, /healthz, /trace, /journal meanwhile\n"
      "\n"
      "observability flags (compose with any demo; dsx::obs):\n"
      "  --metrics     after the run, print the process-wide metrics\n"
      "                registry as Prometheus text exposition\n"
      "  --trace FILE  trace every request (sampling 1-in-1) and write\n"
      "                Chrome trace-event JSON to FILE - load it in\n"
      "                Perfetto (ui.perfetto.dev) or chrome://tracing\n"
      "  --slo-p99-ms X\n"
      "                with --serve-metrics: declare a p99 latency SLO of\n"
      "                X ms on the served model (short burn windows, so an\n"
      "                impossible X flips GET /healthz to 503 within a few\n"
      "                seconds; omitted = a generous default objective)\n"
      "  --profile     with --serve-metrics: arm the sampling CPU profiler\n"
      "                for the whole run - GET /profile serves flamegraph\n"
      "                folded stacks, /profile.json the top-N frame table,\n"
      "                and /metrics gains pool/queue/arena utilization\n"
      "  --help        this message\n",
      prog);
}

int run_serving_demo();

}  // namespace

int main(int argc, char** argv) {
  using namespace dsx;
  bool metrics = false;
  const char* trace_path = nullptr;
  enum class Demo {
    kServe,
    kTune,
    kShard,
    kCanary,
    kMetricsEndpoint,
    kListen
  } demo = Demo::kServe;
  int replicas = 2;
  int serve_metrics_port = 0;
  int listen_port = 0;
  double slo_p99_ms = 0.0;
  bool profile = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      print_usage(argv[0]);
      return 0;
    }
    if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--trace requires an output path (see --help)\n");
        return 2;
      }
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--tune") == 0) {
      demo = Demo::kTune;
    } else if (std::strcmp(argv[i], "--canary") == 0) {
      demo = Demo::kCanary;
    } else if (std::strcmp(argv[i], "--shard") == 0) {
      demo = Demo::kShard;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        const int r = std::atoi(argv[++i]);
        if (r > 0) replicas = r;
      }
    } else if (std::strcmp(argv[i], "--serve-metrics") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "--serve-metrics requires a port (0 = ephemeral; see "
                     "--help)\n");
        return 2;
      }
      demo = Demo::kMetricsEndpoint;
      serve_metrics_port = std::atoi(argv[++i]);
      if (serve_metrics_port < 0 || serve_metrics_port > 65535) {
        std::fprintf(stderr, "--serve-metrics: bad port '%s'\n", argv[i]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--listen") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "--listen requires a port (0 = ephemeral; see --help)\n");
        return 2;
      }
      demo = Demo::kListen;
      listen_port = std::atoi(argv[++i]);
      if (listen_port < 0 || listen_port > 65535 ||
          (listen_port == 0 && std::strcmp(argv[i], "0") != 0)) {
        std::fprintf(stderr, "--listen: bad port '%s'\n", argv[i]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      profile = true;
    } else if (std::strcmp(argv[i], "--slo-p99-ms") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "--slo-p99-ms requires a latency objective in ms (see "
                     "--help)\n");
        return 2;
      }
      slo_p99_ms = std::atof(argv[++i]);
      if (slo_p99_ms <= 0.0) {
        std::fprintf(stderr, "--slo-p99-ms: bad objective '%s'\n", argv[i]);
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown flag '%s' (see --help)\n", argv[i]);
      return 2;
    }
  }

  if (trace_path != nullptr) obs::set_trace_sampling(1);  // trace everything

  int rc = 0;
  switch (demo) {
    case Demo::kTune:
      rc = run_tuning_demo();
      break;
    case Demo::kShard:
      rc = run_shard_demo(replicas);
      break;
    case Demo::kCanary:
      rc = run_canary_demo();
      break;
    case Demo::kMetricsEndpoint:
      rc = run_metrics_endpoint_demo(serve_metrics_port, slo_p99_ms, profile);
      break;
    case Demo::kListen:
      rc = run_listen_demo(listen_port);
      break;
    case Demo::kServe:
      rc = run_serving_demo();
      break;
  }

  if (metrics) {
    std::printf("\n# ---- metrics (Prometheus exposition) ----\n%s",
                obs::Registry::global().prometheus_text().c_str());
  }
  if (trace_path != nullptr) {
    const obs::TraceStats ts = obs::trace_stats();
    if (obs::export_chrome_trace(trace_path)) {
      std::printf("\ntrace: %lld events retained (%lld recorded, %lld "
                  "dropped) -> %s\n",
                  static_cast<long long>(ts.retained),
                  static_cast<long long>(ts.recorded),
                  static_cast<long long>(ts.dropped), trace_path);
    } else {
      std::fprintf(stderr, "trace: failed to write %s\n", trace_path);
      rc = rc == 0 ? 1 : rc;
    }
  }
  return rc;
}

namespace {

int run_serving_demo() {
  using namespace dsx;
  // --- 1. train a tiny MobileNet-SCC on synthetic CIFAR ---------------------
  const int64_t image = 16;
  Rng rng(7);
  models::SchemeConfig cfg;
  cfg.scheme = models::ConvScheme::kDWSCC;
  cfg.cg = 4;
  cfg.co = 0.5;
  cfg.width_mult = 0.25;
  auto net = models::build_mobilenet(10, cfg, rng);
  std::printf("model: MobileNet %s\n", cfg.to_string().c_str());

  const data::Dataset train =
      data::make_synth_cifar(64, /*seed=*/3, image, 3, 10);
  nn::SGD opt({.lr = 0.05f, .momentum = 0.9f, .weight_decay = 1e-4f});
  nn::Trainer trainer(*net, opt);
  const int64_t batch = 16;
  const int64_t image_floats = 3 * image * image;
  for (int64_t b = 0; b + batch <= train.images.shape().n(); b += batch) {
    Tensor x(make_nchw(batch, 3, image, image));
    std::vector<int32_t> y(static_cast<size_t>(batch));
    for (int64_t i = 0; i < batch; ++i) {
      std::memcpy(x.data() + i * image_floats,
                  train.images.data() + (b + i) * image_floats,
                  static_cast<size_t>(image_floats) * sizeof(float));
      y[static_cast<size_t>(i)] = train.labels[static_cast<size_t>(b + i)];
    }
    const auto step = trainer.train_batch(x, y);
    std::printf("  step loss %.4f\n", step.loss);
  }

  // --- 2. compile: fold BN, freeze SCC, size the arena ----------------------
  serve::CompileOptions copts;
  copts.max_batch = 8;
  auto compiled = std::make_unique<serve::CompiledModel>(
      std::move(net), Shape{3, image, image}, copts);
  const serve::CompileReport& report = compiled->report();
  std::printf("\ncompiled plan: %lld steps, %lld BN pairs folded, "
              "%lld identities stripped, %lld SCC layers frozen,\n"
              "  %lld params, %lld workspace floats (max batch %lld)\n",
              static_cast<long long>(report.steps),
              static_cast<long long>(report.bn_folded),
              static_cast<long long>(report.identities_stripped),
              static_cast<long long>(report.scc_frozen),
              static_cast<long long>(report.param_floats),
              static_cast<long long>(report.workspace_floats),
              static_cast<long long>(copts.max_batch));

  // --- 3. serve concurrent clients ------------------------------------------
  serve::InferenceServer server;
  server.register_model("mobilenet-scc", std::move(compiled),
                        {.max_batch = 8,
                         .max_delay = std::chrono::microseconds(2000)});

  const int kClients = 4, kPerClient = 32;
  Rng img_rng(13);
  std::vector<Tensor> requests;
  for (int i = 0; i < 16; ++i) {
    requests.push_back(
        random_uniform(make_nchw(1, 3, image, image), img_rng));
  }
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::future<Tensor>> inflight;
      for (int r = 0; r < kPerClient; ++r) {
        inflight.push_back(server.submit(
            "mobilenet-scc",
            requests[static_cast<size_t>((c + r) % requests.size())]));
      }
      for (auto& f : inflight) f.get();
    });
  }
  for (auto& t : clients) t.join();

  // --- 4. stats snapshot -----------------------------------------------------
  const serve::ModelStats stats = server.stats("mobilenet-scc");
  std::printf("\nserved %d clients x %d requests:\n", kClients, kPerClient);
  std::printf("  requests      %lld\n",
              static_cast<long long>(stats.batcher.requests));
  std::printf("  micro-batches %lld (avg occupancy %.2f)\n",
              static_cast<long long>(stats.batcher.batches),
              stats.batcher.avg_batch);
  std::printf("  throughput    %.0f QPS\n", stats.batcher.qps);
  std::printf("  latency       p50 %.2f ms, p99 %.2f ms, max %.2f ms\n",
              stats.batcher.latency.p50_ms, stats.batcher.latency.p99_ms,
              stats.batcher.latency.max_ms);
  return 0;
}

}  // namespace
