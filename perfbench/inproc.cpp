// inproc_closed_mnet_strict: one batch-scoring caller inside the process.
//
// Why: with 16 submit() futures in flight (twice max_batch) batches fill, so
// this workload is bound by full-batch kernels plus per-request serving
// overhead, and it bypasses what the wire workload exercises - net, the
// tuner and the batcher's max_delay hold. The plan is the default
// CompileOptions{} (kOff): bit-exact scalar kernels and the same plan in
// every run, so every reply must equal its batch-1 reference bit for bit.
#include <deque>
#include <future>
#include <random>

#include "common.hpp"
#include "device/thread_pool.hpp"

namespace dsx::perfbench {

namespace {

constexpr int kInFlight = 2 * static_cast<int>(kMaxBatch);
constexpr double kWarmupS = 1.0;
constexpr double kWindowS = 1.0;
const std::string kModel = "mnet";

struct Stack {
  std::unique_ptr<serve::InferenceServer> server;
  std::unique_ptr<serve::CompiledModel> reference;
  double setup_s = 0.0;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    if (server) server->stop();
  }
};

std::unique_ptr<Stack> set_up(const std::vector<Tensor>& images,
                              std::vector<Tensor>& refs) {
  auto stack = std::make_unique<Stack>();
  const auto t0 = Clock::now();
  auto plan = std::make_unique<serve::CompiledModel>(
      build_mnet(), mnet_spec().image_shape(), serve::CompileOptions{});
  const double compile_s = s_since(t0);
  // Untimed: the reference copy and its batch-1 logits.
  stack->reference = plan->clone_replica();
  refs = reference_logits(*stack->reference, images);

  const auto t1 = Clock::now();
  stack->server = std::make_unique<serve::InferenceServer>();
  serve::BatcherOptions bopts;
  bopts.max_batch = kMaxBatch;
  stack->server->register_model(kModel, std::move(plan), bopts);
  const Tensor first = stack->server->submit(kModel, images.front()).get();
  stack->setup_s = compile_s + s_since(t1);
  if (!bit_equal(first, refs.front())) {
    throw std::runtime_error("inproc set-up: warm-up reply differs from its "
                             "batch-1 reference");
  }
  return stack;
}

struct Inflight {
  std::future<Tensor> reply;
  Clock::time_point submitted;
  int image = 0;
  bool measured = false;
  bool traced = false;
};

}  // namespace

Result run_inproc_closed_mnet_strict(const RunOptions& opts) {
  Result res;
  std::mt19937_64 rng(opts.seed);
  const std::vector<Tensor> images = make_images(kImagePool, rng());
  std::uniform_int_distribution<int> pick(0, kImagePool - 1);
  std::vector<Tensor> refs;

  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < (opts.traced ? 1 : kSetups); ++i) {
    stack.reset();
    stack = set_up(images, refs);
    setup_s.push_back(stack->setup_s);
  }
  serve::InferenceServer& server = *stack->server;

  // Closed loop: the caller keeps kInFlight requests outstanding and replaces
  // the oldest as soon as it is answered. Latency is submit -> answer seen.
  std::vector<double> latency_ms[2];  // [traced]
  std::vector<double> submit_us;
  std::vector<double> window_qps;
  int64_t window_done = 0;
  int64_t ok = 0;
  double traced_wall_s = 0.0;
  ServeSnapshot serve0;
  int64_t busy0 = 0;

  reset_peak_rss();  // peak_rss_mb covers the measured phase
  const auto start = Clock::now();
  const auto measure_start = start + secs(kWarmupS);
  const auto end = measure_start + secs(opts.seconds);
  auto window_start = measure_start;
  bool measuring = false;
  bool traced_window = false;
  std::deque<Inflight> inflight;
  auto submit = [&](Clock::time_point now) {
    const int k = pick(rng);
    const auto t0 = Clock::now();
    std::future<Tensor> f = server.submit(kModel, images[static_cast<size_t>(k)]);
    if (traced_window) submit_us.push_back(ms_since(t0, Clock::now()) * 1e3);
    inflight.push_back({std::move(f), t0, k, measuring && now < end,
                        traced_window});
    if (inflight.back().measured) ++res.attempted;
  };
  for (int i = 0; i < kInFlight; ++i) submit(start);
  while (!inflight.empty()) {
    Inflight head = std::move(inflight.front());
    inflight.pop_front();
    const Tensor out = head.reply.get();
    const auto now = Clock::now();
    if (head.measured) {
      if (bit_equal(out, refs[static_cast<size_t>(head.image)])) {
        ++ok;
        ++window_done;
        latency_ms[head.traced ? 1 : 0].push_back(ms_since(head.submitted, now));
      } else {
        res.fail("inproc: reply is not bit-identical to its batch-1 reference");
      }
    }
    if (!measuring && now >= measure_start) {
      measuring = true;
      window_start = now;
      serve0 = serve_snapshot(server, kModel);
      busy0 = pool_busy_ns();
    }
    if (measuring && now - window_start >= secs(kWindowS)) {
      const double w = ms_since(window_start, now) / 1e3;
      window_qps.push_back(static_cast<double>(window_done) / w);
      if (traced_window) traced_wall_s += w;
      window_done = 0;
      window_start = now;
      traced_window = opts.traced && window_qps.size() % 2 == 1;
      device::set_pool_accounting(traced_window);
    }
    if (now < end) submit(now);
  }
  if (traced_window) traced_wall_s += s_since(window_start);
  device::set_pool_accounting(false);
  res.failed = res.attempted - ok;

  std::vector<double> all = latency_ms[0];
  all.insert(all.end(), latency_ms[1].begin(), latency_ms[1].end());
  if (!opts.traced) {
    // One-second windows; the median window rate is robust to a brief
    // stall from outside the process.
    res.set("qps", median(window_qps), "1/s");
    res.set("p50_ms", median(all), "ms");
    res.set("tail_ms", quantile(all, tail_q(all.size())), "ms");
    res.set("ok_frac",
            res.attempted > 0 ? static_cast<double>(ok) / res.attempted : 0.0,
            "ratio");
    res.set("setup_s", median(setup_s), "s");
    res.set("peak_rss_mb", peak_rss_mb(), "MB");
    return res;
  }

  record_serve_delta(serve0, serve_snapshot(server, kModel), res);
  res.set("serve.submit_us", median(submit_us), "us");
  res.set("pool.busy_frac",
          traced_wall_s > 0
              ? static_cast<double>(pool_busy_ns() - busy0) / 1e9 /
                    (traced_wall_s * device::ThreadPool::global().size())
              : 0.0,
          "ratio");
  const double base = median(latency_ms[0]);
  res.set("trace.overhead_pct", 100.0 * (median(latency_ms[1]) - base) / base,
          "%");

  // Plan probes call run()/run_chunks directly: stop serving first.
  server.stop();
  probe_plan(*stack->reference, images, kMaxBatch, res);
  res.set("pool.dispatch_us", pool_dispatch_us(), "us");
  res.set("simd.gemm_peak_gflops", gemm_peak_gflops(), "GFLOP/s");
  return res;
}

}  // namespace dsx::perfbench
