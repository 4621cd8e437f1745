// train_mnet_scc: the paper's Fig. 7 unit, an offline training job.
//
// Why: nn::Trainer::train_batch (forward, backward, SGD with momentum) on
// synthetic 32x32 batches of 32 uses the SCC forward differently from
// serving - training mode, allocating paths, large batch - adds the
// input-centric SCC backward the paper claims makes training fast, and
// bypasses serve, net and tune entirely.
#include <cmath>
#include <cstring>
#include <random>

#include "common.hpp"
#include "data/synth.hpp"
#include "device/thread_pool.hpp"
#include "nn/sgd.hpp"
#include "nn/trainer.hpp"
#include "ops/softmax_xent.hpp"

namespace dsx::perfbench {

namespace {

constexpr int64_t kBatch = 32;
constexpr int kBatches = 8;  // the job cycles over this many batches

struct Batch {
  Tensor images;
  std::vector<int32_t> labels;
};

std::vector<Batch> make_batches(uint64_t seed) {
  const data::Dataset ds = data::make_synth_cifar(kBatch * kBatches, seed);
  const int64_t floats = ds.images.numel() / ds.images.shape().n();
  std::vector<Batch> batches;
  for (int b = 0; b < kBatches; ++b) {
    Batch batch{Tensor(make_nchw(kBatch, 3, kImage, kImage)), {}};
    std::memcpy(batch.images.data(), ds.images.data() + b * kBatch * floats,
                static_cast<size_t>(kBatch * floats) * sizeof(float));
    batch.labels.assign(ds.labels.begin() + b * kBatch,
                        ds.labels.begin() + (b + 1) * kBatch);
    batches.push_back(std::move(batch));
  }
  return batches;
}

struct Job {
  std::unique_ptr<nn::Sequential> model;
  std::unique_ptr<nn::SGD> sgd;
  std::unique_ptr<nn::Trainer> trainer;
  double setup_s = 0.0;
  double first_loss = 0.0;
};

/// Build, optimizer and the first (warm-up) step.
Job set_up(const Batch& first) {
  Job job;
  const auto t0 = Clock::now();
  job.model = build_mnet();
  job.sgd = std::make_unique<nn::SGD>(nn::SGD::Options{});
  job.trainer = std::make_unique<nn::Trainer>(*job.model, *job.sgd);
  job.first_loss = job.trainer->train_batch(first.images, first.labels).loss;
  job.setup_s = s_since(t0);
  return job;
}

/// One step with the same semantics as Trainer::train_batch, timed layer by
/// layer through the public Layer::forward/backward.
struct TracedStep {
  double loss = 0.0;
  double forward_ms = 0.0;  // layers + loss
  double backward_ms = 0.0;
  double sgd_ms = 0.0;  // zero_grads + SGD::step
  std::map<std::string, double> fwd_kind_ms;
  std::map<std::string, double> bwd_kind_ms;
};

TracedStep traced_step(Job& job, const Batch& batch) {
  TracedStep ts;
  nn::Sequential& model = *job.model;
  const std::vector<nn::Param*> params = model.params();
  auto t = Clock::now();
  nn::zero_grads(params);
  ts.sgd_ms += ms_since(t, Clock::now());

  Tensor x = batch.images;
  for (size_t i = 0; i < model.size(); ++i) {
    t = Clock::now();
    x = model.layer(i).forward(x, /*training=*/true);
    const double ms = ms_since(t, Clock::now());
    ts.fwd_kind_ms[layer_kind(model.layer(i).name())] += ms;
    ts.forward_ms += ms;
  }
  t = Clock::now();
  const XentResult xent = softmax_cross_entropy(x, batch.labels);
  ts.forward_ms += ms_since(t, Clock::now());
  ts.loss = xent.loss;

  Tensor g = xent.dlogits;
  for (size_t i = model.size(); i-- > 0;) {
    t = Clock::now();
    g = model.layer(i).backward(g);
    const double ms = ms_since(t, Clock::now());
    ts.bwd_kind_ms[layer_kind(model.layer(i).name())] += ms;
    ts.backward_ms += ms;
  }
  t = Clock::now();
  job.sgd->step(params);
  ts.sgd_ms += ms_since(t, Clock::now());
  return ts;
}

}  // namespace

Result run_train_mnet_scc(const RunOptions& opts) {
  Result res;
  std::mt19937_64 rng(opts.seed);
  const std::vector<Batch> batches = make_batches(rng());

  std::vector<double> setup_s;
  Job job;
  for (int i = 0; i < (opts.traced ? 1 : kSetups); ++i) {
    job = set_up(batches.front());
    setup_s.push_back(job.setup_s);
  }

  std::vector<double> step_ms;  // untraced steps
  // Traced step time over the untraced step just before it: adjacent steps
  // share the host's state, so the pair cancels drift.
  std::vector<double> paired_ratio;
  std::vector<TracedStep> traced;
  std::vector<double> losses{job.first_loss};
  reset_peak_rss();  // peak_rss_mb covers the measured phase
  const int64_t busy0 = pool_busy_ns();
  double traced_wall_s = 0.0;
  const auto start = Clock::now();
  const auto end = start + secs(opts.seconds);
  // At least six passes over the batches, even in a short traced fill
  // pass: the job needs about five before its loss reliably falls, and the
  // traced steps then form two dozen traced/untraced pairs.
  for (int64_t step = 1; step <= 6 * kBatches || Clock::now() < end; ++step) {
    const Batch& batch = batches[static_cast<size_t>(step % kBatches)];
    ++res.attempted;
    double loss = 0.0;
    const auto t0 = Clock::now();
    if (opts.traced && step % 2 == 0) {
      device::set_pool_accounting(true);
      traced.push_back(traced_step(job, batch));
      device::set_pool_accounting(false);
      const TracedStep& ts = traced.back();
      paired_ratio.push_back((ts.forward_ms + ts.backward_ms + ts.sgd_ms) /
                             step_ms.back());
      traced_wall_s += s_since(t0);
      loss = traced.back().loss;
    } else {
      loss = job.trainer->train_batch(batch.images, batch.labels).loss;
      step_ms.push_back(ms_since(t0, Clock::now()));
    }
    losses.push_back(loss);
    if (!std::isfinite(loss)) {
      ++res.failed;
      res.fail("train: non-finite loss at step " + std::to_string(step));
    }
  }
  const double elapsed_s = s_since(start);

  // The job must learn: the mean loss over the last pass through the
  // batches must be below the mean over the first (the set-up step on batch
  // 0 starts the first pass). Whole passes cancel per-batch difficulty.
  double head = 0.0;
  double tail = 0.0;
  const size_t pass = kBatches;
  for (size_t i = 0; i < pass; ++i) {
    head += losses[i] / pass;
    tail += losses[losses.size() - 1 - i] / pass;
  }
  std::printf("# train: %lld steps, mean loss %.4f over the first pass -> "
              "%.4f over the last\n",
              static_cast<long long>(res.attempted), head, tail);
  if (!(tail < head)) {
    res.fail("train: loss did not fall over the run (" + std::to_string(head) +
             " -> " + std::to_string(tail) + ")");
  }

  if (!opts.traced) {
    res.set("qps", static_cast<double>(kBatch * res.attempted) / elapsed_s,
            "1/s");
    res.set("p50_ms", median(step_ms), "ms");
    res.set("tail_ms", quantile(step_ms, tail_q(step_ms.size())), "ms");
    res.set("ok_frac",
            static_cast<double>(res.attempted - res.failed) / res.attempted,
            "ratio");
    res.set("setup_s", median(setup_s), "s");
    res.set("peak_rss_mb", peak_rss_mb(), "MB");
    return res;
  }

  std::map<std::string, std::vector<double>> parts;
  for (const TracedStep& ts : traced) {
    parts["forward"].push_back(ts.forward_ms);
    parts["backward"].push_back(ts.backward_ms);
    parts["sgd"].push_back(ts.sgd_ms);
    parts["scc_forward"].push_back(ts.fwd_kind_ms.at("scc"));
    parts["scc_backward"].push_back(ts.bwd_kind_ms.at("scc"));
    parts["depthwise_backward"].push_back(ts.bwd_kind_ms.at("depthwise"));
    parts["bn"].push_back(ts.fwd_kind_ms.at("bn") + ts.bwd_kind_ms.at("bn"));
  }
  for (const char* p : {"forward", "backward", "sgd", "scc_forward",
                        "scc_backward", "depthwise_backward", "bn"}) {
    res.set(std::string("train.") + p + "_ms", median(parts[p]), "ms");
  }
  const double ratio = median(paired_ratio);
  std::printf("# check: train forward+backward+sgd over the untraced step: "
              "median %.4f over %zu adjacent pairs (untraced p50 %.3f ms)\n",
              ratio, paired_ratio.size(), median(step_ms));
  if (std::abs(ratio - 1.0) > 0.10) {
    res.fail("self-consistency: train forward+backward+sgd is " +
             std::to_string(ratio) + "x the untraced step time");
  }
  res.set("trace.overhead_pct", 100.0 * (ratio - 1.0), "%");
  res.set("pool.busy_frac",
          static_cast<double>(pool_busy_ns() - busy0) / 1e9 /
              (traced_wall_s * device::ThreadPool::global().size()),
          "ratio");
  return res;
}

}  // namespace dsx::perfbench
