// Plan-level layer probes: direct CompiledModel::run timing, the per-kind
// kernel breakdown through obs::ScopedLayerSink, analytic work per image and
// the host's pool-dispatch and GEMM reference rates.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common.hpp"
#include "device/launch.hpp"
#include "obs/trace.hpp"
#include "simd/gemm.hpp"
#include "tensor/random.hpp"

namespace dsx::perfbench {

namespace {

constexpr const char* kKinds[] = {"scc", "depthwise", "conv2d", "relu", "head"};

Tensor assemble(const std::vector<Tensor>& images, int64_t batch) {
  Tensor out(make_nchw(batch, 3, kImage, kImage));
  const int64_t floats = images.front().numel();
  for (int64_t i = 0; i < batch; ++i) {
    std::memcpy(out.data() + i * floats,
                images[static_cast<size_t>(i) % images.size()].data(),
                static_cast<size_t>(floats) * sizeof(float));
  }
  return out;
}

struct LayerWork {
  std::map<std::string, double> macs;  // per image, by kind
  double macs_total = 0.0;
  double bytes = 0.0;  // per image: inputs + outputs + parameters, fp32
};

/// Walks the frozen plan with shape inference: MACs from Layer::cost, bytes
/// computed from tensor sizes (not measured traffic).
LayerWork plan_work(serve::CompiledModel& plan) {
  LayerWork work;
  nn::Sequential& model = plan.model();
  Shape shape = plan.input_shape(1);
  for (size_t i = 0; i < model.size(); ++i) {
    nn::Layer& layer = model.layer(i);
    const scc::LayerCost cost = layer.cost(shape);
    const Shape next = layer.output_shape(shape);
    work.macs[layer_kind(layer.name())] += cost.macs;
    work.macs_total += cost.macs;
    work.bytes += 4.0 * static_cast<double>(shape.numel() + next.numel()) +
                  4.0 * cost.params;
    shape = next;
  }
  return work;
}

}  // namespace

void probe_plan(serve::CompiledModel& plan, const std::vector<Tensor>& images,
                int64_t batch, Result& out) {
  const std::string tag = std::string("b") + std::to_string(batch);
  const Tensor input = assemble(images, batch);
  for (int i = 0; i < 5; ++i) (void)plan.run(input);

  // Untraced and sink-traced runs interleave so drift hits both alike.
  std::vector<double> run_ms;
  std::map<std::string, std::vector<double>> kind_ms;
  // Per traced run: its kinds' total over the untraced run just before it.
  std::vector<double> paired_ratio;
  std::vector<obs::LayerRecord> records;
  const auto t_end = Clock::now() + std::chrono::milliseconds(1500);
  while (run_ms.size() < 40 || (Clock::now() < t_end && run_ms.size() < 400)) {
    const auto t0 = Clock::now();
    (void)plan.run(input);
    run_ms.push_back(ms_since(t0, Clock::now()));

    records.clear();
    {
      const obs::ScopedLayerSink sink(&records);
      (void)plan.run(input);
    }
    std::map<std::string, double> sums;
    for (const char* k : kKinds) sums[k] = 0.0;
    double total = 0.0;
    for (const obs::LayerRecord& r : records) {
      sums[layer_kind(r.name)] += static_cast<double>(r.dur_ns) / 1e6;
      total += static_cast<double>(r.dur_ns) / 1e6;
    }
    for (const auto& [k, v] : sums) kind_ms[k].push_back(v);
    paired_ratio.push_back(total / run_ms.back());
  }

  const double run = median(run_ms);
  out.set("plan.run_" + tag + "_ms", run, "ms");
  std::map<std::string, double> kind_med;
  for (const char* k : kKinds) {
    kind_med[k] = median(kind_ms[k]);
    out.set(std::string("kernel.") + k + "." + tag + "_ms", kind_med[k], "ms");
  }
  // Adjacent runs share the host's state, so the paired ratio cancels the
  // drift that a sum of per-kind medians would not.
  const double ratio = median(paired_ratio);
  std::printf("# check: kernel kinds sum over plan.run_%s: median %.4f over "
              "%zu adjacent pairs\n",
              tag.c_str(), ratio, paired_ratio.size());
  if (std::abs(ratio - 1.0) > 0.10) {
    out.fail("self-consistency: kernel kinds sum to " + std::to_string(ratio) +
             "x plan.run_" + tag + "_ms");
  }

  const LayerWork work = plan_work(plan);
  if (batch == 1) {
    const device::KernelProfileScope scope;
    (void)plan.run(input);
    out.set("kernel.launches_per_run",
            static_cast<double>(scope.records().size()), "count");
    out.set("kernel.mflop_per_image", 2.0 * work.macs_total / 1e6, "MFLOP");
    out.set("kernel.mb_per_image", work.bytes / 1e6, "MB");
  } else {
    for (const char* k : {"scc", "depthwise"}) {
      const double flops = 2.0 * work.macs.at(k) * static_cast<double>(batch);
      out.set(std::string("kernel.") + k + "." + tag + "_gflops",
              flops / (kind_med[k] * 1e6), "GFLOP/s");
    }
  }
}

double gemm_peak_gflops() {
  constexpr int64_t n = 256;
  Rng rng(7);
  const Tensor a = random_uniform(Shape{n, n}, rng);
  const Tensor b = random_uniform(Shape{n, n}, rng);
  Tensor c(Shape{n, n});
  double best_ms = 1e30;
  for (int i = 0; i < 30; ++i) {
    const auto t0 = Clock::now();
    simd::gemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
               c.data(), n);
    best_ms = std::min(best_ms, ms_since(t0, Clock::now()));
  }
  return 2.0 * static_cast<double>(n * n * n) / (best_ms * 1e6);
}

}  // namespace dsx::perfbench
