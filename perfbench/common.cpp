#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "device/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"
#include "tensor/random.hpp"

namespace dsx::perfbench {

deploy::ArchSpec mnet_spec() {
  deploy::ArchSpec spec;
  spec.family = "mobilenet";
  spec.num_classes = kClasses;
  spec.image = kImage;
  spec.scheme.scheme = models::ConvScheme::kDWSCC;
  spec.scheme.cg = 2;
  spec.scheme.co = 0.5;
  spec.scheme.width_mult = 0.25;
  spec.init_seed = kInitSeed;
  return spec;
}

std::unique_ptr<nn::Sequential> build_mnet() {
  return deploy::build_architecture(mnet_spec());
}

std::vector<Tensor> make_images(int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> images;
  images.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    images.push_back(
        random_uniform(make_nchw(1, 3, kImage, kImage), rng, -1.0f, 1.0f));
  }
  return images;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double tail_q(size_t n) {
  for (double q : {0.99, 0.95, 0.90, 0.75}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void Result::fail(const std::string& why) {
  // Keep the first few; a systematic failure repeats on every request.
  if (failures.size() < 8) failures.push_back(why);
}

std::vector<Tensor> reference_logits(serve::CompiledModel& plan,
                                     const std::vector<Tensor>& images) {
  std::vector<Tensor> refs;
  refs.reserve(images.size());
  for (const Tensor& image : images) refs.push_back(plan.run(image).clone());
  return refs;
}

bool bit_equal(const Tensor& got, const Tensor& ref) {
  return got.numel() == ref.numel() &&
         std::memcmp(got.data(), ref.data(),
                     static_cast<size_t>(ref.size_bytes())) == 0;
}

namespace {

int64_t ulp_distance(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) return INT64_MAX;
  if (a == b) return 0;
  int32_t ia = 0;
  int32_t ib = 0;
  std::memcpy(&ia, &a, sizeof(ia));
  std::memcpy(&ib, &b, sizeof(ib));
  if ((ia < 0) != (ib < 0)) return INT64_MAX;
  const int64_t da = ia < 0 ? -static_cast<int64_t>(ia ^ INT32_MIN) : ia;
  const int64_t db = ib < 0 ? -static_cast<int64_t>(ib ^ INT32_MIN) : ib;
  return da > db ? da - db : db - da;
}

int64_t argmax(const Tensor& t) {
  return std::max_element(t.data(), t.data() + t.numel()) - t.data();
}

}  // namespace

bool ulp_close(const Tensor& got, const Tensor& ref) {
  if (got.numel() != ref.numel()) return false;
  for (int64_t i = 0; i < ref.numel(); ++i) {
    if (ulp_distance(got[i], ref[i]) > simd::kMaxUlp) return false;
  }
  return argmax(got) == argmax(ref);
}

std::string host_stamp_json() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::ostringstream os;
  os << "\"cpu\":\"" << cpu << "\",\"nproc\":"
     << std::thread::hardware_concurrency()
     << ",\"pool_threads\":" << device::ThreadPool::global().size()
     << ",\"isa\":\"" << simd::isa_name(simd::active_isa()) << "\"";
  return os.str();
}

CpuTimes cpu_times() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // "cpu": user nice system idle iowait irq softirq steal
  CpuTimes t;
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    if (!(stat >> v)) return {};
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_frac(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double pool_dispatch_us() {
  device::ThreadPool& pool = device::ThreadPool::global();
  const std::function<void(int64_t, int64_t)> empty = [](int64_t, int64_t) {};
  std::vector<double> us;
  for (int i = 0; i < 2000; ++i) {
    const auto t0 = Clock::now();
    pool.run_chunks(pool.size(), empty);
    us.push_back(ms_since(t0, Clock::now()) * 1e3);
  }
  return median(us);
}

int64_t pool_busy_ns() {
  for (const auto& p : device::ThreadPool::pool_stats()) {
    if (p.name == "global") return p.busy_ns;
  }
  return 0;
}

ServeSnapshot serve_snapshot(serve::InferenceServer& server,
                             const std::string& model) {
  return {server.stats(model).batcher,
          obs::Registry::global()
              .histogram("dsx_serve_queue_wait_us", {{"model", model}})
              .bucket_snapshot()};
}

void record_serve_delta(const ServeSnapshot& before, const ServeSnapshot& after,
                        Result& out) {
  using device::LogHistogram;
  const int64_t requests = after.batcher.requests - before.batcher.requests;
  const int64_t batches = after.batcher.batches - before.batcher.batches;
  const LogHistogram::Snapshot latency_ns = LogHistogram::delta_snapshot(
      after.batcher.latency_buckets, before.batcher.latency_buckets);
  const LogHistogram::Snapshot wait_us =
      LogHistogram::delta_snapshot(after.queue_wait, before.queue_wait);
  out.set("serve.batches", static_cast<double>(batches), "count");
  out.set("serve.batch_mean",
          batches > 0 ? static_cast<double>(requests) / batches : 0.0,
          "requests");
  out.set("serve.queue_wait_p50_ms", wait_us.p50 / 1e3, "ms");
  out.set("serve.server_p50_ms", latency_ns.p50 / 1e6, "ms");
  out.set("serve.server_p99_ms", latency_ns.p99 / 1e6, "ms");
}

std::string layer_kind(const std::string& layer_name) {
  if (layer_name.rfind("SCCConv", 0) == 0) return "scc";
  if (layer_name.rfind("DepthwiseConv2d", 0) == 0) return "depthwise";
  if (layer_name.rfind("Conv2d", 0) == 0) return "conv2d";
  if (layer_name == "ReLU") return "relu";
  if (layer_name == "BatchNorm2d") return "bn";
  return "head";  // GlobalAvgPool, Flatten, Linear
}

}  // namespace dsx::perfbench
