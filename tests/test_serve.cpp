// Tests for the serving runtime (src/serve): compiled plans must report the
// expected BN folds, dynamic-batched inference must be bit-identical to
// per-image eval-mode forward (for folded FP32 and quantized SCC models),
// concurrent clients must each be answered exactly once, and the Workspace
// arena must stop per-call allocation growth in steady state.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "core/scc_gemm.hpp"
#include "nn/bn_folding.hpp"
#include "nn/containers.hpp"
#include "nn/layers_basic.hpp"
#include "nn/layers_conv.hpp"
#include "nn/sgd.hpp"
#include "nn/trainer.hpp"
#include "ops/conv2d.hpp"
#include "quant/quant_layers.hpp"
#include "serve/compiled_model.hpp"
#include "serve/server.hpp"
#include "shard/deadline_batcher.hpp"
#include "tensor/random.hpp"
#include "tensor/workspace.hpp"
#include "testing_utils.hpp"

namespace dsx::serve {
namespace {

constexpr int64_t kImage = 8;
constexpr int64_t kClasses = 10;

/// Small conv -> DW -> SCC classifier with three foldable BN pairs.
std::unique_ptr<nn::Sequential> make_scc_model(uint64_t seed) {
  Rng rng(seed);
  auto seq = std::make_unique<nn::Sequential>();
  seq->emplace<nn::Conv2d>(3, 16, 3, 1, 1, 1, rng);
  seq->emplace<nn::BatchNorm2d>(16);
  seq->emplace<nn::ReLU>();
  seq->emplace<nn::DepthwiseConv2d>(16, 3, 1, 1, rng);
  seq->emplace<nn::BatchNorm2d>(16);
  seq->emplace<nn::ReLU>();
  seq->emplace<nn::SCCConv>(
      scc::SCCConfig{.in_channels = 16, .out_channels = 32, .groups = 2,
                     .overlap = 0.5, .stride = 1},
      rng);
  seq->emplace<nn::BatchNorm2d>(32);
  seq->emplace<nn::ReLU>();
  seq->emplace<nn::GlobalAvgPool>();
  seq->emplace<nn::Flatten>();
  seq->emplace<nn::Linear>(32, kClasses, rng);
  return seq;
}

/// A few SGD steps so BN running statistics are non-trivial before folding.
void warm_up(nn::Sequential& model, uint64_t seed) {
  Rng rng(seed);
  nn::SGD opt({.lr = 0.01f, .momentum = 0.9f, .weight_decay = 0.0f});
  nn::Trainer trainer(model, opt);
  for (int step = 0; step < 3; ++step) {
    Tensor x = random_uniform(make_nchw(8, 3, kImage, kImage), rng,
                              -2.0f, 3.0f);
    std::vector<int32_t> labels(8);
    for (auto& y : labels) {
      y = static_cast<int32_t>(rng.randint(0, kClasses - 1));
    }
    trainer.train_batch(x, labels);
  }
}

std::vector<Tensor> make_images(int64_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> images;
  for (int64_t i = 0; i < count; ++i) {
    images.push_back(
        random_uniform(make_nchw(1, 3, kImage, kImage), rng, -1.0f, 1.0f));
  }
  return images;
}

/// Reference answers from the compiled (already folded/quantized) model's own
/// per-image eval forward - exactly what batched serving must reproduce.
std::vector<Tensor> per_image_reference(CompiledModel& compiled,
                                        const std::vector<Tensor>& images) {
  std::vector<Tensor> refs;
  for (const Tensor& img : images) {
    refs.push_back(compiled.model().forward(img, /*training=*/false));
  }
  return refs;
}

using testing::bit_identical;

// ---- Workspace -------------------------------------------------------------

TEST(Workspace, ReusesMemoryAcrossResets) {
  Workspace ws;
  float* a = ws.alloc(100);
  float* b = ws.alloc(200);
  EXPECT_NE(a, b);
  const int64_t cap = ws.capacity_floats();
  ws.reset();
  EXPECT_EQ(ws.used_floats(), 0);
  // Same request pattern lands on the same memory, no growth.
  EXPECT_EQ(ws.alloc(100), a);
  EXPECT_EQ(ws.alloc(200), b);
  EXPECT_EQ(ws.capacity_floats(), cap);
  EXPECT_GE(ws.peak_floats(), 300);
}

TEST(Workspace, TensorsAliasArenaMemory) {
  Workspace ws;
  Tensor t = ws.alloc_tensor(Shape{4, 4});
  t.fill(3.0f);
  EXPECT_EQ(t[0], 3.0f);
  ws.reset();
  Tensor u = ws.alloc_tensor(Shape{4, 4});
  EXPECT_EQ(u.data(), t.data());  // recycled, not reallocated
}

TEST(Workspace, ConvForwardIntoMatchesAllocatingPath) {
  Rng rng(3);
  Tensor x = random_uniform(make_nchw(2, 8, 10, 10), rng);
  Tensor w = random_uniform(Shape{12, 8, 3, 3}, rng);
  Conv2dArgs args{.stride = 1, .pad = 1, .groups = 1};
  Tensor expect = conv2d_forward(x, w, nullptr, args);

  Workspace ws;
  ws.reserve(conv2d_workspace_floats(x.shape(), w.shape(), args));
  Tensor out(conv2d_output_shape(x.shape(), w.shape(), args));
  conv2d_forward_into(x, w, nullptr, args, ws, out);
  EXPECT_TRUE(bit_identical(expect, out));

  // Second call must not grow the arena.
  const int64_t cap = ws.capacity_floats();
  ws.reset();
  conv2d_forward_into(x, w, nullptr, args, ws, out);
  EXPECT_EQ(ws.capacity_floats(), cap);
}

TEST(Workspace, SCCGemmWorkspaceVariantMatches) {
  Rng rng(4);
  scc::SCCConfig cfg{.in_channels = 8, .out_channels = 12, .groups = 2,
                     .overlap = 0.5, .stride = 1};
  scc::ChannelWindowMap map(cfg);
  Tensor x = random_uniform(make_nchw(2, 8, 6, 6), rng);
  Tensor w = random_uniform(Shape{12, map.group_width()}, rng);
  Tensor expect = scc::scc_forward_gemm(x, w, nullptr, map);

  Workspace ws;
  ws.reserve(scc::scc_gemm_workspace_floats(x.shape(), map));
  Tensor got = scc::scc_forward_gemm_ws(x, w, nullptr, map, ws);
  EXPECT_TRUE(bit_identical(expect, got));
}

// ---- CompiledModel ---------------------------------------------------------

TEST(CompiledModel, ReportsExpectedBnFoldCount) {
  auto model = make_scc_model(21);
  warm_up(*model, 22);
  CompiledModel compiled(std::move(model), Shape{3, kImage, kImage},
                         {.max_batch = 4});
  EXPECT_EQ(compiled.report().bn_folded, 3);
  EXPECT_EQ(compiled.report().identities_stripped, 3);
  EXPECT_GT(compiled.report().param_floats, 0);
  EXPECT_GT(compiled.report().workspace_floats, 0);
  // 12 layers - 3 stripped identities (the fold replaces BN in place; the
  // compile pass then removes the placeholders).
  EXPECT_EQ(compiled.report().steps, 9);
}

TEST(CompiledModel, FreezesCompositionSCCImplsToFused) {
  Rng rng(31);
  auto model = std::make_unique<nn::Sequential>();
  model->emplace<nn::SCCConv>(
      scc::SCCConfig{.in_channels = 8, .out_channels = 8, .groups = 2,
                     .overlap = 0.5, .stride = 1},
      rng, /*bias=*/false, nn::SCCImpl::kChannelStack);
  CompiledModel compiled(std::move(model), Shape{8, 4, 4}, {.max_batch = 2});
  EXPECT_EQ(compiled.report().scc_frozen, 1);
  auto* scc_layer = dynamic_cast<nn::SCCConv*>(&compiled.model().layer(0));
  ASSERT_NE(scc_layer, nullptr);
  EXPECT_EQ(scc_layer->impl(), nn::SCCImpl::kFused);
}

TEST(CompiledModel, BatchedRunBitIdenticalToPerImageEval) {
  auto model = make_scc_model(41);
  warm_up(*model, 42);
  CompiledModel compiled(std::move(model), Shape{3, kImage, kImage},
                         {.max_batch = 4});
  const auto images = make_images(4, 43);
  const auto refs = per_image_reference(compiled, images);

  Tensor batch(compiled.input_shape(4));
  const int64_t floats = Shape{3, kImage, kImage}.numel();
  for (int64_t i = 0; i < 4; ++i) {
    std::memcpy(batch.data() + i * floats, images[static_cast<size_t>(i)].data(),
                static_cast<size_t>(floats) * sizeof(float));
  }
  Tensor out = compiled.run(batch);
  ASSERT_EQ(out.shape(), compiled.output_shape(4));
  for (int64_t i = 0; i < 4; ++i) {
    const Tensor& ref = refs[static_cast<size_t>(i)];
    ASSERT_EQ(ref.numel(), kClasses);
    EXPECT_EQ(std::memcmp(out.data() + i * kClasses, ref.data(),
                          sizeof(float) * kClasses),
              0)
        << "image " << i << " diverged from per-image eval forward";
  }
}

TEST(CompiledModel, SteadyStateRunsDoNotGrowWorkspace) {
  auto model = make_scc_model(51);
  CompiledModel compiled(std::move(model), Shape{3, kImage, kImage},
                         {.max_batch = 4});
  Tensor batch(compiled.input_shape(4));
  (void)compiled.run(batch);
  const int64_t floats = compiled.report().workspace_floats;
  for (int i = 0; i < 3; ++i) (void)compiled.run(batch);
  EXPECT_EQ(compiled.report().workspace_floats, floats);
}

// ---- Batcher / InferenceServer --------------------------------------------

TEST(Batcher, CoalescedAnswersMatchPerImageEval) {
  auto model = make_scc_model(61);
  warm_up(*model, 62);
  auto compiled = std::make_unique<CompiledModel>(
      std::move(model), Shape{3, kImage, kImage}, CompileOptions{.max_batch = 4});
  const auto images = make_images(8, 63);
  const auto refs = per_image_reference(*compiled, images);

  shard::DeadlineBatcher batcher(*compiled,
                                 {.max_batch = 4,
                                  .max_delay = std::chrono::microseconds(2000)});
  std::vector<std::future<Tensor>> futures;
  for (const Tensor& img : images) futures.push_back(batcher.submit(img));
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_TRUE(bit_identical(futures[i].get(), refs[i])) << "request " << i;
  }
  const BatcherStats stats = batcher.stats().batcher;
  EXPECT_EQ(stats.requests, 8);
  EXPECT_GE(stats.batches, 2);  // 8 requests cannot fit one batch of 4
  EXPECT_EQ(stats.latency.count, 8);
}

TEST(Batcher, StopDrainsPendingRequests) {
  auto model = make_scc_model(71);
  auto compiled = std::make_unique<CompiledModel>(
      std::move(model), Shape{3, kImage, kImage}, CompileOptions{.max_batch = 2});
  auto batcher = std::make_unique<shard::DeadlineBatcher>(
      *compiled,
      shard::DeadlineBatcherOptions{
          .max_batch = 2, .max_delay = std::chrono::microseconds(50000)});
  const auto images = make_images(5, 72);
  std::vector<std::future<Tensor>> futures;
  for (const Tensor& img : images) futures.push_back(batcher->submit(img));
  batcher->stop();  // must answer all five before joining
  for (auto& f : futures) EXPECT_EQ(f.get().numel(), kClasses);
  EXPECT_THROW(batcher->submit(images[0]), Error);
}

TEST(InferenceServer, ConcurrentClientsEachAnsweredExactlyOnce) {
  constexpr int kClients = 6;
  constexpr int kPerClient = 8;
  constexpr int kDistinct = 8;

  auto fp32 = make_scc_model(81);
  warm_up(*fp32, 82);
  auto compiled = std::make_unique<CompiledModel>(
      std::move(fp32), Shape{3, kImage, kImage}, CompileOptions{.max_batch = 4});
  const auto images = make_images(kDistinct, 83);
  const auto refs = per_image_reference(*compiled, images);

  InferenceServer server;
  server.register_model("scc", std::move(compiled),
                        {.max_batch = 4,
                         .max_delay = std::chrono::microseconds(500)});

  std::atomic<int> answered{0};
  std::atomic<int> mismatched{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int k = 0; k < kPerClient; ++k) {
        const size_t j = static_cast<size_t>((t * kPerClient + k) % kDistinct);
        Tensor y = server.infer("scc", images[j]);
        if (!bit_identical(y, refs[j])) mismatched.fetch_add(1);
        answered.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();

  EXPECT_EQ(answered.load(), kClients * kPerClient);
  EXPECT_EQ(mismatched.load(), 0);
  const ModelStats stats = server.stats("scc");
  EXPECT_EQ(stats.batcher.requests, kClients * kPerClient);
  EXPECT_EQ(stats.batcher.latency.count, kClients * kPerClient);
  EXPECT_GT(stats.batcher.qps, 0.0);
  EXPECT_LE(stats.batcher.latency.p50_ms, stats.batcher.latency.p99_ms);
}

TEST(InferenceServer, CompilesDuringLiveTrafficOnTheGlobalPool) {
  // A compile drives the same global pool as a serving batcher (its
  // workspace dry run, its tuning pass), and nothing but the pool keeps the
  // two apart: residency fault-in, hot-swap and rollout staging all compile
  // under live traffic. Every request must still be answered bit-identically
  // and every compile must succeed.
  constexpr int kClients = 4;
  constexpr int kCompiles = 24;
  auto compiled = std::make_unique<CompiledModel>(
      make_scc_model(85), Shape{3, kImage, kImage},
      CompileOptions{.max_batch = 4});
  const auto images = make_images(4, 86);
  const auto refs = per_image_reference(*compiled, images);

  InferenceServer server;
  server.register_model("scc", std::move(compiled),
                        {.max_batch = 4,
                         .max_delay = std::chrono::microseconds(200)});

  std::atomic<int> compiles{0};
  std::atomic<bool> compiling{true};
  std::atomic<int> answered{0};
  std::atomic<int> mismatched{0};
  {
    // Clients serve until the compiler is done, however it ends.
    std::vector<std::jthread> threads;
    threads.push_back(testing::test_thread([&] {
      struct Done {
        std::atomic<bool>& flag;
        ~Done() { flag.store(false); }
      } done{compiling};
      for (int i = 0; i < kCompiles; ++i) {
        CompileOptions copts;
        copts.max_batch = 2 + i % 3;  // fresh shapes keep kTune measuring
        copts.tuning = i % 2 == 0 ? tune::Mode::kOff : tune::Mode::kTune;
        copts.tuner = {.warmup = 0, .iters = 1};
        const CompiledModel plan(make_scc_model(87),
                                 Shape{3, kImage, kImage}, copts);
        compiles.fetch_add(1);
      }
    }));
    for (int t = 0; t < kClients; ++t) {
      threads.push_back(testing::test_thread([&, t] {
        for (size_t k = 0; compiling.load() || k < 8; ++k) {
          const size_t j = (static_cast<size_t>(t) + k) % images.size();
          if (!bit_identical(server.infer("scc", images[j]), refs[j])) {
            mismatched.fetch_add(1);
          }
          answered.fetch_add(1);
        }
      }));
    }
  }

  EXPECT_EQ(compiles.load(), kCompiles);
  EXPECT_EQ(mismatched.load(), 0);
  EXPECT_EQ(server.stats("scc").batcher.requests, answered.load());
}

TEST(InferenceServer, ServesQuantizedSCCModelBitIdentical) {
  constexpr int kClients = 4;
  auto model = make_scc_model(91);
  warm_up(*model, 92);
  // Post-training quantization pipeline: fold, calibrate, swap SCC -> int8.
  ASSERT_EQ(nn::fold_batchnorm(*model), 3);
  Rng rng(93);
  Tensor calibration =
      random_uniform(make_nchw(8, 3, kImage, kImage), rng, -1.0f, 1.0f);
  const quant::QuantizeReport qreport =
      quant::quantize_scc_layers(*model, calibration);
  ASSERT_EQ(qreport.layers_quantized, 1);

  auto compiled = std::make_unique<CompiledModel>(
      std::move(model), Shape{3, kImage, kImage}, CompileOptions{.max_batch = 4});
  EXPECT_EQ(compiled->report().bn_folded, 0);  // already folded upstream
  const auto images = make_images(6, 94);
  const auto refs = per_image_reference(*compiled, images);

  InferenceServer server;
  server.register_model("qscc", std::move(compiled),
                        {.max_batch = 4,
                         .max_delay = std::chrono::microseconds(500)});
  std::atomic<int> mismatched{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int k = 0; k < 6; ++k) {
        const size_t j = static_cast<size_t>((t + k) % 6);
        Tensor y = server.infer("qscc", images[j]);
        if (!bit_identical(y, refs[j])) mismatched.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(mismatched.load(), 0);
  EXPECT_EQ(server.stats("qscc").batcher.requests, kClients * 6);
}

TEST(InferenceServer, RoutesBetweenMultipleModels) {
  auto a = make_scc_model(101);
  auto b = make_scc_model(102);  // different seed -> different weights
  auto ca = std::make_unique<CompiledModel>(std::move(a),
                                            Shape{3, kImage, kImage},
                                            CompileOptions{.max_batch = 2});
  auto cb = std::make_unique<CompiledModel>(std::move(b),
                                            Shape{3, kImage, kImage},
                                            CompileOptions{.max_batch = 2});
  const auto images = make_images(1, 103);
  const Tensor ref_a = ca->model().forward(images[0], false);
  const Tensor ref_b = cb->model().forward(images[0], false);

  InferenceServer server;
  server.register_model("a", std::move(ca));
  server.register_model("b", std::move(cb));
  EXPECT_TRUE(server.has_model("a"));
  EXPECT_FALSE(server.has_model("c"));
  EXPECT_EQ(server.model_names().size(), 2u);
  EXPECT_TRUE(bit_identical(server.infer("a", images[0]), ref_a));
  EXPECT_TRUE(bit_identical(server.infer("b", images[0]), ref_b));
  EXPECT_FALSE(bit_identical(ref_a, ref_b));
  EXPECT_THROW(server.infer("missing", images[0]), Error);
  EXPECT_THROW(
      server.register_model("a", nullptr), Error);
}

TEST(Batcher, OptionsAreValidatedAtConstruction) {
  auto model = make_scc_model(75);
  CompiledModel compiled(std::move(model), Shape{3, kImage, kImage},
                         {.max_batch = 2});
  using shard::DeadlineBatcher;
  EXPECT_THROW(DeadlineBatcher(compiled, {.max_batch = -1}),
               std::invalid_argument);
  EXPECT_THROW(
      DeadlineBatcher(compiled, {.max_delay = std::chrono::microseconds(-1)}),
      std::invalid_argument);
  EXPECT_THROW(DeadlineBatcher(compiled, {.queue_capacity = -3}),
               std::invalid_argument);
  InferenceServer server;
  EXPECT_THROW(server.register_model("m", compiled.clone_replica(),
                                     {.replicas = 0}),
               std::invalid_argument);
  // max_batch = 0 remains the documented "use the model's max_batch".
  DeadlineBatcher ok(compiled, {.max_batch = 0});
  ok.stop();
}

TEST(Batcher, BoundedQueueRejectsWhenFull) {
  auto model = make_scc_model(76);
  CompiledModel compiled(std::move(model), Shape{3, kImage, kImage},
                         {.max_batch = 2});
  // Four instant submissions against capacity 2. A free worker dispatches
  // at once, so whether any is rejected depends on how far it races ahead.
  shard::DeadlineBatcher batcher(
      compiled, {.max_batch = 2,
                 .max_delay = std::chrono::microseconds(200000),
                 .queue_capacity = 2});
  const auto images = make_images(4, 77);
  std::vector<std::future<Tensor>> futures;
  int rejected = 0;
  for (const Tensor& img : images) {
    try {
      futures.push_back(batcher.submit(img));
    } catch (const QueueFull&) {
      ++rejected;
    }
  }
  // The worker may have already drained early submissions, so rejection is
  // load-dependent - but capacity 2 with 4 instant submissions must reject
  // at least one on this single-batch-in-flight setup... unless the worker
  // raced ahead; accept either, but every accepted request must answer.
  batcher.stop();
  for (auto& f : futures) EXPECT_EQ(f.get().numel(), kClasses);
  EXPECT_EQ(batcher.stats().batcher.requests,
            static_cast<int64_t>(futures.size()));
  (void)rejected;
}

TEST(Batcher, DeadlineAwareSubmitShedsWithVisibleCounters) {
  // A plain submit is FIFO; the deadline-aware one gets real shedding with
  // visible counters.
  auto model = make_scc_model(74);
  CompiledModel compiled(std::move(model), Shape{3, kImage, kImage},
                         {.max_batch = 2});
  shard::DeadlineBatcher batcher(compiled);
  const auto images = make_images(2, 73);
  auto doomed = batcher.submit(
      images[0],
      {.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1)});
  EXPECT_THROW(doomed.get(), DeadlineExceeded);
  EXPECT_EQ(batcher.infer(images[1]).numel(), kClasses);
  EXPECT_EQ(batcher.stats().shed, 1);
  EXPECT_EQ(batcher.stats().batcher.requests, 1);  // sheds never hit a batch
}

TEST(InferenceServer, StopSubmitRaceAnswersOrRejectsEveryRequest) {
  constexpr int kClients = 6;
  constexpr int kPerClient = 40;
  auto model = make_scc_model(78);
  auto compiled = std::make_unique<CompiledModel>(
      std::move(model), Shape{3, kImage, kImage},
      CompileOptions{.max_batch = 4});
  const auto images = make_images(4, 79);

  InferenceServer server;
  server.register_model("scc", std::move(compiled),
                        {.max_batch = 4,
                         .max_delay = std::chrono::microseconds(200)});

  // One request answered deterministically before the race begins, so the
  // answered > 0 assertion below cannot flake on a loaded host.
  ASSERT_EQ(server.infer("scc", images[0]).numel(), kClasses);

  // N threads submit while the main thread stops the server mid-stream.
  // Contract: every submit() either returns a future that IS answered
  // (stop drains the queue) or throws the stopped error - no hangs, no
  // dropped promises.
  std::atomic<int> answered{1};  // the warm-up request above
  std::atomic<int> rejected{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int k = 0; k < kPerClient; ++k) {
        try {
          Tensor y =
              server.infer("scc", images[static_cast<size_t>(t + k) % 4]);
          if (y.numel() == kClasses) answered.fetch_add(1);
        } catch (const Error&) {
          rejected.fetch_add(1);
        }
      }
    });
  }
  // Let some traffic through, then slam the door.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.stop();
  for (auto& c : clients) c.join();
  EXPECT_EQ(answered.load() + rejected.load(), kClients * kPerClient + 1);
  EXPECT_GT(answered.load(), 0);
  // Every drained request is accounted in the stats exactly once.
  EXPECT_EQ(server.stats("scc").batcher.requests, answered.load());
}

// ---- LatencyStats ----------------------------------------------------------

TEST(LatencyStats, PercentilesTrackRecordedDistribution) {
  device::LatencyStats stats;
  // 90 fast requests at ~1ms, a 10% tail at ~100ms: p50 stays fast, the
  // nearest-rank p99 lands in the tail.
  for (int i = 0; i < 90; ++i) stats.record_ns(1'000'000);
  for (int i = 0; i < 10; ++i) stats.record_ns(100'000'000);
  const auto snap = stats.snapshot();
  EXPECT_EQ(snap.count, 100);
  EXPECT_NEAR(snap.p50_ms, 1.0, 0.1);
  EXPECT_GT(snap.p99_ms, 50.0);
  EXPECT_NEAR(snap.min_ms, 1.0, 0.1);
  EXPECT_NEAR(snap.max_ms, 100.0, 1.0);
  EXPECT_GT(snap.mean_ms, snap.p50_ms);
  stats.reset();
  EXPECT_EQ(stats.snapshot().count, 0);
}

}  // namespace
}  // namespace dsx::serve
