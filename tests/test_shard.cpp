// Tests for dsx::shard (src/shard): replica cloning must be bit-identical,
// sharded serving must reproduce per-image eval-mode forward on every
// replica, the DeadlineBatcher must form batches earliest-deadline-first,
// shed expired requests with DeadlineExceeded, and reject on a full bounded
// queue, and a multi-threaded stress run across replicas must answer every
// request exactly once.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "device/thread_pool.hpp"
#include "nn/bn_folding.hpp"
#include "nn/containers.hpp"
#include "nn/layers_basic.hpp"
#include "nn/layers_conv.hpp"
#include "nn/layers_mix.hpp"
#include "nn/sgd.hpp"
#include "nn/trainer.hpp"
#include "obs/metrics.hpp"
#include "quant/quant_layers.hpp"
#include "serve/server.hpp"
#include "shard/shard.hpp"
#include "tensor/random.hpp"
#include "tune/tune.hpp"
#include "testing_utils.hpp"

namespace dsx::shard {
namespace {

using namespace std::chrono_literals;

constexpr int64_t kImage = 8;
constexpr int64_t kClasses = 10;

/// Small conv -> DW -> SCC classifier with three foldable BN pairs (the
/// test_serve model, so the sharded tier is exercised on the same plan
/// shape the single-batcher tier pins).
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

void warm_up(nn::Sequential& model, uint64_t seed) {
  Rng rng(seed);
  nn::SGD opt({.lr = 0.01f, .momentum = 0.9f, .weight_decay = 0.0f});
  nn::Trainer trainer(model, opt);
  for (int step = 0; step < 3; ++step) {
    Tensor x =
        random_uniform(make_nchw(8, 3, kImage, kImage), rng, -2.0f, 3.0f);
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

using testing::bit_identical;

std::unique_ptr<serve::CompiledModel> make_compiled(uint64_t seed,
                                                    int64_t max_batch = 4) {
  auto model = make_scc_model(seed);
  warm_up(*model, seed + 1);
  return std::make_unique<serve::CompiledModel>(
      std::move(model), Shape{3, kImage, kImage},
      serve::CompileOptions{.max_batch = max_batch});
}

// ---- Layer::clone / CompiledModel::clone_replica ---------------------------

TEST(ReplicaClone, ClonedModelForwardBitIdentical) {
  auto model = make_scc_model(11);
  warm_up(*model, 12);
  auto clone = model->clone_sequential();
  const auto images = make_images(3, 13);
  for (const Tensor& img : images) {
    EXPECT_TRUE(bit_identical(model->forward(img, false),
                              clone->forward(img, false)));
  }
  // Independence: nudging the original's weights must not move the clone.
  for (nn::Param* p : model->params()) {
    for (int64_t i = 0; i < p->value.numel(); ++i) p->value[i] += 1.0f;
  }
  auto clone2 = clone->clone_sequential();
  for (const Tensor& img : images) {
    EXPECT_FALSE(bit_identical(model->forward(img, false),
                               clone->forward(img, false)));
    EXPECT_TRUE(bit_identical(clone2->forward(img, false),
                              clone->forward(img, false)));
  }
}

TEST(ReplicaClone, HeterogeneousLayerZooClonesBitIdentical) {
  // Covers the clone paths the conv/BN/linear model misses: Residual
  // (recursive main/shortcut clone), MaxPool2d, ShiftConv2d (drawn shift
  // pattern must be preserved), ChannelShuffle and Dropout.
  Rng rng(15);
  auto model = std::make_unique<nn::Sequential>();
  model->emplace<nn::Conv2d>(3, 8, 3, 1, 1, 1, rng);
  auto res_main = std::make_unique<nn::Sequential>();
  res_main->emplace<nn::Conv2d>(8, 8, 3, 1, 1, 1, rng);
  res_main->emplace<nn::ReLU>();
  model->emplace<nn::Residual>(std::move(res_main), nullptr);
  model->emplace<nn::MaxPool2d>(2, 2);
  model->emplace<nn::ShiftConv2d>(8, 3);
  model->emplace<nn::ChannelShuffle>(2);
  model->emplace<nn::Dropout>(0.3f, /*seed=*/9);
  model->emplace<nn::GlobalAvgPool>();
  model->emplace<nn::Flatten>();
  model->emplace<nn::Linear>(8, 4, rng);

  auto clone = model->clone_sequential();
  const auto images = make_images(3, 16);
  for (const Tensor& img : images) {
    Tensor a = model->forward(img, false);
    Tensor b = clone->forward(img, false);
    EXPECT_TRUE(bit_identical(a, b));
  }
}

TEST(ReplicaClone, QuantizedModelReplicatesBitIdentical) {
  // QuantSCCConv::clone does a manual fix-up (deep bias copy, fresh int8
  // scratch); exercise it end to end through CompiledModel::clone_replica.
  auto model = make_scc_model(17);
  warm_up(*model, 18);
  ASSERT_EQ(nn::fold_batchnorm(*model), 3);
  Rng rng(19);
  Tensor calibration =
      random_uniform(make_nchw(8, 3, kImage, kImage), rng, -1.0f, 1.0f);
  ASSERT_EQ(quant::quantize_scc_layers(*model, calibration).layers_quantized,
            1);
  auto prototype = std::make_unique<serve::CompiledModel>(
      std::move(model), Shape{3, kImage, kImage},
      serve::CompileOptions{.max_batch = 2});
  auto replica = prototype->clone_replica();
  Rng img_rng(20);
  Tensor batch = random_uniform(prototype->input_shape(2), img_rng);
  // Interleave runs so a shared int8 scratch between the two would corrupt.
  Tensor a1 = prototype->run(batch);
  Tensor b1 = replica->run(batch);
  Tensor a2 = prototype->run(batch);
  EXPECT_TRUE(bit_identical(a1, b1));
  EXPECT_TRUE(bit_identical(a1, a2));
}

TEST(ReplicaClone, CompiledReplicaBitIdenticalAndIndependent) {
  auto prototype = make_compiled(21);
  auto replica = prototype->clone_replica();
  EXPECT_EQ(replica->report().steps, prototype->report().steps);
  const auto images = make_images(4, 23);
  Tensor batch(prototype->input_shape(4));
  const int64_t floats = Shape{3, kImage, kImage}.numel();
  for (int64_t i = 0; i < 4; ++i) {
    std::memcpy(batch.data() + i * floats,
                images[static_cast<size_t>(i)].data(),
                static_cast<size_t>(floats) * sizeof(float));
  }
  EXPECT_TRUE(bit_identical(prototype->run(batch), replica->run(batch)));
}

TEST(ReplicaClone, TunedPlanSharedThroughCacheWithoutRemeasuring) {
  auto model = make_scc_model(31);
  serve::CompileOptions copts;
  copts.max_batch = 2;
  copts.tuning = tune::Mode::kTune;
  copts.tuner = {.warmup = 0, .iters = 1};
  auto prototype = std::make_unique<serve::CompiledModel>(
      std::move(model), Shape{3, kImage, kImage}, copts);
  EXPECT_GT(prototype->report().layers_tuned, 0);

  const int64_t tunes_before = tune::Session::global().tunes_performed();
  auto replica = prototype->clone_replica();
  // The clone compiles in kCached against the session cache the prototype
  // populated: same resolved call sites, zero new measurements.
  EXPECT_EQ(tune::Session::global().tunes_performed(), tunes_before);
  EXPECT_EQ(replica->report().layers_tuned,
            prototype->report().layers_tuned);
  EXPECT_EQ(replica->options().tuning, tune::Mode::kCached);

  Rng rng(33);
  Tensor x = random_uniform(prototype->input_shape(2), rng);
  EXPECT_TRUE(bit_identical(prototype->run(x), replica->run(x)));
}

// ---- DeadlineBatcher -------------------------------------------------------

TEST(DeadlineBatcher, EdfOrderingGovernsBatchFormation) {
  auto compiled = make_compiled(41);
  DeadlineBatcher batcher(*compiled,
                          {.max_batch = 2, .manual_drain = true});
  const auto images = make_images(4, 42);
  const auto now = std::chrono::steady_clock::now();
  // Submission order is the REVERSE of deadline order.
  auto f0 = batcher.submit(images[0], {.deadline = now + 4000ms});
  auto f1 = batcher.submit(images[1], {.deadline = now + 3000ms});
  auto f2 = batcher.submit(images[2], {.deadline = now + 2000ms});
  auto f3 = batcher.submit(images[3], {.deadline = now + 1000ms});

  EXPECT_EQ(batcher.drain_one(), 2u);  // must take the two earliest deadlines
  EXPECT_EQ(f3.wait_for(0ms), std::future_status::ready);
  EXPECT_EQ(f2.wait_for(0ms), std::future_status::ready);
  EXPECT_EQ(f1.wait_for(0ms), std::future_status::timeout);
  EXPECT_EQ(f0.wait_for(0ms), std::future_status::timeout);

  EXPECT_EQ(batcher.drain_one(), 2u);
  EXPECT_EQ(f1.wait_for(0ms), std::future_status::ready);
  EXPECT_EQ(f0.wait_for(0ms), std::future_status::ready);
  EXPECT_EQ(batcher.stats().batcher.requests, 4);
}

TEST(DeadlineBatcher, PriorityBreaksDeadlineTies) {
  auto compiled = make_compiled(51);
  DeadlineBatcher batcher(*compiled,
                          {.max_batch = 1, .manual_drain = true});
  const auto images = make_images(2, 52);
  auto bulk = batcher.submit(images[0], {.priority = serve::Priority::kBulk});
  auto inter =
      batcher.submit(images[1], {.priority = serve::Priority::kInteractive});
  EXPECT_EQ(batcher.drain_one(), 1u);
  EXPECT_EQ(inter.wait_for(0ms), std::future_status::ready);
  EXPECT_EQ(bulk.wait_for(0ms), std::future_status::timeout);
  batcher.stop();  // drains the bulk request
  EXPECT_EQ(bulk.wait_for(0ms), std::future_status::ready);
  EXPECT_EQ(bulk.get().numel(), kClasses);
}

TEST(DeadlineBatcher, ExpiredRequestsAreShedWithDeadlineExceeded) {
  auto compiled = make_compiled(61);
  DeadlineBatcher batcher(*compiled,
                          {.max_batch = 4, .manual_drain = true});
  const auto images = make_images(2, 62);
  auto doomed = batcher.submit(
      images[0], {.deadline = std::chrono::steady_clock::now() + 1ms});
  auto fine = batcher.submit(images[1]);
  std::this_thread::sleep_for(10ms);

  EXPECT_EQ(batcher.drain_one(), 1u);  // only the live request executes
  EXPECT_THROW(doomed.get(), serve::DeadlineExceeded);
  EXPECT_EQ(fine.get().numel(), kClasses);
  const DeadlineBatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.batcher.requests, 1);  // shed requests never hit a batch
}

TEST(DeadlineBatcher, TightDeadlineOnIdleWorkerIsExecutedNotShed) {
  // Regression: a worker that held a batch until exactly the front
  // request's deadline shed every request whose budget was shorter than
  // max_delay, even on an idle server. A free worker dispatches at once,
  // so a tight budget is executed, never shed.
  auto compiled = make_compiled(65);
  DeadlineBatcher batcher(
      *compiled,
      {.max_batch = 4, .max_delay = std::chrono::microseconds(2'000'000)});
  const auto images = make_images(1, 66);
  auto f = batcher.submit(images[0], within(200ms));
  EXPECT_EQ(f.get().numel(), kClasses);  // answered, not DeadlineExceeded
  const DeadlineBatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(stats.batcher.requests, 1);
  // The batch formed long before max_delay.
  EXPECT_LT(stats.batcher.latency.max_ms, 1000.0);
}

TEST(DeadlineBatcher, TighterDeadlineArrivingMidWaitTightensTheCutoff) {
  // Regression: a worker holding a batch on a cutoff computed before it
  // slept let a tighter-deadline request arriving mid-wait sleep behind the
  // stale cutoff and be shed. No request may wait on a no-deadline
  // request's max_delay: a free worker dispatches each one at once.
  auto compiled = make_compiled(64);
  DeadlineBatcher batcher(
      *compiled,
      {.max_batch = 4, .max_delay = std::chrono::microseconds(2'000'000)});
  const auto images = make_images(2, 63);
  // A no-deadline request with a ~2s max_delay...
  auto slow = batcher.submit(images[0]);
  std::this_thread::sleep_for(20ms);
  // ...then a 200ms-budget request must execute within its budget.
  auto tight = batcher.submit(images[1], within(200ms));
  EXPECT_EQ(tight.get().numel(), kClasses);
  EXPECT_EQ(slow.get().numel(), kClasses);
  EXPECT_EQ(batcher.stats().shed, 0);
  EXPECT_LT(batcher.stats().batcher.latency.max_ms, 1500.0);
}

TEST(DeadlineBatcher, DeadOnArrivalIsShedAtSubmit) {
  auto compiled = make_compiled(71);
  DeadlineBatcher batcher(*compiled,
                          {.max_batch = 2, .manual_drain = true});
  const auto images = make_images(1, 72);
  auto f = batcher.submit(
      images[0], {.deadline = std::chrono::steady_clock::now() - 1ms});
  EXPECT_THROW(f.get(), serve::DeadlineExceeded);
  EXPECT_EQ(batcher.stats().shed, 1);
  EXPECT_EQ(batcher.stats().queue_depth, 0);
  // A stopped batcher throws for EVERY submission - dead-on-arrival
  // requests included; it does not keep shedding after shutdown.
  batcher.stop();
  EXPECT_THROW(batcher.submit(images[0],
                              {.deadline = std::chrono::steady_clock::now() -
                                           1ms}),
               Error);
  EXPECT_EQ(batcher.stats().shed, 1);
}

TEST(DeadlineBatcher, AgedNoDeadlineRequestCannotBeStarvedByDeadlineTraffic) {
  // EDF alone would starve a no-deadline request behind sustained deadline
  // traffic (kNoDeadline sorts last). Once the request has waited past
  // max_delay, batch formation must force it into the next full batch.
  auto compiled = make_compiled(67);
  DeadlineBatcher batcher(*compiled, {.max_batch = 2,
                                      .max_delay = std::chrono::microseconds(1000),
                                      .manual_drain = true});
  const auto images = make_images(6, 68);
  auto starved = batcher.submit(images[0]);  // no deadline
  std::this_thread::sleep_for(5ms);          // exhaust its max_delay budget
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::future<Tensor>> urgent;
  for (int i = 1; i < 6; ++i) {
    // All EDF-ahead of the no-deadline request.
    urgent.push_back(batcher.submit(
        images[static_cast<size_t>(i)],
        {.deadline = now + std::chrono::seconds(10 + i)}));
  }
  EXPECT_EQ(batcher.drain_one(), 2u);
  // The aged request rode along with the most urgent one.
  EXPECT_EQ(starved.wait_for(0ms), std::future_status::ready);
  EXPECT_EQ(urgent[0].wait_for(0ms), std::future_status::ready);
  EXPECT_EQ(urgent[1].wait_for(0ms), std::future_status::timeout);
  batcher.stop();
  for (auto& f : urgent) EXPECT_EQ(f.get().numel(), kClasses);
}

TEST(DeadlineBatcher, ExpiredEntriesDoNotHoldBoundedQueueCapacity) {
  auto compiled = make_compiled(69);
  DeadlineBatcher batcher(
      *compiled, {.max_batch = 2, .queue_capacity = 2, .manual_drain = true});
  const auto images = make_images(3, 70);
  // Fill the queue with requests that expire while waiting. The budget must
  // comfortably outlast the submit() calls themselves: a request whose
  // deadline passes DURING submit is shed dead-on-arrival and never queued,
  // which breaks this test's premise (both capacity slots held by expired
  // entries) - on a slow or contended host a 1us budget did exactly that,
  // and the later d0/d1.get() then waited forever on a request only the
  // never-reached third submit would have answered.
  auto d0 = batcher.submit(images[0], within(std::chrono::milliseconds(100)));
  auto d1 = batcher.submit(images[1], within(std::chrono::milliseconds(100)));
  ASSERT_EQ(batcher.stats().queue_depth, 2);  // both queued alive
  std::this_thread::sleep_for(150ms);         // ...and now both expired
  // Queue is "full" of dead entries - a live request must still be
  // admitted, shedding them instead of throwing QueueFull.
  auto live = batcher.submit(images[2]);
  EXPECT_THROW(d0.get(), serve::DeadlineExceeded);
  EXPECT_THROW(d1.get(), serve::DeadlineExceeded);
  EXPECT_EQ(batcher.stats().rejected, 0);
  EXPECT_EQ(batcher.stats().shed, 2);
  EXPECT_EQ(batcher.drain_one(), 1u);
  EXPECT_EQ(live.get().numel(), kClasses);
}

TEST(DeadlineBatcher, BoundedQueueRejectsWithQueueFull) {
  auto compiled = make_compiled(81);
  DeadlineBatcher batcher(
      *compiled, {.max_batch = 2, .queue_capacity = 2, .manual_drain = true});
  const auto images = make_images(3, 82);
  auto f0 = batcher.submit(images[0]);
  auto f1 = batcher.submit(images[1]);
  EXPECT_THROW(batcher.submit(images[2]), serve::QueueFull);
  EXPECT_EQ(batcher.stats().rejected, 1);
  EXPECT_EQ(batcher.stats().queue_depth, 2);
  EXPECT_EQ(batcher.drain_one(), 2u);
  // Capacity freed: admission works again.
  auto f2 = batcher.submit(images[2]);
  EXPECT_EQ(batcher.drain_one(), 1u);
  EXPECT_EQ(f0.get().numel(), kClasses);
  EXPECT_EQ(f1.get().numel(), kClasses);
  EXPECT_EQ(f2.get().numel(), kClasses);
}

TEST(DeadlineBatcher, RescopeUnderLiveTrafficLosesNoObservation) {
  // A promoted rollout candidate is renamed while it serves: submitters and
  // the worker keep observing while rescope() moves the series. Every
  // answered request lands in exactly one of the two scopes.
  auto compiled = make_compiled(97);
  DeadlineBatcher batcher(*compiled,
                          {.max_batch = 4, .metric_model = "rescope-from"});
  const auto answered = [](const char* model) {
    return obs::Registry::global().sum_counter("dsx_serve_requests_total",
                                               {{"model", model}});
  };
  const int64_t from0 = answered("rescope-from");
  const int64_t to0 = answered("rescope-to");
  const auto images = make_images(2, 98);
  constexpr int kThreads = 3;
  constexpr int kPerThread = 40;
  std::atomic<int> done{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        (void)batcher.infer(images[static_cast<size_t>((t + i) % 2)]);
        done.fetch_add(1);
      }
    });
  }
  // Rescope mid-stream: each client still has most of its requests to go.
  while (done.load() < kThreads) std::this_thread::yield();
  batcher.rescope("rescope-to", -1);
  for (std::thread& c : clients) c.join();
  batcher.stop();
  EXPECT_EQ(answered("rescope-from") - from0 + answered("rescope-to") - to0,
            kThreads * kPerThread);
  EXPECT_GT(answered("rescope-to") - to0, 0);
}

TEST(DeadlineBatcher, OptionsValidation) {
  auto compiled = make_compiled(91);
  EXPECT_THROW(DeadlineBatcher(*compiled, {.max_batch = -1}),
               std::invalid_argument);
  EXPECT_THROW(
      DeadlineBatcher(*compiled,
                      {.max_delay = std::chrono::microseconds(-5)}),
      std::invalid_argument);
  EXPECT_THROW(DeadlineBatcher(*compiled, {.queue_capacity = -2}),
               std::invalid_argument);
}

// ---- DeadlineBatcher: work-conserving dispatch ------------------------------

/// Test-side gate in front of a model: forward blocks while the test holds
/// `mu`, then records the batch it was given (rows in batch order).
struct Gate {
  std::mutex mu;
  std::mutex seen_mu;
  std::vector<Tensor> seen;
};

class GateLayer : public nn::Layer {
 public:
  explicit GateLayer(std::shared_ptr<Gate> gate) : gate_(std::move(gate)) {}
  Tensor forward(const Tensor& input, bool /*training*/) override {
    { const std::lock_guard<std::mutex> pass(gate_->mu); }
    const std::lock_guard<std::mutex> lock(gate_->seen_mu);
    gate_->seen.push_back(input.clone());
    return input;
  }
  Tensor backward(const Tensor& doutput) override { return doutput; }
  std::unique_ptr<nn::Layer> clone() const override {
    return std::make_unique<GateLayer>(gate_);
  }
  Shape output_shape(const Shape& input) const override { return input; }
  std::string name() const override { return "Gate"; }

 private:
  std::shared_ptr<Gate> gate_;
};

/// make_compiled's plan behind a GateLayer; `gate->seen` starts empty.
std::unique_ptr<serve::CompiledModel> make_gated(uint64_t seed,
                                                 std::shared_ptr<Gate> gate) {
  auto model = std::make_unique<nn::Sequential>();
  model->emplace<GateLayer>(gate);
  auto body = make_scc_model(seed);
  for (size_t i = 0; i < body->size(); ++i) {
    model->add(body->layer(i).clone());
  }
  auto compiled = std::make_unique<serve::CompiledModel>(
      std::move(model), Shape{3, kImage, kImage},
      serve::CompileOptions{.max_batch = 4});
  gate->seen.clear();  // compile-time dry runs
  return compiled;
}

TEST(DeadlineBatcher, LoneRequestOnIdleWorkerIsDispatchedWithoutHold) {
  // A free worker batches whatever is queued at once: max_delay is the
  // anti-starvation age, not a hold, so a lone request never waits for a
  // batch that would not fill.
  auto compiled = make_compiled(201);
  DeadlineBatcher batcher(
      *compiled,
      {.max_batch = 4, .max_delay = std::chrono::microseconds(2'000'000)});
  const auto images = make_images(1, 202);
  const auto t0 = std::chrono::steady_clock::now();
  auto f = batcher.submit(images[0]);
  ASSERT_EQ(f.wait_for(10s), std::future_status::ready);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 1s);
  EXPECT_EQ(f.get().numel(), kClasses);
  const DeadlineBatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.batcher.batches, 1);
  EXPECT_EQ(stats.batcher.requests, 1);
}

TEST(DeadlineBatcher, ArrivalsDuringABatchLeaveTogetherInEdfOrder) {
  auto gate = std::make_shared<Gate>();
  auto compiled = make_gated(211, gate);
  DeadlineBatcher batcher(*compiled, {.max_batch = 4});
  const auto images = make_images(4, 212);

  std::unique_lock<std::mutex> closed(gate->mu);
  auto first = batcher.submit(images[0]);
  // The worker takes the lone request at once and blocks in the gate.
  const auto give_up = std::chrono::steady_clock::now() + 10s;
  while (batcher.stats().queue_depth != 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(batcher.stats().queue_depth, 0);
  // Three arrivals while that batch executes, in reverse deadline order.
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::future<Tensor>> later;
  for (int i = 1; i <= 3; ++i) {
    later.push_back(batcher.submit(images[static_cast<size_t>(i)],
                                   {.deadline = now + std::chrono::seconds(
                                                          30 - i)}));
  }
  EXPECT_EQ(batcher.stats().queue_depth, 3);
  closed.unlock();

  EXPECT_EQ(first.get().numel(), kClasses);
  for (auto& f : later) EXPECT_EQ(f.get().numel(), kClasses);
  EXPECT_EQ(batcher.stats().batcher.batches, 2);
  const std::lock_guard<std::mutex> lock(gate->seen_mu);
  ASSERT_EQ(gate->seen.size(), 2u);
  const Tensor& batch = gate->seen[1];
  ASSERT_EQ(batch.shape()[0], 3);
  // EDF order: the last submitted has the earliest deadline.
  const int64_t floats = images[0].numel();
  for (int64_t row = 0; row < 3; ++row) {
    const Tensor& expect = images[static_cast<size_t>(3 - row)];
    EXPECT_EQ(std::memcmp(batch.data() + row * floats, expect.data(),
                          static_cast<size_t>(floats) * sizeof(float)),
              0)
        << "row " << row;
  }
}

// ---- Router ----------------------------------------------------------------

TEST(Router, RoundRobinCyclesAllReplicas) {
  Router router(RoutingPolicy::kRoundRobin, /*seed=*/0);
  const std::vector<int64_t> load{5, 0, 3};
  std::vector<int> hits(3, 0);
  for (int i = 0; i < 9; ++i) ++hits[static_cast<size_t>(router.pick(load))];
  EXPECT_EQ(hits, (std::vector<int>{3, 3, 3}));
}

TEST(Router, LeastOutstandingPicksArgmin) {
  Router router(RoutingPolicy::kLeastOutstanding);
  EXPECT_EQ(router.pick(std::vector<int64_t>{4, 1, 2}), 1);
  EXPECT_EQ(router.pick(std::vector<int64_t>{0, 0, 2}), 0);  // first min
  EXPECT_EQ(router.pick(std::vector<int64_t>{7}), 0);
}

TEST(Router, PowerOfTwoPrefersLessLoadedOfItsSamples) {
  Router router(RoutingPolicy::kPowerOfTwo);
  // One replica massively loaded: po2 must route the clear majority away
  // from it (it only lands there when BOTH samples hit it, p = 1/R^2).
  const std::vector<int64_t> load{1000, 0, 0, 0};
  int overloaded = 0;
  const int picks = 400;
  for (int i = 0; i < picks; ++i) {
    const int r = router.pick(load);
    ASSERT_GE(r, 0);
    ASSERT_LT(r, 4);
    if (r == 0) ++overloaded;
  }
  EXPECT_LT(overloaded, picks / 8);  // expectation is picks/16
}

TEST(Router, PolicyNamesRoundTrip) {
  for (RoutingPolicy p :
       {RoutingPolicy::kRoundRobin, RoutingPolicy::kLeastOutstanding,
        RoutingPolicy::kPowerOfTwo}) {
    EXPECT_EQ(parse_routing_policy(routing_policy_name(p)), p);
  }
  EXPECT_THROW(parse_routing_policy("random"), Error);
}

// ---- ReplicaSet ------------------------------------------------------------

TEST(ReplicaSet, EveryReplicaBitIdenticalToPerImageEval) {
  ReplicaSet set(make_compiled(101), {.replicas = 3});
  ASSERT_EQ(set.replicas(), 3);
  const auto images = make_images(4, 102);
  // References from replica 0's own per-image eval forward.
  std::vector<Tensor> refs;
  for (const Tensor& img : images) {
    refs.push_back(set.replica_model(0).model().forward(img, false));
  }
  // Route requests to EVERY replica explicitly: any replica must answer
  // bit-identically (the batched outputs vs per-image eval invariant,
  // extended across the fleet).
  for (int r = 0; r < set.replicas(); ++r) {
    for (size_t i = 0; i < images.size(); ++i) {
      Tensor y = set.replica_batcher(r).infer(images[i]);
      EXPECT_TRUE(bit_identical(y, refs[i]))
          << "replica " << r << ", image " << i;
    }
  }
}

TEST(ReplicaSet, LanePartitioningAndStats) {
  ReplicaSet set(make_compiled(111), {.replicas = 2, .lane_threads = 1});
  const auto images = make_images(2, 112);
  (void)set.infer(images[0]);
  (void)set.infer(images[1]);
  const ShardStats stats = set.stats();
  EXPECT_EQ(stats.replicas, 2);
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.latency.count, 2);
  ASSERT_EQ(stats.per_replica.size(), 2u);
  for (const ReplicaStats& rs : stats.per_replica) {
    EXPECT_EQ(rs.lane_threads, 1u);
  }
  EXPECT_THROW(ReplicaSet(make_compiled(113), {.replicas = 0}),
               std::invalid_argument);
}

TEST(ReplicaSet, MultiThreadedStressAcrossReplicas) {
  constexpr int kClients = 6;
  constexpr int kPerClient = 8;
  auto prototype = make_compiled(121);
  const auto images = make_images(8, 122);
  std::vector<Tensor> refs;
  for (const Tensor& img : images) {
    refs.push_back(prototype->model().forward(img, false));
  }
  ReplicaSet set(std::move(prototype),
                 {.max_batch = 4,
                  .max_delay = std::chrono::microseconds(500),
                  .replicas = 2,
                  .policy = RoutingPolicy::kLeastOutstanding});

  std::atomic<int> answered{0};
  std::atomic<int> mismatched{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int k = 0; k < kPerClient; ++k) {
        const size_t j =
            static_cast<size_t>((t * kPerClient + k) % images.size());
        Tensor y = set.infer(images[j]);
        if (!bit_identical(y, refs[j])) mismatched.fetch_add(1);
        answered.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();

  EXPECT_EQ(answered.load(), kClients * kPerClient);
  EXPECT_EQ(mismatched.load(), 0);
  const ShardStats stats = set.stats();
  EXPECT_EQ(stats.requests, kClients * kPerClient);
  EXPECT_EQ(stats.latency.count, kClients * kPerClient);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(stats.rejected, 0);
}

TEST(ReplicaSet, SingleReplicaRunsOnTheCurrentPoolUnderUnlabeledSeries) {
  // R = 1 is the path every unsharded model takes: no private lane - the
  // batcher runs on the constructing thread's current pool - and the
  // single-batcher series, {model} with no replica label and no routing
  // counter.
  device::ThreadPool bound(3);
  const device::PoolScope scope(bound);
  ReplicaSet set(make_compiled(161), {.metric_model = "r1-probe"});
  const auto images = make_images(1, 162);
  EXPECT_TRUE(bit_identical(set.infer(images[0]),
                            set.replica_model(0).model().forward(images[0],
                                                                 false)));
  const ShardStats stats = set.stats();
  ASSERT_EQ(stats.replicas, 1);
  EXPECT_EQ(stats.per_replica.front().lane_threads, bound.size());
  EXPECT_EQ(stats.latency.count, 1);
  for (const auto& pool : device::ThreadPool::pool_stats()) {
    EXPECT_EQ(pool.name.rfind("r1-probe", 0), std::string::npos) << pool.name;
  }
  const std::string text = obs::Registry::global().prometheus_text();
  EXPECT_NE(text.find("dsx_serve_requests_total{model=\"r1-probe\"} "),
            std::string::npos);
  EXPECT_EQ(text.find("model=\"r1-probe\","), std::string::npos);
  EXPECT_EQ(text.find("dsx_shard_routed_total{model=\"r1-probe\""),
            std::string::npos);
}

TEST(ReplicaSet, StopDrainsAndRejectsNewWork) {
  ReplicaSet set(make_compiled(131),
                 {.max_batch = 2,
                  .max_delay = std::chrono::microseconds(50000),
                  .replicas = 2});
  const auto images = make_images(5, 132);
  std::vector<std::future<Tensor>> futures;
  for (const Tensor& img : images) futures.push_back(set.submit(img));
  set.stop();  // must answer all five before joining
  for (auto& f : futures) EXPECT_EQ(f.get().numel(), kClasses);
  EXPECT_THROW(set.submit(images[0]), Error);
}

// ---- InferenceServer integration -------------------------------------------

TEST(ShardedServer, OneFieldRegistrationServesBitIdentical) {
  auto compiled = make_compiled(141);
  const auto images = make_images(6, 142);
  std::vector<Tensor> refs;
  for (const Tensor& img : images) {
    refs.push_back(compiled->model().forward(img, false));
  }
  serve::InferenceServer server;
  // Existing callers shard by changing one field.
  server.register_model("scc", std::move(compiled),
                        {.max_batch = 4,
                         .max_delay = std::chrono::microseconds(500),
                         .replicas = 2});
  constexpr int kClients = 4;
  std::atomic<int> mismatched{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int k = 0; k < 6; ++k) {
        const size_t j = static_cast<size_t>((t + k) % images.size());
        Tensor y = server.infer("scc", images[j]);
        if (!bit_identical(y, refs[j])) mismatched.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(mismatched.load(), 0);

  const serve::ModelStats stats = server.stats("scc");
  ASSERT_TRUE(stats.shard.has_value());
  EXPECT_EQ(stats.shard->replicas, 2);
  EXPECT_EQ(stats.shard->requests, kClients * 6);
  EXPECT_EQ(stats.shard->per_replica.size(), 2u);
}

TEST(ShardedServer, DeadlineSubmitOnShardedAndPlainModels) {
  serve::InferenceServer server;
  server.register_model("sharded", make_compiled(151),
                        {.replicas = 2, .policy = RoutingPolicy::kRoundRobin});
  server.register_model("plain", make_compiled(152));
  const auto images = make_images(1, 153);

  // Generous deadline: answered normally on both paths.
  shard::SubmitOptions fine = within(std::chrono::microseconds(5'000'000));
  EXPECT_EQ(server.submit("sharded", images[0], fine).get().numel(), kClasses);
  EXPECT_EQ(server.submit("plain", images[0], fine).get().numel(), kClasses);

  // Already-expired deadline: shed on both paths.
  shard::SubmitOptions doomed;
  doomed.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  EXPECT_THROW(server.submit("sharded", images[0], doomed).get(),
               serve::DeadlineExceeded);
  EXPECT_THROW(server.submit("plain", images[0], doomed).get(),
               serve::DeadlineExceeded);
}

}  // namespace
}  // namespace dsx::shard
