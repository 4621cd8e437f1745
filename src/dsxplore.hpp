// Umbrella header: the whole DSXplore public API.
//
// Fine-grained headers remain available for faster builds; this is the
// convenience include for applications.
#pragma once

#include "common/check.hpp"

// Tensors and storage.
#include "tensor/alloc_tracker.hpp"
#include "tensor/random.hpp"
#include "tensor/serialize.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_ops.hpp"
#include "tensor/workspace.hpp"

// Execution substrate.
#include "device/atomic_stats.hpp"
#include "device/device_group.hpp"
#include "device/launch.hpp"
#include "device/parallel_for.hpp"
#include "device/thread_pool.hpp"

// Convolution / NN primitives.
#include "ops/activations.hpp"
#include "ops/batchnorm.hpp"
#include "ops/conv2d.hpp"
#include "ops/depthwise.hpp"
#include "ops/gemm.hpp"
#include "ops/im2col.hpp"
#include "ops/linear.hpp"
#include "ops/pooling.hpp"
#include "ops/shift.hpp"
#include "ops/shuffle.hpp"
#include "ops/softmax_xent.hpp"

// The paper's contribution: sliding-channel convolution.
#include "core/channel_map.hpp"
#include "core/compositions.hpp"
#include "core/cost_model.hpp"
#include "core/scc_gemm.hpp"
#include "core/scc_kernels.hpp"

// Training framework and model zoo.
#include "nn/adam.hpp"
#include "nn/bn_folding.hpp"
#include "nn/checkpoint.hpp"
#include "nn/containers.hpp"
#include "nn/layer.hpp"
#include "nn/layers_basic.hpp"
#include "nn/lr_schedule.hpp"
#include "nn/layers_conv.hpp"
#include "nn/layers_mix.hpp"
#include "nn/metrics.hpp"
#include "nn/param.hpp"
#include "nn/sgd.hpp"
#include "nn/trainer.hpp"

#include "models/mobilenet.hpp"
#include "models/resnet.hpp"
#include "models/schemes.hpp"
#include "models/vgg.hpp"

// Concurrent inference serving: compiled plans, dynamic micro-batching,
// multi-model routing.
#include "serve/compiled_model.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"

// Replicated, priority/deadline-aware sharded serving.
#include "shard/shard.hpp"

// Socket-level ingress (framed wire protocol, tenant auth/quota) and
// multi-tenant model residency over the store.
#include "net/net.hpp"

// Observability: metrics registry (Prometheus/JSON), per-request tracing
// (Chrome trace-event / Perfetto), control-plane event journal.
#include "obs/obs.hpp"

// Versioned model store, hot-swap, canary/shadow rollouts.
#include "deploy/deploy.hpp"

// Design-space exploration.
#include "explore/design_space.hpp"

// Empirical kernel autotuning: registry, tuner, persistent cache, dispatch.
#include "tune/cache.hpp"
#include "tune/dispatch.hpp"
#include "tune/problem_key.hpp"
#include "tune/registry.hpp"
#include "tune/tune.hpp"
#include "tune/tuner.hpp"

// Vectorized CPU backend: runtime-dispatched packed GEMM, SCC and depthwise
// kernels (scalar / SSE2 / AVX2+FMA).
#include "simd/depthwise.hpp"
#include "simd/dispatch.hpp"
#include "simd/gemm.hpp"
#include "simd/scc.hpp"

// Pruning on top of factorized kernels.
#include "prune/prune.hpp"

// Post-training int8 quantization.
#include "quant/qscc.hpp"
#include "quant/quant_layers.hpp"
#include "quant/quantize.hpp"

// Data and the analytic GPU model.
#include "data/cifar_bin.hpp"
#include "data/dataloader.hpp"
#include "data/synth.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/estimator.hpp"
#include "gpusim/kernel_profile.hpp"
#include "gpusim/link_model.hpp"
