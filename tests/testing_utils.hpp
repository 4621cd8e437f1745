// Shared test helpers: naive reference kernels, ULP comparisons, numerical
// gradient checks and exception-safe test threads.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <functional>
#include <stop_token>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "tensor/random.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_ops.hpp"

namespace dsx::testing {

/// True when the tensors have the same shape and byte-identical contents -
/// the enforcement form of the library's bit-identity contracts.
inline bool bit_identical(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Distance between two floats in units in the last place: the number of
/// representable floats between them (0 = bit-identical, and +0.0 == -0.0).
/// NaNs and differing signs map to a huge distance so they always fail a
/// bounded comparison.
inline int64_t ulp_distance(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) return INT64_MAX;
  if (a == b) return 0;  // covers +0.0 vs -0.0
  int32_t ia, ib;
  std::memcpy(&ia, &a, sizeof(ia));
  std::memcpy(&ib, &b, sizeof(ib));
  if ((ia < 0) != (ib < 0)) return INT64_MAX;  // opposite nonzero signs
  const int64_t da = ia < 0 ? -static_cast<int64_t>(ia ^ INT32_MIN)
                            : static_cast<int64_t>(ia);
  const int64_t db = ib < 0 ? -static_cast<int64_t>(ib ^ INT32_MIN)
                            : static_cast<int64_t>(ib);
  return da > db ? da - db : db - da;
}

/// Asserts every element of `a` is within `max_ulp` ULP of `b` (gtest
/// EXPECT semantics: failures are reported with index and values, execution
/// continues). This is the enforcement form of the tune::Fidelity::
/// kUlpBounded contract (simd::kMaxUlp).
inline void expect_allclose_ulp(const Tensor& a, const Tensor& b,
                                int64_t max_ulp) {
  ASSERT_EQ(a.shape(), b.shape()) << "ulp compare: shape mismatch";
  int64_t worst = 0, worst_i = -1;
  for (int64_t i = 0; i < a.numel(); ++i) {
    const int64_t d = ulp_distance(a[i], b[i]);
    if (d > worst) {
      worst = d;
      worst_i = i;
    }
  }
  EXPECT_LE(worst, max_ulp) << "worst at i=" << worst_i << ": " << a[worst_i]
                            << " vs " << b[worst_i];
}

/// Naive NCHW convolution reference: groups/stride/pad supported, O(everything).
inline Tensor naive_conv2d(const Tensor& in, const Tensor& w, const Tensor* b,
                           int64_t stride, int64_t pad, int64_t groups) {
  const int64_t N = in.shape().n(), Cin = in.shape().c();
  const int64_t H = in.shape().h(), W = in.shape().w();
  const int64_t Cout = w.shape().dim(0), K = w.shape().dim(2);
  const int64_t cin_g = Cin / groups, cout_g = Cout / groups;
  const int64_t Ho = (H + 2 * pad - K) / stride + 1;
  const int64_t Wo = (W + 2 * pad - K) / stride + 1;
  Tensor out(make_nchw(N, Cout, Ho, Wo));
  for (int64_t n = 0; n < N; ++n) {
    for (int64_t oc = 0; oc < Cout; ++oc) {
      const int64_t g = oc / cout_g;
      for (int64_t y = 0; y < Ho; ++y) {
        for (int64_t x = 0; x < Wo; ++x) {
          double acc = b != nullptr ? b->data()[oc] : 0.0;
          for (int64_t ic = 0; ic < cin_g; ++ic) {
            for (int64_t ky = 0; ky < K; ++ky) {
              for (int64_t kx = 0; kx < K; ++kx) {
                const int64_t iy = y * stride + ky - pad;
                const int64_t ix = x * stride + kx - pad;
                if (iy < 0 || iy >= H || ix < 0 || ix >= W) continue;
                acc += w.at(oc, ic, ky, kx) *
                       in.at(n, g * cin_g + ic, iy, ix);
              }
            }
          }
          out.at(n, oc, y, x) = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

/// Naive SCC reference straight from the paper's Eq. for SCC (window +
/// cyclic channel indexing).
inline Tensor naive_scc(const Tensor& in, const Tensor& w, const Tensor* b,
                        int64_t gw, const std::vector<int64_t>& starts,
                        int64_t stride) {
  const int64_t N = in.shape().n(), Cin = in.shape().c();
  const int64_t H = in.shape().h(), W = in.shape().w();
  const int64_t Cout = w.shape().dim(0);
  const int64_t Ho = (H - 1) / stride + 1;
  const int64_t Wo = (W - 1) / stride + 1;
  Tensor out(make_nchw(N, Cout, Ho, Wo));
  for (int64_t n = 0; n < N; ++n) {
    for (int64_t f = 0; f < Cout; ++f) {
      const int64_t start = starts[static_cast<size_t>(f)];
      for (int64_t y = 0; y < Ho; ++y) {
        for (int64_t x = 0; x < Wo; ++x) {
          double acc = b != nullptr ? b->data()[f] : 0.0;
          for (int64_t k = 0; k < gw; ++k) {
            acc += w.at(f, k) * in.at(n, (start + k) % Cin, y * stride,
                                      x * stride);
          }
          out.at(n, f, y, x) = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

/// Scalar probe loss: sum(output .* mask) with a fixed pseudo-random mask,
/// so dLoss/dOutput == mask.
struct ProbeLoss {
  Tensor mask;
  explicit ProbeLoss(const Shape& out_shape, uint64_t seed = 99) {
    Rng rng(seed);
    mask = random_uniform(out_shape, rng, -1.0f, 1.0f);
  }
  double value(const Tensor& out) const {
    double acc = 0.0;
    for (int64_t i = 0; i < out.numel(); ++i) acc += out[i] * mask[i];
    return acc;
  }
};

/// Central-difference numerical gradient of `loss_fn` wrt `param`, compared
/// against `analytic`. Returns the max absolute error.
inline float max_numeric_grad_error(
    Tensor& param, const std::function<double()>& loss_fn,
    const Tensor& analytic, float eps = 1e-2f) {
  DSX_REQUIRE(param.shape() == analytic.shape(),
              "grad check: analytic shape mismatch");
  float max_err = 0.0f;
  for (int64_t i = 0; i < param.numel(); ++i) {
    const float saved = param[i];
    param[i] = saved + eps;
    const double up = loss_fn();
    param[i] = saved - eps;
    const double down = loss_fn();
    param[i] = saved;
    const float numeric = static_cast<float>((up - down) / (2.0 * eps));
    max_err = std::max(max_err, std::abs(numeric - analytic[i]));
  }
  return max_err;
}

/// Starts a test thread that joins on every path out of the test body
/// (std::jthread: destruction requests stop, then joins) and reports an
/// exception escaping `body` as a test failure instead of std::terminate.
/// `body` may take the thread's std::stop_token to end a loop on request.
template <typename Body>
std::jthread test_thread(Body body) {
  return std::jthread([body = std::move(body)](std::stop_token stop) mutable {
    try {
      if constexpr (std::is_invocable_v<Body&, std::stop_token>) {
        body(stop);
      } else {
        body();
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "test thread threw: " << e.what();
    } catch (...) {
      ADD_FAILURE() << "test thread threw a non-std exception";
    }
  });
}

}  // namespace dsx::testing
