#include "nn/activations.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "nn/gradcheck.hpp"
#include "util/rng.hpp"

namespace bellamy::nn {
namespace {

TEST(Selu, PositiveBranchIsScaledIdentity) {
  EXPECT_NEAR(selu(2.0), kSeluScale * 2.0, 1e-12);
}

TEST(Selu, NegativeBranchSaturates) {
  // As x -> -inf, selu(x) -> -scale * alpha.
  EXPECT_NEAR(selu(-100.0), -kSeluScale * kSeluAlpha, 1e-9);
}

TEST(Selu, ContinuousAtZero) {
  EXPECT_NEAR(selu(1e-12), selu(-1e-12), 1e-9);
  EXPECT_NEAR(selu(0.0), 0.0, 1e-15);
}

TEST(Selu, DerivativeMatchesFiniteDifference) {
  for (double x : {-2.0, -0.5, 0.3, 1.7}) {
    const double h = 1e-7;
    const double numeric = (selu(x + h) - selu(x - h)) / (2.0 * h);
    EXPECT_NEAR(selu_derivative(x), numeric, 1e-6) << "at x=" << x;
  }
}

TEST(Selu, SelfNormalizingFixedPointProperty) {
  // SELU approximately preserves zero mean / unit variance of its input —
  // the property the paper relies on to avoid vanishing/exploding gradients.
  util::Rng rng(1);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double y = selu(rng.normal());
    sum += y;
    sq += y * y;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(SeluModule, GradCheck) {
  util::Rng rng(2);
  Selu act;
  const auto result = grad_check(act, Matrix::randn(4, 6, rng));
  EXPECT_TRUE(result.ok(1e-6));
}

TEST(TanhModule, ForwardValues) {
  Tanh act;
  const Matrix y = act.forward(Matrix{{0.0, 1.0, -1.0}});
  EXPECT_DOUBLE_EQ(y(0, 0), 0.0);
  EXPECT_NEAR(y(0, 1), std::tanh(1.0), 1e-12);
  EXPECT_NEAR(y(0, 2), -std::tanh(1.0), 1e-12);
}

TEST(TanhModule, GradCheck) {
  util::Rng rng(3);
  Tanh act;
  EXPECT_TRUE(grad_check(act, Matrix::randn(3, 5, rng)).ok(1e-6));
}

TEST(ReluModule, ForwardClampsNegatives) {
  Relu act;
  const Matrix y = act.forward(Matrix{{-2.0, 0.0, 3.0}});
  EXPECT_DOUBLE_EQ(y(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(y(0, 2), 3.0);
}

TEST(ReluModule, GradCheckAwayFromKink) {
  util::Rng rng(4);
  Relu act;
  // Shift inputs away from 0 so finite differences are valid.
  Matrix x = Matrix::randn(4, 4, rng);
  x.apply_inplace([](double v) { return v + (v >= 0.0 ? 0.5 : -0.5); });
  EXPECT_TRUE(grad_check(act, x).ok(1e-6));
}

TEST(SigmoidModule, ForwardValues) {
  Sigmoid act;
  const Matrix y = act.forward(Matrix{{0.0}});
  EXPECT_DOUBLE_EQ(y(0, 0), 0.5);
}

TEST(SigmoidModule, GradCheck) {
  util::Rng rng(5);
  Sigmoid act;
  EXPECT_TRUE(grad_check(act, Matrix::randn(3, 3, rng)).ok(1e-6));
}

TEST(IdentityModule, PassThrough) {
  Identity act;
  const Matrix x{{1.0, -2.0}};
  EXPECT_EQ(act.forward(x), x);
  EXPECT_EQ(act.backward(x), x);
}

TEST(ActivationFactory, CreatesEveryKind) {
  for (auto kind : {Activation::kSelu, Activation::kTanh, Activation::kRelu,
                    Activation::kSigmoid, Activation::kIdentity}) {
    auto act = make_activation(kind);
    ASSERT_NE(act, nullptr);
    EXPECT_NO_THROW(act->forward(Matrix(1, 1, 0.3)));
  }
}

TEST(ActivationModules, InferEqualsEvalForwardBitForBit) {
  util::Rng rng(6);
  // Both SELU branches, both tanh/sigmoid tails, and the ReLU kink.
  Matrix x = Matrix::randn(5, 7, rng) * 3.0;
  x(0, 0) = 0.0;
  for (auto kind : {Activation::kSelu, Activation::kTanh, Activation::kRelu,
                    Activation::kSigmoid, Activation::kIdentity}) {
    const ModulePtr act = make_activation(kind);
    act->set_training(false);
    const Matrix inferred = std::as_const(*act).infer(x);
    EXPECT_EQ(inferred, act->forward(x)) << activation_name(kind);
  }
}

TEST(ActivationFactory, Names) {
  EXPECT_STREQ(activation_name(Activation::kSelu), "selu");
  EXPECT_STREQ(activation_name(Activation::kTanh), "tanh");
}

}  // namespace
}  // namespace bellamy::nn
