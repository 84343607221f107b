#include "nn/dropout.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/activations.hpp"
#include "util/string_utils.hpp"

namespace bellamy::nn {

namespace {
// SELU negative saturation value: lim_{x->-inf} selu(x) = -scale * alpha.
constexpr double kAlphaPrime = -kSeluScale * kSeluAlpha;
}  // namespace

AlphaDropout::AlphaDropout(double rate, util::Rng rng) : rate_(rate), rng_(rng) {
  if (rate < 0.0 || rate >= 1.0) {
    throw std::invalid_argument("AlphaDropout: rate must be in [0, 1)");
  }
  recompute_affine();
}

void AlphaDropout::set_rate(double rate) {
  if (rate < 0.0 || rate >= 1.0) {
    throw std::invalid_argument("AlphaDropout::set_rate: rate must be in [0, 1)");
  }
  rate_ = rate;
  recompute_affine();
}

void AlphaDropout::recompute_affine() {
  const double p = rate_;
  const double q = 1.0 - p;
  if (p == 0.0) {
    a_ = 1.0;
    b_ = 0.0;
    return;
  }
  // Keep mean/variance of a unit-Gaussian input: y = a * (x*m + alpha'*(1-m)) + b
  // with a = (q + alpha'^2 * q * p)^(-1/2), b = -a * p * alpha'.
  a_ = 1.0 / std::sqrt(q + kAlphaPrime * kAlphaPrime * q * p);
  b_ = -a_ * p * kAlphaPrime;
}

Matrix AlphaDropout::forward(const Matrix& input) {
  if (!training_ || rate_ == 0.0) {
    mask_ = Matrix();  // signal "identity" to backward
    return infer(input);
  }
  mask_ = Matrix(input.rows(), input.cols());
  Matrix out(input.rows(), input.cols());
  for (std::size_t r = 0; r < input.rows(); ++r) {
    for (std::size_t c = 0; c < input.cols(); ++c) {
      const bool keep = !rng_.bernoulli(rate_);
      mask_(r, c) = keep ? 1.0 : 0.0;
      const double v = keep ? input(r, c) : kAlphaPrime;
      out(r, c) = a_ * v + b_;
    }
  }
  return out;
}

Matrix AlphaDropout::backward(const Matrix& grad_output) {
  if (mask_.empty()) return grad_output;  // forward was identity
  if (!grad_output.same_shape(mask_)) {
    throw std::invalid_argument("AlphaDropout::backward: grad shape " +
                                grad_output.shape_str() + " != mask " + mask_.shape_str());
  }
  // dy/dx = a where kept, 0 where dropped.
  Matrix grad = grad_output.hadamard(mask_);
  grad *= a_;
  return grad;
}

std::string AlphaDropout::describe() const {
  return util::format("AlphaDropout(rate=%.3f)", rate_);
}

}  // namespace bellamy::nn
