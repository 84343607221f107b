#include "nn/activations.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/simd.hpp"

namespace bellamy::nn {

double selu(double x) {
  return x > 0.0 ? kSeluScale * x : kSeluScale * kSeluAlpha * (std::exp(x) - 1.0);
}

double selu_derivative(double x) {
  return x > 0.0 ? kSeluScale : kSeluScale * kSeluAlpha * std::exp(x);
}

// The per-element loops live in nn/simd.hpp (AVX2+FMA with a portable
// fallback, dispatched once per process).  SELU dominates the stacked
// forward/backward (the model is SELU everywhere but the decoder output) and
// its exp is the single largest scalar cost in train_step, so the forward
// and backward kernels vectorize the exponential as well.  Tanh/sigmoid
// FORWARD stay scalar std:: calls: they only run on the decoder output (tiny)
// and vectorizing tanh bit-stably near 0 isn't worth the cost — their
// backward passes are pure arithmetic and do go through the SIMD layer.

Matrix Selu::forward(const Matrix& input) {
  cached_input_ = input;
  return infer(input);
}

Matrix Selu::infer(const Matrix& input) const {
  Matrix out = input;
  simd::selu_forward(out.data(), out.size());
  return out;
}

Matrix Selu::backward(const Matrix& grad_output) {
  Matrix grad = grad_output;
  simd::selu_backward(grad.data(), cached_input_.data(), grad.size());
  return grad;
}

Matrix Tanh::forward(const Matrix& input) {
  cached_output_ = infer(input);
  return cached_output_;
}

Matrix Tanh::infer(const Matrix& input) const {
  return input.apply([](double v) { return std::tanh(v); });
}

Matrix Tanh::backward(const Matrix& grad_output) {
  Matrix grad = grad_output;
  simd::tanh_backward(grad.data(), cached_output_.data(), grad.size());
  return grad;
}

Matrix Relu::forward(const Matrix& input) {
  cached_input_ = input;
  return infer(input);
}

Matrix Relu::infer(const Matrix& input) const {
  Matrix out = input;
  simd::relu_forward(out.data(), out.size());
  return out;
}

Matrix Relu::backward(const Matrix& grad_output) {
  Matrix grad = grad_output;
  simd::relu_backward(grad.data(), cached_input_.data(), grad.size());
  return grad;
}

Matrix Sigmoid::forward(const Matrix& input) {
  cached_output_ = infer(input);
  return cached_output_;
}

Matrix Sigmoid::infer(const Matrix& input) const {
  return input.apply([](double v) { return 1.0 / (1.0 + std::exp(-v)); });
}

Matrix Sigmoid::backward(const Matrix& grad_output) {
  Matrix grad = grad_output;
  simd::sigmoid_backward(grad.data(), cached_output_.data(), grad.size());
  return grad;
}

ModulePtr make_activation(Activation act) {
  switch (act) {
    case Activation::kSelu: return std::make_unique<Selu>();
    case Activation::kTanh: return std::make_unique<Tanh>();
    case Activation::kRelu: return std::make_unique<Relu>();
    case Activation::kSigmoid: return std::make_unique<Sigmoid>();
    case Activation::kIdentity: return std::make_unique<Identity>();
  }
  throw std::invalid_argument("make_activation: unknown activation");
}

const char* activation_name(Activation act) {
  switch (act) {
    case Activation::kSelu: return "selu";
    case Activation::kTanh: return "tanh";
    case Activation::kRelu: return "relu";
    case Activation::kSigmoid: return "sigmoid";
    case Activation::kIdentity: return "identity";
  }
  return "?";
}

}  // namespace bellamy::nn
