#pragma once
// The Ernest parametric baseline (Venkataraman et al., NSDI'16), the "NNLS"
// curve in the paper's figures: fit
//
//     r(x) = theta1 + theta2 * (1/x) + theta3 * log(x) + theta4 * x
//
// with non-negative theta via NNLS on the (scale-out, runtime) pairs of a
// single context.  Context properties are ignored — this is exactly the
// limitation Bellamy addresses.

#include <array>

#include "data/runtime_model.hpp"

namespace bellamy::baselines {

/// The Ernest feature map [1, 1/x, log x, x].
std::array<double, 4> ernest_features(double scale_out);

class ErnestModel : public data::RuntimeModel {
 public:
  void fit(const std::vector<data::JobRun>& runs) override;
  double predict(const data::JobRun& query) const override;
  /// Evaluates the fitted closed form over all queries.
  std::vector<double> predict_batch(const std::vector<data::JobRun>& queries) const override;
  std::size_t min_training_points() const override { return 1; }
  std::string name() const override { return "NNLS"; }

  /// Predict from a raw scale-out (no JobRun needed).
  double predict_scaleout(double scale_out) const;

  const std::array<double, 4>& theta() const { return theta_; }
  bool fitted() const { return fitted_; }

 private:
  std::array<double, 4> theta_{};
  bool fitted_ = false;
};

}  // namespace bellamy::baselines
