#pragma once
// The Bell baseline (Thamsen et al., IPCCC'16): maintain two models of a
// job's scale-out behaviour —
//   * a parametric model (Ernest's NNLS fit), robust with very little data,
//   * a non-parametric interpolation model, accurate once the sampled
//     scale-outs are dense —
// and automatically select between them with leave-one-out cross-validation
// on the training points.  The CV needs at least three points, which is why
// the paper notes "Bell requires at least three data points".

#include <map>

#include "baselines/ernest.hpp"
#include "data/runtime_model.hpp"

namespace bellamy::baselines {

/// Piecewise-linear interpolation over mean runtime per observed scale-out,
/// with linear extension of the boundary segments for extrapolation.
class InterpolationModel : public data::RuntimeModel {
 public:
  void fit(const std::vector<data::JobRun>& runs) override;
  double predict(const data::JobRun& query) const override;
  std::vector<double> predict_batch(const std::vector<data::JobRun>& queries) const override;
  std::size_t min_training_points() const override { return 2; }
  std::string name() const override { return "interp"; }

  double predict_scaleout(double scale_out) const;

 private:
  std::map<int, double> mean_by_scaleout_;  ///< needs >= 2 distinct scale-outs
};

class BellModel : public data::RuntimeModel {
 public:
  void fit(const std::vector<data::JobRun>& runs) override;
  double predict(const data::JobRun& query) const override;
  /// Delegates the whole batch to the CV-selected sub-model in one call.
  std::vector<double> predict_batch(const std::vector<data::JobRun>& queries) const override;
  std::size_t min_training_points() const override { return 3; }
  std::string name() const override { return "Bell"; }

  /// Which sub-model the cross-validation selected ("parametric" or
  /// "non-parametric"); meaningful after fit().
  const std::string& selected() const { return selected_; }

 private:
  ErnestModel parametric_;
  InterpolationModel non_parametric_;
  std::string selected_;
  bool use_parametric_ = true;
};

}  // namespace bellamy::baselines
