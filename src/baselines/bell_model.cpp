#include "baselines/bell_model.hpp"

#include <cmath>
#include <stdexcept>

namespace bellamy::baselines {

void InterpolationModel::fit(const std::vector<data::JobRun>& runs) {
  std::map<int, std::pair<double, std::size_t>> acc;
  for (const auto& r : runs) {
    auto& [sum, n] = acc[r.scale_out];
    sum += r.runtime_s;
    ++n;
  }
  if (acc.size() < 2) {
    throw std::invalid_argument(
        "InterpolationModel::fit: need >= 2 distinct scale-outs, got " +
        std::to_string(acc.size()));
  }
  mean_by_scaleout_.clear();
  for (const auto& [x, sn] : acc) {
    mean_by_scaleout_[x] = sn.first / static_cast<double>(sn.second);
  }
}

double InterpolationModel::predict_scaleout(double scale_out) const {
  if (mean_by_scaleout_.size() < 2) {
    throw std::runtime_error("InterpolationModel::predict_scaleout: model is not fitted "
                             "(needs >= 2 distinct scale-outs) — call fit() first");
  }
  // Locate the segment; clamp to the boundary segments for extrapolation.
  auto hi = mean_by_scaleout_.lower_bound(static_cast<int>(std::ceil(scale_out)));
  if (hi == mean_by_scaleout_.begin()) ++hi;
  if (hi == mean_by_scaleout_.end()) --hi;
  auto lo = std::prev(hi);
  const double x0 = static_cast<double>(lo->first);
  const double y0 = lo->second;
  const double x1 = static_cast<double>(hi->first);
  const double y1 = hi->second;
  const double slope = (y1 - y0) / (x1 - x0);
  return y0 + slope * (scale_out - x0);
}

double InterpolationModel::predict(const data::JobRun& query) const {
  return predict_scaleout(static_cast<double>(query.scale_out));
}

std::vector<double> InterpolationModel::predict_batch(
    const std::vector<data::JobRun>& queries) const {
  std::vector<double> out;
  out.reserve(queries.size());
  for (const data::JobRun& q : queries) {
    out.push_back(predict_scaleout(static_cast<double>(q.scale_out)));
  }
  return out;
}

void BellModel::fit(const std::vector<data::JobRun>& runs) {
  if (runs.size() < min_training_points()) {
    throw std::invalid_argument("BellModel::fit: need >= 3 training points, got " +
                                std::to_string(runs.size()));
  }
  // Leave-one-out CV of both candidate models.
  double err_param = 0.0;
  double err_nonparam = 0.0;
  std::size_t valid_param = 0;
  std::size_t valid_nonparam = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::vector<data::JobRun> train;
    train.reserve(runs.size() - 1);
    for (std::size_t j = 0; j < runs.size(); ++j) {
      if (j != i) train.push_back(runs[j]);
    }
    try {
      ErnestModel p;
      p.fit(train);
      err_param += std::abs(p.predict_scaleout(runs[i].scale_out) - runs[i].runtime_s);
      ++valid_param;
    } catch (const std::exception&) {
      // fold unusable for the parametric model; skip
    }
    try {
      InterpolationModel np;
      np.fit(train);
      err_nonparam += std::abs(np.predict_scaleout(runs[i].scale_out) - runs[i].runtime_s);
      ++valid_nonparam;
    } catch (const std::exception&) {
      // interpolation needs >= 2 distinct scale-outs in the fold; skip
    }
  }
  const double mean_param =
      valid_param ? err_param / static_cast<double>(valid_param) : 1e300;
  const double mean_nonparam =
      valid_nonparam ? err_nonparam / static_cast<double>(valid_nonparam) : 1e300;
  use_parametric_ = mean_param <= mean_nonparam;
  selected_ = use_parametric_ ? "parametric" : "non-parametric";

  // Refit the chosen model (and keep the other usable as fallback).
  parametric_.fit(runs);
  try {
    non_parametric_.fit(runs);
  } catch (const std::exception&) {
    use_parametric_ = true;
    selected_ = "parametric";
  }
}

double BellModel::predict(const data::JobRun& query) const {
  return use_parametric_ ? parametric_.predict(query) : non_parametric_.predict(query);
}

std::vector<double> BellModel::predict_batch(
    const std::vector<data::JobRun>& queries) const {
  return use_parametric_ ? parametric_.predict_batch(queries)
                         : non_parametric_.predict_batch(queries);
}

}  // namespace bellamy::baselines
