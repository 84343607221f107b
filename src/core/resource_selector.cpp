#include "core/resource_selector.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace bellamy::core {

ResourceSelection select_scaleout(const data::RuntimeModel& model,
                                  const data::JobRun& context_template,
                                  std::vector<int> candidate_scaleouts,
                                  double target_runtime_s) {
  if (candidate_scaleouts.empty()) {
    throw std::invalid_argument("select_scaleout: no candidate scale-outs");
  }
  if (target_runtime_s <= 0.0) {
    throw std::invalid_argument("select_scaleout: target runtime must be > 0");
  }
  std::sort(candidate_scaleouts.begin(), candidate_scaleouts.end());
  candidate_scaleouts.erase(
      std::unique(candidate_scaleouts.begin(), candidate_scaleouts.end()),
      candidate_scaleouts.end());

  // One query per candidate, answered in a single batched forward pass:
  // every query shares the template's context, so the sweep costs one
  // stacked network evaluation instead of |candidates| scalar ones.
  std::vector<data::JobRun> queries;
  queries.reserve(candidate_scaleouts.size());
  for (int x : candidate_scaleouts) {
    if (x < 1) throw std::invalid_argument("select_scaleout: scale-out must be >= 1");
    data::JobRun query = context_template;
    query.scale_out = x;
    queries.push_back(std::move(query));
  }
  const std::vector<double> predicted = model.predict_batch(queries);

  ResourceSelection sel;
  double fastest = std::numeric_limits<double>::infinity();
  int fastest_x = candidate_scaleouts.front();
  for (std::size_t i = 0; i < candidate_scaleouts.size(); ++i) {
    const int x = candidate_scaleouts[i];
    const double pred = predicted[i];
    sel.predictions.push_back({x, pred});
    if (pred < fastest) {
      fastest = pred;
      fastest_x = x;
    }
    if (!sel.target_met && pred <= target_runtime_s) {
      sel.target_met = true;
      sel.chosen_scale_out = x;
      sel.predicted_runtime_s = pred;
    }
  }
  if (!sel.target_met) {
    sel.chosen_scale_out = fastest_x;
    sel.predicted_runtime_s = fastest;
  }
  return sel;
}

}  // namespace bellamy::core
