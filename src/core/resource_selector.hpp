#pragma once
// Resource selection from runtime predictions (the paper's end use case:
// "The predicted runtimes can be used to effectively choose a suitable
// resource configuration", §V).  Given a fitted runtime model, a context
// template and a runtime target, pick the smallest scale-out predicted to
// meet the target.

#include <vector>

#include "data/runtime_model.hpp"

namespace bellamy::core {

struct ScaleoutPrediction {
  int scale_out = 0;
  double predicted_runtime_s = 0.0;
};

struct ResourceSelection {
  bool target_met = false;            ///< some candidate met the target
  int chosen_scale_out = 0;           ///< smallest meeting candidate, or the fastest
  double predicted_runtime_s = 0.0;
  std::vector<ScaleoutPrediction> predictions;  ///< all candidates, ascending scale-out
};

/// Evaluate `model` on `context_template` (its scale_out/runtime fields are
/// ignored) at every candidate scale-out.  Picks the smallest scale-out whose
/// prediction is <= target_runtime_s; if none qualifies, picks the candidate
/// with the fastest predicted runtime.
ResourceSelection select_scaleout(const data::RuntimeModel& model,
                                  const data::JobRun& context_template,
                                  std::vector<int> candidate_scaleouts,
                                  double target_runtime_s);

}  // namespace bellamy::core
