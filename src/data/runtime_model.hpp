#pragma once
// Common interface for every runtime predictor evaluated in the paper:
// the NNLS/Ernest parametric baseline, the Bell model-selection baseline and
// the Bellamy variants.  A model is fit on observed JobRuns (typically from
// one concrete context) and queried with a JobRun whose runtime_s is ignored.

#include <memory>
#include <string>
#include <vector>

#include "data/record.hpp"

namespace bellamy::data {

class RuntimeModel {
 public:
  virtual ~RuntimeModel() = default;

  /// Fit on the given runs.  Throws std::invalid_argument if there are
  /// fewer than min_training_points() samples.
  virtual void fit(const std::vector<JobRun>& runs) = 0;

  /// Predict the runtime (seconds) for the query's context and scale-out.
  virtual double predict(const JobRun& query) const = 0;

  /// Predict runtimes for a whole batch of queries at once.  The base
  /// implementation loops over predict(); models with a vectorized forward
  /// (Bellamy, the closed-form baselines) override it to answer all queries
  /// in one pass.  Returns one value per query, in order; an empty batch
  /// yields an empty vector.  Must behave identically to the per-query loop.
  virtual std::vector<double> predict_batch(const std::vector<JobRun>& queries) const;

  /// Smallest number of samples fit() accepts. 0 means the model can be
  /// used without any context data (a pre-trained Bellamy model).
  virtual std::size_t min_training_points() const = 0;

  virtual std::string name() const = 0;
};

using RuntimeModelPtr = std::unique_ptr<RuntimeModel>;

}  // namespace bellamy::data
