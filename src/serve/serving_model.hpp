#pragma once
// ServingModel: the thin data::RuntimeModel adapter over the serve facade.
//
// The evaluation harness, the resource selector and the baselines all speak
// RuntimeModel (fit/predict/predict_batch, exceptions on failure).  This
// adapter lets that world run on top of the registry + service without
// knowing about handles: fit() refits the handle's base checkpoint through
// the registry (hot-swapping the served weights), predictions go through the
// micro-batching PredictionService, and typed ServeResults are folded back
// into the legacy exception contract at this boundary — the serve layer
// itself never throws for serving conditions.

#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "core/variants.hpp"
#include "data/runtime_model.hpp"
#include "serve/model_registry.hpp"
#include "serve/prediction_service.hpp"

namespace bellamy::serve {

/// data::RuntimeModel adapter over (registry, service, handle).
///
/// Thread-safety: predictions inherit the PredictionService's full
/// concurrency (any thread, coalesced); fit() delegates to
/// ModelRegistry::refit and BLOCKS for the fine-tune, mirroring the legacy
/// contract the eval harness expects — use the registry's refit_async
/// directly for non-blocking refits.
class ServingModel : public data::RuntimeModel {
 public:
  /// `registry` and `service` must outlive the adapter; `handle` must carry a
  /// base checkpoint (publish/open/derive) for fit() to work.
  ServingModel(ModelRegistry& registry, PredictionService& service, ModelHandle handle,
               core::FineTuneConfig finetune_config,
               core::ReuseStrategy strategy = core::ReuseStrategy::kPartialUnfreeze,
               std::string name = "Bellamy(serve)");

  /// Refit the handle from its base checkpoint on `runs` (empty = direct
  /// reuse).  Serving hot-swaps; in-flight micro-batches finish on the old
  /// weights.
  void fit(const std::vector<data::JobRun>& runs) override;
  double predict(const data::JobRun& query) const override;
  std::vector<double> predict_batch(const std::vector<data::JobRun>& queries) const override;
  std::size_t min_training_points() const override { return 0; }
  std::string name() const override { return name_; }

  const ModelHandle& handle() const { return handle_; }
  /// Statistics of the most recent fit() (mirrors BellamyPredictor).
  const core::FineTuneResult& last_fit() const { return last_fit_; }

 private:
  ModelRegistry& registry_;
  PredictionService& service_;
  ModelHandle handle_;
  core::FineTuneConfig finetune_config_;
  core::ReuseStrategy strategy_;
  std::string name_;
  core::FineTuneResult last_fit_;
};

}  // namespace bellamy::serve
