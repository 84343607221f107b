#include "serve/serving_model.hpp"

#include <stdexcept>
#include <utility>

namespace bellamy::serve {

ServingModel::ServingModel(ModelRegistry& registry, PredictionService& service,
                           ModelHandle handle, core::FineTuneConfig finetune_config,
                           core::ReuseStrategy strategy, std::string name)
    : registry_(registry),
      service_(service),
      handle_(handle),
      finetune_config_(finetune_config),
      strategy_(strategy),
      name_(std::move(name)) {
  if (!handle_) throw std::invalid_argument("ServingModel: invalid model handle");
}

void ServingModel::fit(const std::vector<data::JobRun>& runs) {
  last_fit_ = registry_.refit(handle_, runs, finetune_config_, strategy_).unwrap();
}

double ServingModel::predict(const data::JobRun& query) const {
  return service_.predict(handle_, query).unwrap();
}

std::vector<double> ServingModel::predict_batch(
    const std::vector<data::JobRun>& queries) const {
  return service_.predict_many(handle_, queries).unwrap();
}

}  // namespace bellamy::serve
