#include "serve/runtime_adapter.hpp"

#include <stdexcept>

namespace bellamy::serve {

ServeResult<Unit> try_fit(data::RuntimeModel& model, const std::vector<data::JobRun>& runs) {
  try {
    model.fit(runs);
    return ok();
  } catch (const std::invalid_argument& e) {
    return ServeResult<Unit>::failure(ServeStatus::kInvalidArgument, e.what());
  } catch (const std::exception& e) {
    return ServeResult<Unit>::failure(ServeStatus::kInternalError, e.what());
  }
}

ServeResult<double> try_predict(const data::RuntimeModel& model, const data::JobRun& query) {
  try {
    return model.predict(query);
  } catch (const std::invalid_argument& e) {
    return ServeResult<double>::failure(ServeStatus::kInvalidArgument, e.what());
  } catch (const std::exception& e) {
    return ServeResult<double>::failure(ServeStatus::kInternalError, e.what());
  }
}

ServeResult<std::vector<double>> try_predict_batch(const data::RuntimeModel& model,
                                                   const std::vector<data::JobRun>& queries) {
  try {
    return model.predict_batch(queries);
  } catch (const std::invalid_argument& e) {
    return ServeResult<std::vector<double>>::failure(ServeStatus::kInvalidArgument, e.what());
  } catch (const std::exception& e) {
    return ServeResult<std::vector<double>>::failure(ServeStatus::kInternalError, e.what());
  }
}

}  // namespace bellamy::serve
