#include "data/runtime_model.hpp"

namespace bellamy::data {

std::vector<double> RuntimeModel::predict_batch(const std::vector<JobRun>& queries) const {
  std::vector<double> out;
  out.reserve(queries.size());
  for (const JobRun& q : queries) out.push_back(predict(q));
  return out;
}

}  // namespace bellamy::data
