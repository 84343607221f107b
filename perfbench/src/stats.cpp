#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t n = samples.size();
  // Rank ceil(q * n), 1-based; the epsilon keeps q * n = 50.000000001 from
  // rounding a rank up.
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

bool percentile_supported(double q, std::size_t n) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9;
}

LatencySummary summarize(const std::vector<double>& samples) {
  LatencySummary s;
  s.samples = samples.size();
  if (samples.empty()) return s;
  s.p50 = percentile(samples, 0.5);
  s.p90 = percentile(samples, 0.9);
  s.p99 = percentile(samples, 0.99);
  s.p999 = percentile(samples, 0.999);
  return s;
}

double windowed_percentile(const std::vector<double>& samples,
                           const std::vector<std::uint8_t>& window, std::size_t windows,
                           double q) {
  std::vector<std::vector<double>> split(windows);
  for (std::size_t i = 0; i < samples.size(); ++i) split.at(window.at(i)).push_back(samples[i]);
  std::vector<double> per_window;
  for (std::vector<double>& w : split) {
    if (percentile_supported(q, w.size())) per_window.push_back(percentile(std::move(w), q));
  }
  return per_window.empty() ? percentile(samples, q) : median(std::move(per_window));
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5); }

}  // namespace perfbench
