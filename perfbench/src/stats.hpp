#pragma once
// Percentile and self-time arithmetic of the benchmark.
//
// Latency samples are microseconds.  A request that failed, was refused or
// timed out is recorded as +infinity, so it is slower than every percentile
// and drags the tail instead of vanishing from it.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr double kFailedSample = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile: the smallest sample with at least q of all
/// samples at or below it.  `samples` need not be sorted; q is in (0, 1].
/// NaN for an empty sample.
double percentile(std::vector<double> samples, double q);

/// True when `n` samples support percentile q: at least ten samples lie
/// beyond it, i.e. n * (1 - q) >= 10.
bool percentile_supported(double q, std::size_t n);

struct LatencySummary {
  std::size_t samples = 0;  ///< including failures
  double p50 = 0, p90 = 0, p99 = 0, p999 = 0;
};

LatencySummary summarize(const std::vector<double>& samples);

/// Median over windows of each window's percentile q: samples[i] belongs
/// to window[i] in [0, windows).  Only windows whose sample count supports
/// q take part; when none does, the percentile of all samples.
double windowed_percentile(const std::vector<double>& samples,
                           const std::vector<std::uint8_t>& window, std::size_t windows,
                           double q);

/// Self time of a span: its duration minus the part its child covers.  Used
/// for net.self_us (client RTT minus in-process service time) and
/// serve.lane_wait_us (service time minus the forward pass).
inline double self_time(double span, double child) { return span - child; }

/// Median of a sample (NaN when empty).
double median(std::vector<double> samples);

}  // namespace perfbench
