#include "reduce/reduction.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "core/bellamy_model.hpp"
#include "util/rng.hpp"

namespace bellamy::reduce {
namespace {

/// Seeded uniform pick of k indices out of [0, n).
std::vector<std::size_t> pick_uniform(std::size_t n, std::size_t k, std::uint64_t seed) {
  util::Rng rng(seed);
  return rng.sample_without_replacement(n, k);
}

/// Recency-weighted sampling without replacement: the newest run (index
/// n-1) has weight 1 and a run's weight halves every `half_life` positions
/// of age.  k sequential roulette picks over the surviving prefix sums —
/// O(n*k), fine for histories in the thousands.
std::vector<std::size_t> pick_recency(std::size_t n, std::size_t k, std::uint64_t seed,
                                      double half_life) {
  if (half_life <= 0.0) half_life = 1.0;
  std::vector<double> weight(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double age = static_cast<double>(n - 1 - i);
    weight[i] = std::exp2(-age / half_life);
  }
  util::Rng rng(seed);
  std::vector<std::size_t> picked;
  picked.reserve(k);
  std::vector<bool> taken(n, false);
  for (std::size_t round = 0; round < k; ++round) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      if (!taken[i]) total += weight[i];
    double ball = rng.uniform() * total;
    std::size_t choice = n;  // falls through to the last free slot on fp slack
    for (std::size_t i = 0; i < n; ++i) {
      if (taken[i]) continue;
      choice = i;
      ball -= weight[i];
      if (ball <= 0.0) break;
    }
    taken[choice] = true;
    picked.push_back(choice);
  }
  return picked;
}

/// Scale-out-coverage binning: group by scale_out, then round-robin across
/// bins (ascending scale-out) taking each bin's runs newest-first.  The
/// first lap hands every populated bin one slot, so no bin empties as long
/// as budget >= #bins.
std::vector<std::size_t> pick_coverage(const std::vector<data::JobRun>& runs,
                                       std::size_t k, std::uint64_t seed) {
  std::map<int, std::vector<std::size_t>> bins;  // scale_out -> indices, oldest first
  for (std::size_t i = 0; i < runs.size(); ++i) bins[runs[i].scale_out].push_back(i);
  // Within each bin keep the newest runs first (they reflect the current
  // cluster conditions); a seeded shuffle of the remainder spreads which
  // older runs survive across refits.
  util::Rng rng(seed);
  std::vector<std::vector<std::size_t>> queues;
  queues.reserve(bins.size());
  for (auto& [scale_out, indices] : bins) {
    std::reverse(indices.begin(), indices.end());  // newest first
    if (indices.size() > 1) {
      std::vector<std::size_t> rest(indices.begin() + 1, indices.end());
      rng.shuffle(rest);
      std::copy(rest.begin(), rest.end(), indices.begin() + 1);
    }
    queues.push_back(std::move(indices));
  }
  std::vector<std::size_t> picked;
  picked.reserve(k);
  for (std::size_t lap = 0; picked.size() < k; ++lap) {
    bool any = false;
    for (auto& queue : queues) {
      if (lap >= queue.size()) continue;
      any = true;
      picked.push_back(queue[lap]);
      if (picked.size() == k) break;
    }
    if (!any) break;  // every bin exhausted (k > n cannot happen here)
  }
  return picked;
}

/// Loss-aware: rank by the current model's absolute prediction error and
/// keep the k hardest.  Ties break toward the older run (lower index) so
/// the selection is a pure function of (model bits, history, k).
std::vector<std::size_t> pick_loss_aware(const std::vector<data::JobRun>& runs,
                                         std::size_t k, const core::BellamyModel& model) {
  const std::vector<double> predicted = model.predict_batch(runs);
  std::vector<std::size_t> order(runs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double ea = std::abs(predicted[a] - runs[a].runtime_s);
    const double eb = std::abs(predicted[b] - runs[b].runtime_s);
    if (ea != eb) return ea > eb;
    return a < b;
  });
  order.resize(k);
  return order;
}

void fill_report(const std::vector<data::JobRun>& input,
                 const std::vector<data::JobRun>& kept,
                 const ReductionConfig& config, ReductionReport* report) {
  if (report == nullptr) return;
  *report = ReductionReport{};
  report->policy = config.policy;
  report->budget = config.budget;
  report->input_runs = input.size();
  report->kept_runs = kept.size();
  report->dropped_runs = input.size() - kept.size();
  std::set<int> input_bins;
  for (const data::JobRun& run : input) input_bins.insert(run.scale_out);
  report->input_scaleout_bins = input_bins.size();
  std::set<int> kept_bins;
  for (const data::JobRun& run : kept) kept_bins.insert(run.scale_out);
  report->kept_scaleout_bins = kept_bins.size();
  if (!kept_bins.empty()) {
    report->min_scaleout_kept = *kept_bins.begin();
    report->max_scaleout_kept = *kept_bins.rbegin();
  }
}

}  // namespace

const char* policy_name(ReductionPolicy policy) {
  switch (policy) {
    case ReductionPolicy::kNone: return "none";
    case ReductionPolicy::kUniform: return "uniform";
    case ReductionPolicy::kRecency: return "recency";
    case ReductionPolicy::kCoverage: return "coverage";
    case ReductionPolicy::kLossAware: return "loss-aware";
  }
  return "unknown";
}

std::optional<ReductionPolicy> parse_policy(std::string_view name) {
  if (name == "none") return ReductionPolicy::kNone;
  if (name == "uniform") return ReductionPolicy::kUniform;
  if (name == "recency") return ReductionPolicy::kRecency;
  if (name == "coverage") return ReductionPolicy::kCoverage;
  if (name == "loss-aware" || name == "loss_aware") return ReductionPolicy::kLossAware;
  return std::nullopt;
}

std::vector<data::JobRun> reduce_runs(const std::vector<data::JobRun>& runs,
                                      const ReductionConfig& config,
                                      const core::BellamyModel* model,
                                      ReductionReport* report) {
  if (!config.active() || config.budget >= runs.size()) {
    fill_report(runs, runs, config, report);
    return runs;
  }

  const std::size_t k = config.budget;
  std::vector<std::size_t> picked;
  switch (config.policy) {
    case ReductionPolicy::kNone:
      break;  // unreachable: active() is false for kNone
    case ReductionPolicy::kUniform:
      picked = pick_uniform(runs.size(), k, config.seed);
      break;
    case ReductionPolicy::kRecency:
      picked = pick_recency(runs.size(), k, config.seed, config.recency_half_life);
      break;
    case ReductionPolicy::kCoverage:
      picked = pick_coverage(runs, k, config.seed);
      break;
    case ReductionPolicy::kLossAware:
      // A cold refit has no model to score with; uniform is the neutral
      // fallback that still honors the budget deterministically.
      picked = model != nullptr ? pick_loss_aware(runs, k, *model)
                                : pick_uniform(runs.size(), k, config.seed);
      break;
  }

  std::sort(picked.begin(), picked.end());  // preserve history order
  std::vector<data::JobRun> kept;
  kept.reserve(picked.size());
  for (const std::size_t index : picked) kept.push_back(runs[index]);
  fill_report(runs, kept, config, report);
  return kept;
}

}  // namespace bellamy::reduce
