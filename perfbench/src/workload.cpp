#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <map>
#include <stdexcept>

#include "core/trainer.hpp"
#include "data/c3o_generator.hpp"

namespace perfbench {

namespace {

const WorkloadSpec kWorkloads[] = {
    {"point-predict", Kind::kPoint, 15000.0, 30000.0, 128, 100},
    {"scaleout-sweep", Kind::kSweep, 600.0, 4500.0, 16, 100},
    {"refit-under-load", Kind::kRefit, 4000.0, 8000.0, 32,
     bellamy::core::PreTrainConfig{}.epochs},
};

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Rng::Rng(std::uint64_t seed, std::uint64_t stream) : state_(seed) {
  // Decorrelate streams of one seed: mix the stream id in through one
  // splitmix round of its own.
  Rng mixer(stream * 0x9E3779B97F4A7C15ull ^ 0xD1B54A32D192ED03ull);
  state_ ^= mixer.next();
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

std::uint64_t Rng::below(std::uint64_t n) {
  // Rejection keeps the draw exactly uniform.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t x = next();
  while (x >= limit) x = next();
  return x % n;
}

Zipf::Zipf(std::size_t n, double exponent, std::uint64_t seed) {
  if (n == 0) throw std::invalid_argument("Zipf over zero items");
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
  rank_to_item_.resize(n);
  for (std::size_t i = 0; i < n; ++i) rank_to_item_[i] = i;
  Rng rng(seed, kStreamZipf);
  for (std::size_t i = n - 1; i > 0; --i) {
    std::swap(rank_to_item_[i], rank_to_item_[rng.below(i + 1)]);
  }
}

std::size_t Zipf::operator()(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const auto rank = std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                          cdf_.size() - 1);
  return rank_to_item_[rank];
}

Query QueryStream::next() {
  Query q;
  q.ctx = static_cast<std::uint32_t>(zipf_(rng_));
  q.scale_out = kind_ == Kind::kSweep ? 0 : 1 + static_cast<int>(rng_.below(kMaxScaleOut));
  return q;
}

std::vector<RefitItem> refit_schedule(std::uint64_t seed, std::size_t length,
                                      std::size_t contexts, std::size_t history_size) {
  Rng rng(seed, kStreamRefits);
  const std::size_t sizes = std::size(kPayloadCycle);
  std::vector<RefitItem> schedule(length);
  std::vector<std::size_t> block(contexts * sizes);
  for (std::size_t i = 0; i < length; ++i) {
    // Refits come in blocks that hold every (context, payload size) pair
    // once, in seeded order, so every run sees the same mix.
    const std::size_t at = i % block.size();
    if (at == 0) {
      for (std::size_t b = 0; b < block.size(); ++b) block[b] = b;
      for (std::size_t b = block.size() - 1; b > 0; --b) std::swap(block[b], block[rng.below(b + 1)]);
    }
    RefitItem& item = schedule[i];
    item.ctx = static_cast<std::uint32_t>(block[at] / sizes);
    const std::size_t k = kPayloadCycle[block[at] % sizes];
    item.full = k == kFullHistory || k >= history_size;
    if (item.full) {
      for (std::uint32_t j = 0; j < history_size; ++j) item.picks.push_back(j);
      continue;
    }
    // k distinct runs by a partial Fisher-Yates shuffle, kept in history
    // order like a real context's run log.
    std::vector<std::uint32_t> order(history_size);
    for (std::uint32_t j = 0; j < history_size; ++j) order[j] = j;
    for (std::size_t j = 0; j < k; ++j) {
      std::swap(order[j], order[j + rng.below(history_size - j)]);
    }
    item.picks.assign(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k));
    std::sort(item.picks.begin(), item.picks.end());
  }
  return schedule;
}

Corpus make_corpus() {
  bellamy::data::C3OGeneratorConfig config;
  config.seed = kCorpusSeed;
  const auto groups = bellamy::data::C3OGenerator(config).generate_algorithm("sgd").contexts();
  if (groups.size() != kContexts) {
    throw std::runtime_error("sgd corpus has an unexpected context count");
  }
  Corpus corpus;
  for (std::size_t c = 0; c < groups.size(); ++c) {
    ContextData ctx;
    char name[16];
    std::snprintf(name, sizeof name, "c%02zu", c);
    ctx.key = {"sgd", name};
    ctx.query_template = groups[c].runs.front();
    ctx.query_template.runtime_s = 0.0;
    // The last repetition at each scale-out is held out; the rest is the
    // context's history.
    std::map<int, std::size_t> last;
    for (std::size_t i = 0; i < groups[c].runs.size(); ++i) last[groups[c].runs[i].scale_out] = i;
    for (std::size_t i = 0; i < groups[c].runs.size(); ++i) {
      const bellamy::data::JobRun& run = groups[c].runs[i];
      if (last[run.scale_out] == i) {
        ctx.heldout.push_back(run);
      } else {
        ctx.history.push_back(run);
        corpus.pretrain_runs.push_back(run);
      }
    }
    corpus.contexts.push_back(std::move(ctx));
  }
  return corpus;
}

std::vector<bellamy::data::JobRun> sweep_queries(const ContextData& ctx) {
  std::vector<bellamy::data::JobRun> out(kMaxScaleOut, ctx.query_template);
  for (int x = 1; x <= kMaxScaleOut; ++x) out[x - 1].scale_out = x;
  return out;
}

std::vector<bellamy::data::JobRun> refit_payload(const Corpus& corpus, const RefitItem& item) {
  const ContextData& ctx = corpus.contexts.at(item.ctx);
  std::vector<bellamy::data::JobRun> runs;
  runs.reserve(item.picks.size());
  for (std::uint32_t j : item.picks) runs.push_back(ctx.history.at(j));
  return runs;
}

}  // namespace perfbench
