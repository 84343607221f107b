// Tests of the benchmark's own arithmetic and seeded inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <set>
#include <utility>
#include <vector>

#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NearestRankOnUnsortedSamples) {
  const std::vector<double> samples = {7, 3, 10, 1, 9, 2, 8, 4, 6, 5};
  EXPECT_EQ(percentile(samples, 0.5), 5);
  EXPECT_EQ(percentile(samples, 0.9), 9);
  EXPECT_EQ(percentile(samples, 1.0), 10);
  EXPECT_EQ(percentile(samples, 0.01), 1);
  EXPECT_EQ(percentile({42.0}, 0.99), 42.0);
  EXPECT_TRUE(std::isnan(percentile({}, 0.5)));
}

TEST(Percentile, FailuresAreSlowerThanEveryPercentile) {
  std::vector<double> samples(100, 1.0);
  for (int i = 0; i < 11; ++i) samples[i] = kFailedSample;
  const LatencySummary s = summarize(samples);
  EXPECT_EQ(s.samples, 100u);
  EXPECT_EQ(s.p50, 1.0);
  EXPECT_EQ(s.p90, kFailedSample);  // 11 failures reach into the top decile
}

TEST(Percentile, SampleCountSupportsAPercentileWithTenBeyondIt) {
  EXPECT_TRUE(percentile_supported(0.9, 100));
  EXPECT_FALSE(percentile_supported(0.9, 99));
  EXPECT_FALSE(percentile_supported(0.99, 999));
  EXPECT_TRUE(percentile_supported(0.99, 1000));
  EXPECT_TRUE(percentile_supported(0.999, 10000));
  EXPECT_FALSE(percentile_supported(0.5, 19));
  EXPECT_TRUE(percentile_supported(0.5, 20));
}

TEST(Percentile, WindowedMedianIgnoresOneDisturbedWindow) {
  std::vector<double> samples;
  std::vector<std::uint8_t> window;
  for (std::uint8_t w = 0; w < 5; ++w) {
    for (int i = 1; i <= 100; ++i) {
      samples.push_back(w == 3 ? 1000.0 * i : 100.0 + i);  // window 3 stalled
      window.push_back(w);
    }
  }
  EXPECT_EQ(windowed_percentile(samples, window, 5, 0.9), 190.0);
  EXPECT_EQ(windowed_percentile(samples, window, 5, 0.5), 150.0);
  // Whole-phase p90 would have been dragged into the stalled window.
  EXPECT_GT(percentile(samples, 0.9), 1000.0);
}

TEST(Percentile, WindowsTooSmallForThePercentileFallBackToTheWholePhase) {
  std::vector<double> samples;
  std::vector<std::uint8_t> window;
  for (int i = 1; i <= 200; ++i) {
    samples.push_back(i);
    window.push_back(static_cast<std::uint8_t>(i % 4));  // 50 per window
  }
  // p90 needs 100 samples per window: none qualifies.
  EXPECT_EQ(windowed_percentile(samples, window, 4, 0.9), percentile(samples, 0.9));
  // p50 needs 20: every window qualifies.
  EXPECT_NE(windowed_percentile(samples, window, 4, 0.5), 0.0);
}

TEST(SelfTime, SpanMinusChild) {
  // net.self_us: client RTT p50 minus the in-process service p50.
  EXPECT_DOUBLE_EQ(self_time(640.0, 560.5), 79.5);
  // serve.lane_wait_us: service p50 minus the forward pass at the observed fill.
  EXPECT_DOUBLE_EQ(self_time(560.5, 40.25), 520.25);
  // A child slower than its span (noise between two runs) shows as negative
  // rather than being clamped away.
  EXPECT_DOUBLE_EQ(self_time(10.0, 12.0), -2.0);
}

TEST(Rng, StreamsAreDeterministicAndDistinct) {
  Rng a(7, kStreamLight), b(7, kStreamLight), c(7, kStreamLoaded), d(8, kStreamLight);
  const std::uint64_t first = a.next();
  EXPECT_EQ(first, b.next());
  EXPECT_NE(first, c.next());
  EXPECT_NE(first, d.next());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(a.below(7), 7u);
    const double u = a.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Zipf, SameSeedSameStream) {
  const Zipf z1(kContexts, kZipfExponent, 5), z2(kContexts, kZipfExponent, 5);
  EXPECT_EQ(z1.ranking(), z2.ranking());
  QueryStream s1(z1, Kind::kPoint, 5, kStreamLight), s2(z2, Kind::kPoint, 5, kStreamLight);
  for (int i = 0; i < 1000; ++i) {
    const Query a = s1.next(), b = s2.next();
    EXPECT_EQ(a.ctx, b.ctx);
    EXPECT_EQ(a.scale_out, b.scale_out);
    EXPECT_LT(a.ctx, kContexts);
    EXPECT_GE(a.scale_out, 1);
    EXPECT_LE(a.scale_out, kMaxScaleOut);
  }
}

TEST(Zipf, SeedMovesTheHotKeyButNotTheSkew) {
  const Zipf z1(kContexts, kZipfExponent, 1), z2(kContexts, kZipfExponent, 2);
  EXPECT_NE(z1.ranking(), z2.ranking());
  double harmonic = 0.0;
  for (std::size_t r = 1; r <= kContexts; ++r) harmonic += 1.0 / static_cast<double>(r);
  for (const Zipf* z : {&z1, &z2}) {
    Rng rng(3, kStreamLoaded);
    std::vector<int> hits(kContexts, 0);
    constexpr int kDraws = 200000;
    for (int i = 0; i < kDraws; ++i) hits[(*z)(rng)] += 1;
    const double hot = static_cast<double>(hits[z->ranking()[0]]) / kDraws;
    const double second = static_cast<double>(hits[z->ranking()[1]]) / kDraws;
    EXPECT_NEAR(hot, 1.0 / harmonic, 0.01);
    EXPECT_NEAR(second, 0.5 / harmonic, 0.01);
  }
}

TEST(Zipf, SweepStreamsCarryNoScaleOut) {
  const Zipf z(kContexts, kZipfExponent, 9);
  QueryStream s(z, Kind::kSweep, 9, kStreamLoaded);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(s.next().scale_out, 0);
}

TEST(RefitSchedule, DeterministicPerSeedAndPrefixStable) {
  const auto a = refit_schedule(4, 200, kContexts, 24);
  const auto b = refit_schedule(4, 200, kContexts, 24);
  const auto prefix = refit_schedule(4, 50, kContexts, 24);
  const auto other = refit_schedule(5, 200, kContexts, 24);
  ASSERT_EQ(a.size(), 200u);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ctx, b[i].ctx);
    EXPECT_EQ(a[i].picks, b[i].picks);
    if (i < prefix.size()) EXPECT_EQ(a[i].picks, prefix[i].picks);
    differs |= a[i].ctx != other[i].ctx || a[i].picks != other[i].picks;
  }
  EXPECT_TRUE(differs);
}

TEST(RefitSchedule, EveryBlockHoldsEachContextAndPayloadSizeOnce) {
  const std::size_t sizes = std::size(kPayloadCycle);
  const std::size_t block = kContexts * sizes;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto schedule = refit_schedule(seed, 3 * block, kContexts, 24);
    for (std::size_t b = 0; b < 3; ++b) {
      std::set<std::pair<std::uint32_t, std::size_t>> seen;
      for (std::size_t i = b * block; i < (b + 1) * block; ++i) {
        const RefitItem& item = schedule[i];
        ASSERT_LT(item.ctx, kContexts);
        seen.insert({item.ctx, item.full ? kFullHistory : item.picks.size()});
        EXPECT_EQ(item.picks.size(), item.full ? 24u : item.picks.size());
        const std::set<std::uint32_t> distinct(item.picks.begin(), item.picks.end());
        EXPECT_EQ(distinct.size(), item.picks.size());
        EXPECT_TRUE(std::is_sorted(item.picks.begin(), item.picks.end()));
        EXPECT_LT(*distinct.rbegin(), 24u);
      }
      EXPECT_EQ(seen.size(), block);  // no pair twice, none missing
    }
  }
}

TEST(Corpus, HeldOutRunsNeverReachThePretrainCorpus) {
  const Corpus corpus = make_corpus();
  ASSERT_EQ(corpus.contexts.size(), kContexts);
  std::size_t history = 0;
  for (const ContextData& ctx : corpus.contexts) {
    EXPECT_EQ(ctx.heldout.size(), 6u);  // one per scale-out 2..12
    EXPECT_EQ(ctx.history.size(), 24u);
    std::set<int> scale_outs;
    for (const auto& run : ctx.heldout) scale_outs.insert(run.scale_out);
    EXPECT_EQ(scale_outs.size(), 6u);
    history += ctx.history.size();
  }
  EXPECT_EQ(corpus.pretrain_runs.size(), history);
  const auto sweep = sweep_queries(corpus.contexts[0]);
  ASSERT_EQ(sweep.size(), static_cast<std::size_t>(kMaxScaleOut));
  EXPECT_EQ(sweep.front().scale_out, 1);
  EXPECT_EQ(sweep.back().scale_out, kMaxScaleOut);
}

}  // namespace
}  // namespace perfbench
