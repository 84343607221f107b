#pragma once
// Workload definitions: the fixed rates and shapes of the three workloads,
// the seeded traffic (Zipf key choice, scale-outs, refit schedule) and the
// corpus every workload serves.
//
// The corpus is a fixture (the C3O-like `sgd` traces with a fixed generator
// seed), so the general model is the same on every run; the workload seed
// drives only the traffic.  Every stream is a pure function of (seed,
// stream id), so the same seed replays the same requests in the untraced
// run, the traced run and the in-process replays.

#include <cstdint>
#include <string_view>
#include <vector>

#include "data/record.hpp"
#include "serve/model_registry.hpp"

namespace perfbench {

enum class Kind { kPoint, kSweep, kRefit };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  /// Open-loop request rates (requests/s; a sweep is one request).  Fixed
  /// numbers, set once from the measured closed-loop capacity (README.md
  /// says how), never derived per run.
  double light_rate;
  double loaded_rate;
  /// Requests in flight per connection in the closed-loop phase.
  std::size_t window;
  /// Pretrain epochs of the general model; the refit workload uses the
  /// paper's recipe (PreTrainConfig default) because fit_mre depends on it.
  std::size_t pretrain_epochs;
};

const WorkloadSpec* find_workload(std::string_view name);

inline constexpr std::size_t kContexts = 30;      ///< C3O sgd contexts
inline constexpr int kMaxScaleOut = 60;           ///< scale-outs 1..60
inline constexpr std::uint64_t kCorpusSeed = 42;  ///< fixture, not the workload seed
inline constexpr std::uint64_t kModelSeed = 71;
inline constexpr double kZipfExponent = 1.0;
/// Payload sizes of the refit schedule: few-point payloads (the paper's
/// fine-tuning regime) and the context's full history (kFullHistory: above
/// serverd's --refit-budget, so `reduce` runs).  The schedule runs in blocks
/// holding every (context, size) pair once in seeded order, so the mix, and
/// with it the fit-time percentiles, is the same for every seed; the seed
/// picks the order and the runs.  Payloads of 1-3 runs are left out: most
/// hit the MAE target within a few epochs, and with them the median refit
/// would sit between the quick-fit and full-training modes and jump from
/// seed to seed.
inline constexpr std::size_t kFullHistory = 0;
inline constexpr std::size_t kPayloadCycle[] = {4, 5, 6, kFullHistory};

/// splitmix64: tiny, seedable, identical on every platform (the standard
/// library's distributions are not).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  Rng(std::uint64_t seed, std::uint64_t stream);
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

/// Zipf(s) over n items.  The rank -> item mapping is a seeded permutation,
/// so which context is hot changes with the seed but the skew does not.
class Zipf {
 public:
  Zipf(std::size_t n, double exponent, std::uint64_t seed);
  std::size_t operator()(Rng& rng) const;
  /// Item at each popularity rank (rank 0 = hottest).
  const std::vector<std::size_t>& ranking() const { return rank_to_item_; }

 private:
  std::vector<double> cdf_;
  std::vector<std::size_t> rank_to_item_;
};

/// One read request: a context and, for point queries, a scale-out in
/// 1..kMaxScaleOut (0 for a sweep over all of them).
struct Query {
  std::uint32_t ctx = 0;
  int scale_out = 0;
};

/// Deterministic query stream `stream` of a run.
class QueryStream {
 public:
  QueryStream(const Zipf& zipf, Kind kind, std::uint64_t seed, std::uint64_t stream)
      : zipf_(zipf), kind_(kind), rng_(seed, stream) {}
  Query next();

 private:
  const Zipf& zipf_;
  Kind kind_;
  Rng rng_;
};

/// One wire refit of the schedule: the context and the indices of the
/// context's history runs it carries (all of them when `full`).
struct RefitItem {
  std::uint32_t ctx = 0;
  bool full = false;
  std::vector<std::uint32_t> picks;
};

std::vector<RefitItem> refit_schedule(std::uint64_t seed, std::size_t length,
                                      std::size_t contexts, std::size_t history_size);

struct ContextData {
  bellamy::serve::ModelKey key;
  bellamy::data::JobRun query_template;       ///< properties, runtime 0
  std::vector<bellamy::data::JobRun> history;  ///< refit payload source
  std::vector<bellamy::data::JobRun> heldout;  ///< one run per scale-out
};

struct Corpus {
  std::vector<ContextData> contexts;
  /// Every history run; held-out runs never reach the general model.
  std::vector<bellamy::data::JobRun> pretrain_runs;
};

Corpus make_corpus();
std::vector<bellamy::data::JobRun> sweep_queries(const ContextData& ctx);
std::vector<bellamy::data::JobRun> refit_payload(const Corpus& corpus, const RefitItem& item);

/// Stream ids, one per use of randomness in a run.
enum Stream : std::uint64_t {
  kStreamZipf = 1,
  kStreamLight = 2,
  kStreamLoaded = 3,
  kStreamWarmup = 16,  ///< + connection index
  kStreamClosed = 32,  ///< + connection index
  kStreamRefits = 64,
  kStreamVerify = 65,
};

}  // namespace perfbench
