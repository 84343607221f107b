#pragma once
// Shared state of one `perfbench drive` run, and the in-process replays the
// traced run adds (replay.cpp).

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "data/record.hpp"
#include "report.hpp"
#include "workload.hpp"

namespace perfbench {

/// Refits of the schedule that always run: one block of every (context,
/// payload size) pair.  fit_mre is taken over them, and the correctness
/// sample and the traced replays draw from them.  Later refits continue
/// down the schedule while the phase lasts.
inline constexpr std::size_t kFirstPass = kContexts * std::size(kPayloadCycle);
inline constexpr std::size_t kScheduleLength = 4096;
/// First-pass refits re-run locally and compared bit for bit.
inline constexpr std::size_t kVerifySample = 6;

struct RunContext {
  const WorkloadSpec& spec;
  const Corpus& corpus;
  const Zipf& zipf;
  std::uint64_t seed = 0;
  bool trace = false;
  std::size_t workers = 0;       ///< serverd --workers
  std::size_t refit_budget = 0;  ///< serverd --refit-budget
  std::size_t connections = 0;   ///< read connections of the open loop
  std::string general_path;      ///< checkpoint of the published general model
  /// Query table: queries[ctx][scale_out - 1]; a context's row is its sweep.
  std::vector<std::vector<bellamy::data::JobRun>> queries;
};

/// One wire refit: its latency and the held-out predictions served right
/// after it landed.
struct FitSample {
  std::size_t index = 0;  ///< position in the (repeated) schedule
  double ms = 0.0;        ///< kFailedSample when the refit failed
  double mre = 0.0;
  std::vector<double> served;
};

/// Re-run a seeded sample of the first-pass wire refits in process through
/// ModelRegistry::refit (serverd's recipe) and require bit-identical
/// held-out predictions.  Traced runs also replay every first-pass payload
/// through the registry, core::finetune, reduce::reduce_runs and four
/// concurrent refit_async, and report serve.refit_*, core.finetune_*,
/// reduce.* and parallel.* metrics.
void replay_refits(const RunContext& rc, const std::vector<RefitItem>& first_pass,
                   const std::vector<FitSample>& fits, double wire_fit_p50_ms,
                   Report& report);

/// Traced run only: replay the loaded phase's requests through net/wire
/// codecs and an in-process PredictionService, and time the forward pass
/// and property encoding (wire.*, serve.predict_us.*, serve.lane_wait_us,
/// net.self_us, core.predict_batch_us.*, encoding.*).
void replay_layers(const RunContext& rc, double loaded_seconds, double mean_fill,
                   double wire_rtt_p50_us, Report& report);

}  // namespace perfbench
