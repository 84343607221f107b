// In-process replays of a run's recorded inputs, timed call by call through
// the public functions of each layer.  Nothing here runs while the wire
// generator is sending, so the generator's thread budget is unaffected.

#include <algorithm>
#include <bit>
#include <cmath>
#include <future>
#include <map>
#include <set>
#include <sstream>

#include "bench.hpp"
#include "core/trainer.hpp"
#include "core/variants.hpp"
#include "net/wire.hpp"
#include "nn/serialize.hpp"
#include "reduce/reduction.hpp"
#include "serve/model_registry.hpp"
#include "serve/prediction_service.hpp"
#include "stats.hpp"
#include "traffic.hpp"

namespace perfbench {

using namespace bellamy;

namespace {

constexpr auto LAYER = Report::Group::kPerLayer;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Median per-call time of `fn` in microseconds over `blocks` blocks of
/// `per_block` calls, after a short warm-up.
template <typename F>
double time_per_call_us(F&& fn, std::size_t per_block, std::size_t blocks = 15) {
  for (int i = 0; i < 3; ++i) fn();
  std::vector<double> per_call;
  for (std::size_t b = 0; b < blocks; ++b) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < per_block; ++i) fn();
    per_call.push_back(ms_since(t0) * 1e3 / static_cast<double>(per_block));
  }
  return median(per_call);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i])) return false;
  }
  return true;
}

/// Encode then decode every message as a wire frame; median per-call
/// microseconds over five passes, and mean frame bytes.
template <typename Msg>
void time_codec(const std::vector<Msg>& msgs, const char* what, double& encode_us,
                double& decode_us, double& bytes, Report& report) {
  std::vector<std::vector<std::uint8_t>> frames(msgs.size());
  std::vector<double> enc, dec;
  for (int pass = 0; pass < 5; ++pass) {
    Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < msgs.size(); ++i) frames[i] = net::encode_frame(msgs[i]);
    enc.push_back(ms_since(t0) * 1e3 / static_cast<double>(msgs.size()));
    std::size_t bad = 0;
    t0 = Clock::now();
    for (const auto& frame : frames) {
      Msg out;
      if (net::decode_frame(frame.data(), frame.size(), out) != net::WireStatus::kOk) bad += 1;
    }
    dec.push_back(ms_since(t0) * 1e3 / static_cast<double>(msgs.size()));
    if (bad != 0) report.violation(std::string("wire: ") + what + " frames failed to decode");
  }
  encode_us = median(enc);
  decode_us = median(dec);
  double total = 0.0;
  for (const auto& frame : frames) total += static_cast<double>(frame.size());
  bytes = total / static_cast<double>(frames.size());
}

std::vector<double> predict_heldout(const std::string& checkpoint_text,
                                    const std::vector<data::JobRun>& heldout) {
  std::istringstream in(checkpoint_text);
  core::BellamyModel model = core::BellamyModel::from_checkpoint(nn::Checkpoint::load(in));
  return model.predict_batch(heldout);
}

/// The reduction serverd applies to refits under --refit-budget (its
/// default policy).
reduce::ReductionConfig serverd_reduction(std::size_t budget) {
  reduce::ReductionConfig config;
  config.policy = reduce::ReductionPolicy::kCoverage;
  config.budget = budget;
  return config;
}

}  // namespace

void replay_refits(const RunContext& rc, const std::vector<RefitItem>& first_pass,
                   const std::vector<FitSample>& fits, double wire_fit_p50_ms,
                   Report& report) {
  const core::BellamyModel general = core::BellamyModel::load(rc.general_path);
  const nn::Checkpoint base = general.to_checkpoint();
  const reduce::ReductionConfig reduction = serverd_reduction(rc.refit_budget);
  const core::FineTuneConfig fit_config;

  serve::ModelRegistry registry;
  registry.set_default_reduction(reduction);
  std::map<std::uint32_t, serve::ModelHandle> handles;
  auto handle_of = [&](std::uint32_t ctx) {
    auto it = handles.find(ctx);
    if (it == handles.end()) {
      it = handles.emplace(ctx, registry.publish(rc.corpus.contexts[ctx].key, general).value())
               .first;
    }
    return it->second;
  };

  Rng rng(rc.seed, kStreamVerify);
  std::set<std::size_t> sample;
  while (sample.size() < std::min(kVerifySample, first_pass.size())) {
    sample.insert(rng.below(first_pass.size()));
  }

  std::vector<double> registry_ms;
  std::size_t verified = 0;
  for (std::size_t i = 0; i < first_pass.size(); ++i) {
    const bool check = sample.count(i) != 0;
    if (!check && !rc.trace) continue;
    const RefitItem& item = first_pass[i];
    const ContextData& ctx = rc.corpus.contexts[item.ctx];
    const serve::ModelHandle handle = handle_of(item.ctx);
    const Clock::time_point t0 = Clock::now();
    const auto refit = registry.refit(handle, refit_payload(rc.corpus, item), fit_config);
    registry_ms.push_back(ms_since(t0));
    if (!refit.ok()) {
      report.violation("local refit " + std::to_string(i) + " failed: " + refit.error_text());
      continue;
    }
    if (!check || i >= fits.size() || fits[i].ms == kFailedSample) continue;
    const std::vector<double> local =
        predict_heldout(registry.checkpoint_text(handle).value(), ctx.heldout);
    if (!same_bits(local, fits[i].served)) {
      report.violation("wire refit " + std::to_string(i) + " of " + ctx.key.str() +
                       " differs from the same refit run locally");
    }
    verified += 1;
  }
  std::fprintf(stderr, "perfbench: %zu sampled wire refits re-run locally, bit-identical\n",
               verified);
  if (!rc.trace) return;

  const double refit_p50 = median(registry_ms);
  report.metric(LAYER, "serve.refit_ms.p50", refit_p50, "ms");
  report.metric(LAYER, "serve.refit_wait_ms.p50", self_time(wire_fit_p50_ms, refit_p50), "ms");

  // The registry's recipe step by step: reduce, apply the reuse strategy,
  // fine-tune — each timed on its own.
  std::vector<double> finetune_ms, select_ms;
  double epochs = 0.0, reached = 0.0, kept = 0.0, input = 0.0;
  for (const RefitItem& item : first_pass) {
    core::BellamyModel fresh = core::BellamyModel::from_checkpoint(base);
    std::vector<data::JobRun> train = refit_payload(rc.corpus, item);
    if (train.size() > reduction.budget) {
      reduce::ReductionReport reduced;
      const Clock::time_point t0 = Clock::now();
      train = reduce::reduce_runs(train, reduction, &fresh, &reduced);
      select_ms.push_back(ms_since(t0));
      kept += static_cast<double>(reduced.kept_runs);
      input += static_cast<double>(reduced.input_runs);
    }
    const core::FineTuneConfig cfg =
        core::apply_reuse_strategy(core::ReuseStrategy::kPartialUnfreeze, fresh, fit_config);
    const Clock::time_point t0 = Clock::now();
    const core::FineTuneResult fit = core::finetune(fresh, train, cfg);
    finetune_ms.push_back(ms_since(t0));
    epochs += static_cast<double>(fit.epochs_run);
    reached += fit.reached_target ? 1.0 : 0.0;
  }
  const auto n = static_cast<double>(first_pass.size());
  report.metric(LAYER, "core.finetune_ms.p50", percentile(finetune_ms, 0.5), "ms");
  report.metric(LAYER, "core.finetune_ms.p90", percentile(finetune_ms, 0.9), "ms");
  report.metric(LAYER, "core.finetune_epochs.mean", epochs / n, "count");
  report.metric(LAYER, "core.finetune_target_frac", reached / n, "ratio");
  report.metric(LAYER, "reduce.select_ms.p50", median(select_ms), "ms");
  report.metric(LAYER, "reduce.kept_frac", input > 0 ? kept / input : 1.0, "ratio");

  // Four concurrent refit_async on distinct handles against the same
  // payloads run one at a time.
  constexpr std::size_t kParallel = 4;
  const std::size_t count = std::min<std::size_t>(16, first_pass.size());
  std::vector<serve::ModelHandle> lanes;
  for (std::size_t k = 0; k < kParallel; ++k) {
    lanes.push_back(registry.publish({"sgd", "parallel-" + std::to_string(k)}, general).value());
  }
  Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    const auto fit =
        registry.refit(lanes[i % kParallel], refit_payload(rc.corpus, first_pass[i]), fit_config);
    if (!fit.ok()) report.violation("local refit failed: " + fit.error_text());
  }
  const double serial_ms = ms_since(t0);
  t0 = Clock::now();
  for (std::size_t i = 0; i < count; i += kParallel) {
    std::vector<std::shared_future<serve::ServeResult<core::FineTuneResult>>> wave;
    for (std::size_t k = 0; k < kParallel && i + k < count; ++k) {
      wave.push_back(registry.refit_async(lanes[k], refit_payload(rc.corpus, first_pass[i + k]),
                                          fit_config));
    }
    for (auto& f : wave) {
      if (!f.get().ok()) report.violation("local refit_async failed: " + f.get().error_text());
    }
  }
  report.metric(LAYER, "parallel.refit_speedup.k4", serial_ms / ms_since(t0), "ratio");
}

void replay_layers(const RunContext& rc, double loaded_seconds, double mean_fill,
                   double wire_rtt_p50_us, Report& report) {
  core::BellamyModel general = core::BellamyModel::load(rc.general_path);
  const bool sweep = rc.spec.kind == Kind::kSweep;
  const std::size_t per_request = sweep ? kMaxScaleOut : 1;

  // ---- net/wire: the loaded phase's own request stream ----
  {
    QueryStream stream(rc.zipf, rc.spec.kind, rc.seed, kStreamLoaded);
    const std::size_t n = std::min<std::size_t>(
        sweep ? 2000 : 20000,
        std::max<std::size_t>(1, static_cast<std::size_t>(rc.spec.loaded_rate * loaded_seconds)));
    std::vector<std::vector<double>> values(kContexts);
    for (std::size_t c = 0; c < kContexts; ++c) values[c] = general.predict_batch(rc.queries[c]);
    double enc_req = 0, dec_req = 0, req_bytes = 0, enc_resp = 0, dec_resp = 0, resp_bytes = 0;
    if (sweep) {
      std::vector<net::PredictManyRequest> reqs(n);
      std::vector<net::PredictManyResponse> resps(n);
      for (std::size_t i = 0; i < n; ++i) {
        const Query q = stream.next();
        reqs[i] = {i + 1, rc.corpus.contexts[q.ctx].key, rc.queries[q.ctx]};
        resps[i].head.request_id = i + 1;
        resps[i].values = values[q.ctx];
      }
      time_codec(reqs, "request", enc_req, dec_req, req_bytes, report);
      time_codec(resps, "response", enc_resp, dec_resp, resp_bytes, report);
    } else {
      std::vector<net::PredictRequest> reqs(n);
      std::vector<net::PredictResponse> resps(n);
      for (std::size_t i = 0; i < n; ++i) {
        const Query q = stream.next();
        reqs[i] = {i + 1, rc.corpus.contexts[q.ctx].key, rc.queries[q.ctx][q.scale_out - 1]};
        resps[i].head.request_id = i + 1;
        resps[i].value = values[q.ctx][q.scale_out - 1];
      }
      time_codec(reqs, "request", enc_req, dec_req, req_bytes, report);
      time_codec(resps, "response", enc_resp, dec_resp, resp_bytes, report);
    }
    report.metric(LAYER, "wire.encode_req_us", enc_req, "us");
    report.metric(LAYER, "wire.decode_req_us", dec_req, "us");
    report.metric(LAYER, "wire.encode_resp_us", enc_resp, "us");
    report.metric(LAYER, "wire.decode_resp_us", dec_resp, "us");
    report.metric(LAYER, "wire.req_bytes", req_bytes, "bytes");
    report.metric(LAYER, "wire.resp_bytes", resp_bytes, "bytes");
  }

  // ---- serve: the loaded schedule through an in-process service built
  // with serverd's ServeOptions, harvested in FIFO order like serverd's
  // connection writer ----
  double serve_p50 = 0.0;
  {
    serve::ModelRegistry registry;
    std::vector<serve::ModelHandle> handles;
    for (const ContextData& ctx : rc.corpus.contexts) {
      handles.push_back(registry.publish(ctx.key, general).value());
    }
    serve::ServeOptions options;
    options.workers = rc.workers;
    serve::PredictionService service(registry, options);
    using Futures = std::vector<std::future<serve::ServeResult<double>>>;
    // Two FIFOs, like the two wire connections whose schedule this replays.
    auto issue = [&](const Query& q) {
      Futures futures;
      if (sweep) {
        for (const data::JobRun& query : rc.queries[q.ctx]) {
          futures.push_back(service.predict_async(handles[q.ctx], query));
        }
      } else {
        futures.push_back(
            service.predict_async(handles[q.ctx], rc.queries[q.ctx][q.scale_out - 1]));
      }
      return futures;
    };
    const std::vector issuers(rc.connections, issue);
    const PhaseResult replay = open_loop(
        "serve-replay", rc.spec.loaded_rate, std::min(loaded_seconds, 2.0),
        QueryStream(rc.zipf, rc.spec.kind, rc.seed, kStreamLoaded), per_request, false, issuers,
        [](const Query&, Futures& futures) {
          for (auto& f : futures) {
            if (!f.get().ok()) return Outcome::kFailed;
          }
          return Outcome::kOk;
        });
    const LatencySummary s = summarize(replay.rtt_us);
    serve_p50 = s.p50;
    report.metric(LAYER, "serve.predict_us.p50", s.p50, "us");
    report.metric(LAYER, "serve.predict_us.p90", s.p90, "us");
    report.metric(LAYER, "net.self_us.p50", self_time(wire_rtt_p50_us, s.p50), "us");
  }

  // ---- core + encoding: one forward pass at the fill serverd observed,
  // and at a sweep's 60 ----
  const std::vector<data::JobRun>& hot = rc.queries[rc.zipf.ranking().front()];
  std::vector<data::JobRun> fill_batch;
  {
    const auto fill = static_cast<std::size_t>(std::clamp(std::lround(mean_fill), 1L, 4096L));
    QueryStream stream(rc.zipf, rc.spec.kind, rc.seed, kStreamLoaded);
    while (fill_batch.size() < fill) {
      const Query q = stream.next();
      if (sweep) {
        fill_batch.insert(fill_batch.end(), rc.queries[q.ctx].begin(), rc.queries[q.ctx].end());
      } else {
        fill_batch.push_back(rc.queries[q.ctx][q.scale_out - 1]);
      }
    }
    fill_batch.resize(fill);
  }
  const double forward_fill_us =
      time_per_call_us([&] { general.predict_batch(fill_batch); }, 64);
  report.metric(LAYER, "core.predict_batch_us.fill", forward_fill_us, "us");
  report.metric(LAYER, "core.predict_batch_us.b60",
                time_per_call_us([&] { general.predict_batch(hot); }, 32), "us");
  report.metric(LAYER, "encoding.encode_runs_us.b60",
                time_per_call_us([&] { general.encode_runs(hot); }, 32), "us");
  report.metric(LAYER, "serve.lane_wait_us.p50", self_time(serve_p50, forward_fill_us), "us");
}

}  // namespace perfbench
