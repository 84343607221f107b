// perfbench — the benchmark's generator and reference tool.  perfbench/run.py
// starts bellamy_serverd and calls it; see perfbench/README.md.
//
//   perfbench prepare --workload W --port P --work DIR
//       Set-up after serverd accepts: generate the corpus, pretrain the
//       general model, publish the 30 context models, and write the local
//       reference (checkpoint + expected predictions) to DIR.
//   perfbench drive --workload W --seed N --port P --work DIR --seconds S
//                   --trace 0|1 --workers N --refit-budget N
//       Run the workload's phases against serverd, check every answer, and
//       print one JSON object of metrics and check results.
//   perfbench drain --port P
//       Drain serverd over the wire (it exits once drained).

#include <sched.h>
#include <sys/prctl.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/trainer.hpp"
#include "net/client.hpp"
#include "stats.hpp"
#include "traffic.hpp"

using namespace bellamy;

namespace perfbench {
namespace {

constexpr auto E2E = Report::Group::kEndToEnd;
constexpr auto LAYER = Report::Group::kPerLayer;
/// Unmeasured closed-loop traffic before the first phase, so replicas and
/// lanes exist before anything is timed.
constexpr double kWarmupSeconds = 0.3;
/// A run whose generator sent more than this share of an open-loop phase
/// over kLateUs late reports no numbers.
constexpr double kMaxLateFrac = 0.25;

struct Args {
  std::string command, workload, work;
  std::uint64_t seed = 1;
  std::uint16_t port = 0;
  double seconds = 10.0;
  bool trace = false;
  std::size_t workers = 2;
  std::size_t refit_budget = 12;
};

bool parse_args(int argc, char** argv, Args& a) {
  if (argc < 2) return false;
  a.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--work") a.work = value;
    else if (flag == "--seed") a.seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--port") a.port = static_cast<std::uint16_t>(std::atoi(value));
    else if (flag == "--seconds") a.seconds = std::atof(value);
    else if (flag == "--trace") a.trace = std::atoi(value) != 0;
    else if (flag == "--workers") a.workers = std::strtoull(value, nullptr, 10);
    else if (flag == "--refit-budget") a.refit_budget = std::strtoull(value, nullptr, 10);
    else return false;
  }
  return (argc % 2) == 0 && a.port != 0 && a.seconds > 0.0;
}

net::ClientOptions client_options() {
  net::ClientOptions options;
  options.deadlines.connect = std::chrono::milliseconds(2000);
  return options;
}

bool connect(net::NetClient& client, const Args& a) {
  std::string error;
  if (client.connect("127.0.0.1", a.port, error)) return true;
  std::fprintf(stderr, "perfbench: cannot connect to 127.0.0.1:%u: %s\n", a.port, error.c_str());
  return false;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return std::thread::hardware_concurrency();
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::vector<std::vector<data::JobRun>> query_table(const Corpus& corpus) {
  std::vector<std::vector<data::JobRun>> table;
  for (const ContextData& ctx : corpus.contexts) table.push_back(sweep_queries(ctx));
  return table;
}

// ---------------------------------------------------------------- prepare

int prepare(const Args& a, const WorkloadSpec& spec) {
  const Corpus corpus = make_corpus();
  core::BellamyModel model(core::BellamyConfig{}, kModelSeed);
  core::PreTrainConfig pretrain;
  pretrain.epochs = spec.pretrain_epochs;
  const Clock::time_point t0 = Clock::now();
  core::pretrain(model, corpus.pretrain_runs, pretrain);
  const double pretrain_s = std::chrono::duration<double>(Clock::now() - t0).count();

  // Publish and predict from the checkpoint as written, so the reference
  // is exactly what serverd loads.
  const std::string path = a.work + "/general.ckpt";
  model.save(path);
  core::BellamyModel reference = core::BellamyModel::load(path);

  net::NetClient client(client_options());
  if (!connect(client, a)) return 1;
  for (const ContextData& ctx : corpus.contexts) {
    const auto published = client.publish(ctx.key, reference);
    if (!published.ok()) {
      std::fprintf(stderr, "perfbench: publish %s failed: %s\n", ctx.key.str().c_str(),
                   published.error_text().c_str());
      return 1;
    }
  }
  client.close();

  std::ofstream out(a.work + "/expected.txt");
  for (const auto& sweep : query_table(corpus)) {
    for (double v : reference.predict_batch(sweep)) {
      char line[64];
      std::snprintf(line, sizeof line, "%a\n", v);
      out << line;
    }
  }
  if (!out.flush()) {
    std::fprintf(stderr, "perfbench: cannot write %s/expected.txt\n", a.work.c_str());
    return 1;
  }
  std::printf("{\"pretrain_s\": %.9g}\n", pretrain_s);
  return 0;
}

int drain(const Args& a) {
  net::NetClient client(client_options());
  if (!connect(client, a)) return 1;
  const auto drained = client.drain();
  if (!drained.ok()) {
    std::fprintf(stderr, "perfbench: drain failed: %s\n", drained.error_text().c_str());
    return 1;
  }
  return 0;
}

// ------------------------------------------------------------------ drive

/// expected[ctx][scale_out - 1], as prepare wrote it.
bool load_expected(const Args& a, std::vector<std::vector<double>>& expected) {
  std::ifstream in(a.work + "/expected.txt");
  expected.assign(kContexts, std::vector<double>(kMaxScaleOut));
  std::string line;
  for (auto& row : expected) {
    for (double& v : row) {
      if (!std::getline(in, line)) return false;
      v = std::strtod(line.c_str(), nullptr);
    }
  }
  return true;
}

std::string phase_json(const PhaseResult& p) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"name\": \"%s\", \"sent\": %zu, \"succeeded\": %zu, \"failed\": %zu, "
                "\"wrong\": %zu, \"queries\": %zu, \"seconds\": %.6f, \"max_late_us\": %.1f, "
                "\"late\": %zu}",
                p.name, p.sent, p.succeeded, p.failed, p.wrong, p.queries, p.seconds,
                p.max_late_us, p.late);
  return buf;
}

/// Wire refits one at a time down the schedule: always the first pass, then
/// on while `more()` holds.  After each refit lands, the context's held-out
/// runs are read back over the wire.
void refit_loop(net::NetClient& client, const Corpus& corpus,
                const std::vector<RefitItem>& schedule, const std::function<bool()>& more,
                std::vector<FitSample>& fits) {
  for (std::size_t i = 0; i < kFirstPass || more(); ++i) {
    const RefitItem& item = schedule[i % schedule.size()];
    const ContextData& ctx = corpus.contexts[item.ctx];
    FitSample sample;
    sample.index = i;
    const Clock::time_point t0 = Clock::now();
    const auto fit = client.refit(ctx.key, refit_payload(corpus, item), core::FineTuneConfig{});
    sample.ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    const auto served = fit.ok() ? client.predict_many(ctx.key, ctx.heldout)
                                 : serve::ServeResult<std::vector<double>>::failure(
                                       fit.status(), fit.message());
    if (!served.ok() || served.value().size() != ctx.heldout.size()) {
      std::fprintf(stderr, "perfbench: refit %zu of %s failed: %s\n", i, ctx.key.str().c_str(),
                   served.ok() ? "short read-back" : served.error_text().c_str());
      sample.ms = kFailedSample;
    } else {
      sample.served = served.value();
      double sum = 0.0;
      for (std::size_t j = 0; j < ctx.heldout.size(); ++j) {
        sum += std::abs(sample.served[j] - ctx.heldout[j].runtime_s) / ctx.heldout[j].runtime_s;
      }
      sample.mre = sum / static_cast<double>(ctx.heldout.size());
    }
    fits.push_back(std::move(sample));
    if (i % 16 == 0) sample_threads();
  }
}

/// Read every context's ServeMetrics over the wire and check the
/// accounting invariants; polls briefly because a request abandoned at its
/// deadline may still be in a lane.
void server_counters(net::NetClient& control, const Corpus& corpus,
                     std::vector<serve::ServeMetrics>& out, Report& report) {
  std::string problem;
  for (int attempt = 0; attempt < 100; ++attempt) {
    out.clear();
    problem.clear();
    for (const ContextData& ctx : corpus.contexts) {
      const auto m = control.metrics(ctx.key);
      if (!m.ok()) {
        report.violation("metrics " + ctx.key.str() + ": " + m.error_text());
        return;
      }
      const serve::ServeMetrics& s = m.value();
      if (s.requests != s.responses) {
        problem = ctx.key.str() + ": requests " + std::to_string(s.requests) +
                  " != responses " + std::to_string(s.responses);
      } else if (s.coalesced + s.deadline_flushes + s.drain_flushes != s.batches) {
        problem = ctx.key.str() + ": coalesced + deadline_flushes + drain_flushes != batches";
      }
      out.push_back(s);
    }
    if (problem.empty()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  report.violation("ServeMetrics invariant: " + problem);
}

const PhaseResult& phase(const std::vector<PhaseResult>& phases, const char* name) {
  for (const PhaseResult& p : phases) {
    if (std::strcmp(p.name, name) == 0) return p;
  }
  throw std::logic_error(std::string("no phase ") + name);
}

int drive(const Args& a, const WorkloadSpec& spec) {
  // Sleeps of the open-loop sender wake on time, not up to 50 us late.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  const Corpus corpus = make_corpus();
  const Zipf zipf(kContexts, kZipfExponent, a.seed);
  // Thread cap (nproc = 4): a sender thread and a NetClient reader per
  // read connection, plus the refit thread and its connection's reader on
  // refit-under-load.
  const std::size_t connections = spec.kind == Kind::kRefit ? 1 : 2;
  RunContext rc{spec,        corpus,    zipf, a.seed, a.trace, a.workers, a.refit_budget,
                connections, a.work + "/general.ckpt", query_table(corpus)};
  const auto& queries = rc.queries;
  std::vector<std::vector<double>> expected;
  if (!load_expected(a, expected)) {
    std::fprintf(stderr, "perfbench: no reference in %s (run prepare first)\n", a.work.c_str());
    return 1;
  }
  const std::vector<RefitItem> schedule =
      refit_schedule(a.seed, kScheduleLength, kContexts, corpus.contexts.front().history.size());
  const std::vector<RefitItem> first_pass(schedule.begin(), schedule.begin() + kFirstPass);

  Report report;
  std::vector<PhaseResult> phases;
  std::vector<FitSample> fits;
  const double S = a.seconds;

  using PointFuture = std::future<serve::ServeResult<double>>;
  using SweepFuture = std::future<serve::ServeResult<std::vector<double>>>;
  auto point_issue = [&](net::NetClient& c) {
    return [&c, &corpus, &queries](const Query& q) {
      return c.predict_async(corpus.contexts[q.ctx].key, queries[q.ctx][q.scale_out - 1]);
    };
  };
  auto sweep_issue = [&](net::NetClient& c) {
    return [&c, &corpus, &queries](const Query& q) {
      return c.predict_many_async(corpus.contexts[q.ctx].key, queries[q.ctx]);
    };
  };
  // Served values must equal the local reference bit for bit.
  auto point_check = [&](const Query& q, PointFuture& f) {
    const auto r = f.get();
    if (!r.ok()) return Outcome::kFailed;
    return same_bits(r.value(), expected[q.ctx][q.scale_out - 1]) ? Outcome::kOk
                                                                   : Outcome::kWrong;
  };
  auto sweep_check = [&](const Query& q, SweepFuture& f) {
    const auto r = f.get();
    if (!r.ok()) return Outcome::kFailed;
    const std::vector<double>& v = r.value();
    if (v.size() != expected[q.ctx].size()) return Outcome::kWrong;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (!same_bits(v[i], expected[q.ctx][i])) return Outcome::kWrong;
    }
    return Outcome::kOk;
  };
  // Reads beside refits race the weight swaps, so only success counts.
  auto point_answered = [](const Query&, PointFuture& f) {
    return f.get().ok() ? Outcome::kOk : Outcome::kFailed;
  };

  // The read phases; the shares split the run's seconds between them.
  auto read_phases = [&](const auto& issuers, auto collect, std::size_t per_request,
                         double light_share, double loaded_share, double closed_share) {
    phases.push_back(closed_loop("warmup", kWarmupSeconds, spec.window, issuers, zipf, spec.kind,
                                 a.seed, kStreamWarmup, per_request, false, collect));
    phases.push_back(open_loop("light", spec.light_rate, light_share * S,
                               QueryStream(zipf, spec.kind, a.seed, kStreamLight), per_request,
                               a.trace, issuers, collect));
    phases.push_back(open_loop("loaded", spec.loaded_rate, loaded_share * S,
                               QueryStream(zipf, spec.kind, a.seed, kStreamLoaded), per_request,
                               a.trace, issuers, collect));
    phases.push_back(closed_loop("closed", closed_share * S, spec.window, issuers, zipf,
                                 spec.kind, a.seed, kStreamClosed, per_request, false, collect));
    if (a.trace) {
      phases.push_back(closed_loop("closed-traced", closed_share * S, spec.window, issuers, zipf,
                                   spec.kind, a.seed, kStreamClosed, per_request, true,
                                   collect));
    }
  };

  if (spec.kind != Kind::kRefit) {
    // Reads on two connections, then a refit probe with no reads on the
    // first.
    net::NetClient c0(client_options()), c1(client_options());
    if (!connect(c0, a) || !connect(c1, a)) return 1;
    if (spec.kind == Kind::kPoint) {
      const std::vector issuers{point_issue(c0), point_issue(c1)};
      read_phases(issuers, point_check, 1, 0.2, 0.2, 0.25);
    } else {
      const std::vector issuers{sweep_issue(c0), sweep_issue(c1)};
      read_phases(issuers, sweep_check, kMaxScaleOut, 0.2, 0.2, 0.25);
    }
    c1.close();
    const Clock::time_point probe_end =
        Clock::now() +
        std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(0.35 * S));
    refit_loop(c0, corpus, schedule, [&] { return Clock::now() < probe_end; }, fits);
  } else {
    // Refits from this thread on their own connection; reads from a second
    // thread on another.
    net::NetClient reads_conn(client_options()), refit_conn(client_options());
    if (!connect(reads_conn, a) || !connect(refit_conn, a)) return 1;
    std::atomic<bool> reads_done{false};
    std::thread reads([&] {
      const std::vector issuers{point_issue(reads_conn)};
      read_phases(issuers, point_answered, 1, 0.4, 0.3, 0.3);
      reads_done.store(true);
    });
    refit_loop(refit_conn, corpus, schedule, [&] { return !reads_done.load(); }, fits);
    reads.join();
  }

  // ---- checks that need the traffic to be over ----
  std::vector<serve::ServeMetrics> server;
  {
    net::NetClient control(client_options());
    if (!connect(control, a)) return 1;
    server_counters(control, corpus, server, report);
  }

  std::size_t attempted = fits.size(), failed = 0, sent = 0, late = 0, open_sent = 0;
  double max_late = 0.0;
  for (const PhaseResult& p : phases) {
    report.phase(phase_json(p));
    std::fprintf(stderr, "perfbench: phase %-13s sent %zu ok %zu failed %zu wrong %zu\n", p.name,
                 p.sent, p.succeeded, p.failed, p.wrong);
    attempted += p.sent;
    sent += p.sent;
    failed += p.failed;
    if (p.wrong != 0) {
      report.violation(std::to_string(p.wrong) + " answers in phase " + p.name +
                       " differ from the local reference model");
    }
    if (std::strcmp(p.name, "light") == 0 || std::strcmp(p.name, "loaded") == 0) {
      open_sent += p.sent;
      late += p.late;
      max_late = std::max(max_late, p.max_late_us);
      if (static_cast<double>(p.late) > kMaxLateFrac * static_cast<double>(p.sent)) {
        report.invalid(std::string("generator fell behind in phase ") + p.name + ": " +
                       std::to_string(p.late) + " sends over 1 ms late");
      }
    }
  }
  std::vector<double> fit_ms, mres;
  for (const FitSample& f : fits) {
    fit_ms.push_back(f.ms);
    if (f.ms == kFailedSample) {
      failed += 1;
    } else if (f.index < kFirstPass) {
      mres.push_back(f.mre);
    }
  }
  report.set_attempted(attempted, failed);
  const std::size_t threads = max_threads_seen(), cores = nproc();
  if (threads > cores) {
    report.invalid("generator used " + std::to_string(threads) + " threads on " +
                   std::to_string(cores) + " cores");
  }
  const std::size_t connections_open = connections + (spec.kind == Kind::kRefit ? 1 : 0);
  if (connections_open > cores) report.invalid("more connections than cores");

  // Fit percentiles are medians over the complete schedule blocks, each the
  // same mix of contexts and payload sizes; a trailing partial block would
  // bring its own mix and is left out.
  const std::size_t blocks = fit_ms.size() / kFirstPass;
  const std::vector<double> block_ms(
      fit_ms.begin(), fit_ms.begin() + static_cast<std::ptrdiff_t>(blocks * kFirstPass));
  std::vector<std::uint8_t> block_of;
  for (std::size_t i = 0; i < block_ms.size(); ++i) {
    block_of.push_back(static_cast<std::uint8_t>(i / kFirstPass));
  }
  const double fit_p50 = windowed_percentile(block_ms, block_of, blocks, 0.5);
  replay_refits(rc, first_pass, fits, fit_p50, report);

  // ---- end-to-end metrics ----
  const PhaseResult& light = phase(phases, "light");
  const PhaseResult& loaded = phase(phases, "loaded");
  const PhaseResult& closed = phase(phases, "closed");
  const auto windowed = [](const PhaseResult& p, double q) {
    return windowed_percentile(p.latency_us, p.window, kWindows, q);
  };
  const auto qps = [](const PhaseResult& p) {
    std::vector<double> rates;
    for (std::size_t n : p.window_queries) rates.push_back(static_cast<double>(n) / p.window_seconds);
    return median(rates);
  };
  report.metric(E2E, "predictions_per_s", qps(closed), "1/s");
  report.metric(E2E, "latency_p50_us", windowed(light, 0.5), "us");
  report.metric(E2E, "latency_p90_us", windowed(light, 0.9), "us");
  report.metric(E2E, "loaded_latency_p50_us", windowed(loaded, 0.5), "us");
  report.metric(E2E, "loaded_latency_p90_us", windowed(loaded, 0.9), "us");
  const LatencySummary ls = summarize(light.latency_us);
  const LatencySummary ld = summarize(loaded.latency_us);
  report.metric(E2E, "fit_p50_ms", fit_p50, "ms");
  report.metric(E2E, "fit_p90_ms", windowed_percentile(block_ms, block_of, blocks, 0.9), "ms");
  double mre_sum = 0.0;
  for (double m : mres) mre_sum += m;
  report.metric(E2E, "fit_mre", mre_sum / static_cast<double>(mres.size()), "ratio");

  if (a.trace) {
    report.metric(LAYER, "latency_p99_us", ls.p99, "us");
    report.metric(LAYER, "latency_p99.9_us", ls.p999, "us");
    report.metric(LAYER, "latency_samples", static_cast<double>(ls.samples), "count");
    report.metric(LAYER, "loaded_latency_p99_us", ld.p99, "us");
    report.metric(LAYER, "loaded_latency_p99.9_us", ld.p999, "us");
    report.metric(LAYER, "loaded_latency_samples", static_cast<double>(ld.samples), "count");
    report.metric(LAYER, "fit_samples", static_cast<double>(fit_ms.size()), "count");

    const LatencySummary rtt = summarize(loaded.rtt_us);
    report.metric(LAYER, "net.client_rtt_us.p50", rtt.p50, "us");
    report.metric(LAYER, "net.client_rtt_us.p90", rtt.p90, "us");

    // Server counters summed over the 30 handles; latency and deadline of
    // the hottest handle, which carries the most samples.
    serve::ServeMetrics sum;
    for (const serve::ServeMetrics& m : server) {
      sum.batches += m.batches;
      sum.responses += m.responses;
      sum.deadline_flushes += m.deadline_flushes;
      sum.replica_misses += m.replica_misses;
      sum.replica_invalidations += m.replica_invalidations;
      sum.max_queue_depth = std::max(sum.max_queue_depth, m.max_queue_depth);
      sum.max_dispatch_lag_us = std::max(sum.max_dispatch_lag_us, m.max_dispatch_lag_us);
    }
    const serve::ServeMetrics& hot = server.at(zipf.ranking().front());
    const double batches = std::max<double>(1.0, static_cast<double>(sum.batches));
    report.metric(LAYER, "serve.batches", static_cast<double>(sum.batches), "count");
    report.metric(LAYER, "serve.mean_batch_fill", sum.mean_batch_fill(), "count");
    report.metric(LAYER, "serve.deadline_flush_frac",
                  static_cast<double>(sum.deadline_flushes) / batches, "ratio");
    report.metric(LAYER, "serve.effective_flush_deadline_us",
                  static_cast<double>(hot.effective_flush_deadline_us), "us");
    report.metric(LAYER, "serve.max_queue_depth", static_cast<double>(sum.max_queue_depth),
                  "count");
    report.metric(LAYER, "serve.max_dispatch_lag_us",
                  static_cast<double>(sum.max_dispatch_lag_us), "us");
    report.metric(LAYER, "serve.server_latency_p50_us", static_cast<double>(hot.latency_p50_us),
                  "us");
    report.metric(LAYER, "serve.server_latency_p99_us", static_cast<double>(hot.latency_p99_us),
                  "us");
    report.metric(LAYER, "serve.replica_misses", static_cast<double>(sum.replica_misses),
                  "count");
    report.metric(LAYER, "serve.replica_invalidations",
                  static_cast<double>(sum.replica_invalidations), "count");

    report.metric(LAYER, "gen.sent", static_cast<double>(sent), "count");
    report.metric(LAYER, "gen.failed", static_cast<double>(failed), "count");
    report.metric(LAYER, "gen.max_late_us", max_late, "us");
    report.metric(LAYER, "gen.late_frac",
                  static_cast<double>(late) / std::max<double>(1.0, static_cast<double>(open_sent)),
                  "ratio");
    report.metric(LAYER, "gen.threads", static_cast<double>(threads), "count");
    report.metric(LAYER, "gen.connections", static_cast<double>(connections_open), "count");
    const PhaseResult& traced = phase(phases, "closed-traced");
    report.metric(LAYER, "tracing.overhead_frac", 1.0 - qps(traced) / qps(closed), "ratio");

    replay_layers(rc, loaded.seconds, sum.mean_batch_fill(), rtt.p50, report);

    // Spans stay in memory during the run and are written out here.
    std::ofstream spans(a.work + "/spans.csv");
    spans << "phase,due_ns,start_ns,done_ns\n";
    for (const PhaseResult& p : phases) {
      for (const Span& s : p.spans) {
        spans << p.name << ',' << s.due_ns << ',' << s.start_ns << ',' << s.done_ns << '\n';
      }
    }
  }

  std::printf("%s\n", report.json().c_str());
  std::fflush(stdout);
  if (!report.correct()) return 2;
  return report.valid() ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench prepare|drive|drain --port P [--workload W] [--work DIR] "
                 "[--seed N] [--seconds S] [--trace 0|1] [--workers N] [--refit-budget N]\n");
    return 64;
  }
  if (a.command == "drain") return drain(a);
  const WorkloadSpec* spec = find_workload(a.workload);
  if (spec == nullptr || a.work.empty()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s' or no --work\n", a.workload.c_str());
    return 64;
  }
  try {
    if (a.command == "prepare") return prepare(a, *spec);
    if (a.command == "drive") return drive(a, *spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench: unknown command '%s'\n", a.command.c_str());
  return 64;
}
