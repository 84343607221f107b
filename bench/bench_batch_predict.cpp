// Throughput of the prediction engine: per-sample loop vs one batched
// forward pass vs batched + threaded (chunks of one shared const model), at
// B in {1, 16, 256, 4096}.  The workload is a resource-selection-style
// sweep: every query shares the context template and varies the scale-out,
// which is exactly the many-query pattern the paper's reuse setting produces.
//
//   ./build/bench/bench_batch_predict [--threads=N] [--json=PATH|-]
//
// Reports predictions/sec per mode and the batched-over-loop speedup, and
// verifies that every mode produces identical predictions.  ALL
// human-readable progress goes to stderr; --json writes the measurements as
// a JSON document to the given path ("-" = stdout), so the artifact is
// machine-parseable even when both streams land in one log.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/bellamy_model.hpp"
#include "core/trainer.hpp"
#include "data/c3o_generator.hpp"
#include "parallel/thread_pool.hpp"
#include "util/timer.hpp"

using namespace bellamy;

namespace {

std::vector<data::JobRun> make_queries(const data::JobRun& context_template, std::size_t b) {
  std::vector<data::JobRun> queries;
  queries.reserve(b);
  for (std::size_t i = 0; i < b; ++i) {
    data::JobRun q = context_template;
    q.scale_out = static_cast<int>(1 + i % 60);  // sweep scale-outs 1..60
    queries.push_back(std::move(q));
  }
  return queries;
}

/// Every (mode, B) cell repeats its pass for at least this much wall time, so
/// small cells are not timed over a handful of microseconds.
constexpr double kMinCellSeconds = 0.2;

/// Predictions per second of `pass`, one call of which predicts `b` queries,
/// repeated until kMinCellSeconds have passed.
template <typename Pass>
double predictions_per_s(std::size_t b, Pass&& pass) {
  util::Timer timer;
  std::size_t passes = 0;
  double seconds = 0.0;
  do {
    pass();
    ++passes;
    seconds = timer.seconds();
  } while (seconds < kMinCellSeconds);
  return static_cast<double>(b * passes) / seconds;
}

double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      num_threads = static_cast<std::size_t>(std::atoi(argv[i] + 10));
      if (num_threads == 0) num_threads = 1;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "usage: %s [--threads=N] [--json=PATH|-]\n", argv[0]);
      return 2;
    }
  }

  // A quick pre-trained model; prediction cost does not depend on how long
  // it trained, so a short budget keeps bench start-up snappy.
  data::C3OGeneratorConfig gen_cfg;
  gen_cfg.seed = 71;
  const data::Dataset history = data::C3OGenerator(gen_cfg).generate_algorithm("sgd", 6);
  core::BellamyModel model(core::BellamyConfig{}, /*seed=*/71);
  core::PreTrainConfig pre;
  pre.epochs = 60;
  core::pretrain(model, history.runs(), pre);
  model.set_predict_chunk_threshold(0);  // modes 1/2 must stay single-pass
  parallel::ThreadPool pool(num_threads);

  const data::JobRun context_template = history.runs().front();
  std::fprintf(stderr, "bench_batch_predict: %zu thread(s)\n", num_threads);
  std::fprintf(stderr, "%8s %16s %16s %16s %12s\n", "B", "loop pred/s", "batch pred/s",
               "chunked pred/s", "batch/loop");

  bool all_identical = true;
  double speedup_256 = 0.0;
  struct Row {
    std::size_t b;
    double loop_rate, batch_rate, chunked_rate, speedup;
  };
  std::vector<Row> rows;
  for (const std::size_t b : {std::size_t{1}, std::size_t{16}, std::size_t{256},
                              std::size_t{4096}}) {
    const auto queries = make_queries(context_template, b);

    // Mode 1: per-sample loop (the pre-batching engine).
    std::vector<double> loop_preds(b);
    const double loop_rate = predictions_per_s(b, [&] {
      for (std::size_t i = 0; i < b; ++i) loop_preds[i] = model.predict_one(queries[i]);
    });

    // Mode 2: one stacked forward pass.
    std::vector<double> batch_preds;
    const double batch_rate =
        predictions_per_s(b, [&] { batch_preds = model.predict_batch(queries); });

    // Mode 3: contiguous chunks across the pool, every chunk predicting on
    // the same const model.
    std::vector<double> chunked_preds;
    const double chunked_rate = predictions_per_s(b, [&] {
      chunked_preds = model.predict_batch_chunked(queries, &pool, num_threads);
    });

    const double speedup = batch_rate / std::max(loop_rate, 1e-12);
    if (b == 256) speedup_256 = speedup;

    const double diff_batch = max_abs_diff(loop_preds, batch_preds);
    const double diff_chunked = max_abs_diff(loop_preds, chunked_preds);
    if (diff_batch > 1e-9 || diff_chunked > 1e-9) {
      all_identical = false;
      std::fprintf(stderr, "B=%zu: PREDICTION MISMATCH (batch %.3e, chunked %.3e)\n", b,
                   diff_batch, diff_chunked);
    }
    std::fprintf(stderr, "%8zu %16.0f %16.0f %16.0f %11.2fx\n", b, loop_rate, batch_rate,
                 chunked_rate, speedup);
    rows.push_back({b, loop_rate, batch_rate, chunked_rate, speedup});
  }

  std::fprintf(stderr, "predictions identical across modes: %s\n",
               all_identical ? "yes" : "NO");
  std::fprintf(stderr, "batched speedup at B=256: %.2fx (acceptance floor: 5x)\n",
               speedup_256);

  if (!json_path.empty()) {
    std::FILE* f = json_path == "-" ? stdout : std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    } else {
      std::fprintf(f, "{\n  \"threads\": %zu,\n  \"identical\": %s,\n  \"batches\": [\n",
                   num_threads, all_identical ? "true" : "false");
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto& r = rows[i];
        std::fprintf(f,
                     "    {\"b\": %zu, \"loop_per_s\": %.0f, \"batch_per_s\": %.0f, "
                     "\"chunked_per_s\": %.0f, \"speedup\": %.2f}%s\n",
                     r.b, r.loop_rate, r.batch_rate, r.chunked_rate, r.speedup,
                     i + 1 < rows.size() ? "," : "");
      }
      std::fprintf(f, "  ]\n}\n");
      if (f != stdout) {
        std::fclose(f);
        std::fprintf(stderr, "wrote %s\n", json_path.c_str());
      }
    }
  }
  if (!all_identical) return 1;
  return 0;
}
