// Throughput of the batched training engine and the blocked GEMM kernels.
//
//   ./build/bench/bench_train_step [--epochs=N] [--json=PATH] [--skip-1024]
//
// Section 1 — GEMM: blocked matmul / matmul_tn / matmul_nt vs the naive
// matmul*_ref triple loops at 512x512x512 (acceptance floor: 3x for matmul).
//
// Section 1b — threaded GEMM: the blocked kernel split across a ThreadPool
// at 512^3 and 1024^3 with 1/4/8 threads, verified bit-identical to the
// serial kernel.
//
// Section 2 — pre-training epochs at batch size 64: the per-sample baseline
// (one singleton train_step per run, gradients accumulated and scaled by
// 1/B — the pre-batching engine) vs the batched path (encode-once corpus,
// dedup gather per mini-batch, one stacked forward/backward).  Both modes
// follow the same parameter trajectory, so their final losses must agree to
// 1e-9; the acceptance floor for the epoch speedup is 4x.
//
// Section 3 — fine-tune epoch: the default FineTuneConfig (frozen
// auto-encoder, z first, f later) on one context of a model pre-trained on
// the other contexts, with fixed seeds.  Reports µs per epoch (fit time over
// epochs run, best of several fits from the same checkpoint) and the epochs
// run; every repeat must run the same epochs to the same state.
//
// --json writes the measurements as a small JSON document (CI artifact;
// scripts/bench-compare.py diffs it against bench/baselines/).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/bellamy_model.hpp"
#include "core/trainer.hpp"
#include "data/c3o_generator.hpp"
#include "nn/matrix.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "parallel/thread_pool.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace bellamy;

namespace {

struct GemmResult {
  const char* name;
  double blocked_s;
  double ref_s;
  double max_diff;
  double speedup() const { return ref_s / std::max(blocked_s, 1e-12); }
};

template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    util::Timer timer;
    fn();
    best = std::min(best, timer.seconds());
  }
  return best;
}

GemmResult bench_gemm(const char* name, const nn::Matrix& a, const nn::Matrix& b,
                      nn::Matrix (*blocked)(const nn::Matrix&, const nn::Matrix&),
                      nn::Matrix (*ref)(const nn::Matrix&, const nn::Matrix&)) {
  nn::Matrix out_blocked = blocked(a, b);  // warm-up + correctness operand
  const nn::Matrix out_ref = ref(a, b);
  GemmResult res;
  res.name = name;
  res.max_diff = nn::Matrix::max_abs_diff(out_blocked, out_ref);
  res.blocked_s = best_of(3, [&] { out_blocked = blocked(a, b); });
  res.ref_s = best_of(3, [&] { out_blocked = ref(a, b); });
  return res;
}

struct ThreadedGemmResult {
  std::size_t size = 0;
  double serial_s = 0.0;
  std::size_t threads[3] = {1, 4, 8};
  double threaded_s[3] = {0.0, 0.0, 0.0};
  bool identical = true;
  double speedup_t8() const { return serial_s / std::max(threaded_s[2], 1e-12); }
};

// Serial vs pool-split blocked GEMM at one size; each thread count runs on
// its own pool and the output is checked bit-identical to the serial kernel.
ThreadedGemmResult bench_threaded_gemm(std::size_t size, std::uint64_t seed) {
  using nn::Matrix;
  util::Rng rng(seed);
  const Matrix a = Matrix::randn(size, size, rng);
  const Matrix b = Matrix::randn(size, size, rng);
  const std::size_t saved_flops = Matrix::gemm_min_flops();

  ThreadedGemmResult res;
  res.size = size;
  Matrix::set_gemm_min_flops(static_cast<std::size_t>(-1));  // force serial
  Matrix serial = Matrix::matmul(a, b);
  res.serial_s = best_of(3, [&] { serial = Matrix::matmul(a, b); });

  Matrix::set_gemm_min_flops(0);  // always thread
  for (int t = 0; t < 3; ++t) {
    parallel::ThreadPool pool(res.threads[t]);
    Matrix::set_gemm_pool(&pool);
    Matrix out = Matrix::matmul(a, b);
    if (!(out == serial)) res.identical = false;
    res.threaded_s[t] = best_of(3, [&] { out = Matrix::matmul(a, b); });
    Matrix::set_gemm_pool(nullptr);
  }
  Matrix::set_gemm_min_flops(saved_flops);
  return res;
}

struct EpochResult {
  double per_sample_s = 0.0;  ///< mean wall-clock per epoch, per-sample mode
  double batched_s = 0.0;     ///< mean wall-clock per epoch, batched mode
  double per_sample_loss = 0.0;
  double batched_loss = 0.0;
  double speedup() const { return per_sample_s / std::max(batched_s, 1e-12); }
  double loss_diff() const { return std::abs(per_sample_loss - batched_loss); }
};

// The pre-batching engine: one singleton train_step per sample, gradients
// accumulated across the mini-batch and scaled by 1/B before the Adam step.
// This follows the exact same parameter trajectory as the batched path.
double per_sample_epoch(core::BellamyModel& model, const std::vector<data::JobRun>& runs,
                        const std::vector<std::size_t>& order, std::size_t batch_size,
                        nn::Adam& optimizer) {
  double epoch_loss = 0.0;
  std::size_t batches = 0;
  const auto params = model.parameters();
  for (std::size_t begin = 0; begin < order.size(); begin += batch_size) {
    const std::size_t end = std::min(order.size(), begin + batch_size);
    const double inv_b = 1.0 / static_cast<double>(end - begin);
    optimizer.zero_grad();
    double batch_loss = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const auto loss = model.train_step(model.make_batch({runs[order[i]]}), 1.0);
      batch_loss += loss.total;
    }
    for (nn::Parameter* p : params) p->grad *= inv_b;
    optimizer.step();
    epoch_loss += batch_loss * inv_b;
    ++batches;
  }
  return epoch_loss / static_cast<double>(batches);
}

double batched_epoch(core::BellamyModel& model, const core::BellamyEncodedRuns& encoded,
                     const std::vector<std::size_t>& order, std::size_t batch_size,
                     nn::Adam& optimizer) {
  double epoch_loss = 0.0;
  std::size_t batches = 0;
  for (std::size_t begin = 0; begin < order.size(); begin += batch_size) {
    const std::size_t end = std::min(order.size(), begin + batch_size);
    const std::span<const std::size_t> indices(order.data() + begin, end - begin);
    optimizer.zero_grad();
    const auto loss = model.train_step(model.gather_batch(encoded, indices), 1.0);
    optimizer.step();
    epoch_loss += loss.total;
    ++batches;
  }
  return epoch_loss / static_cast<double>(batches);
}

EpochResult bench_epochs(const std::vector<data::JobRun>& runs, std::size_t epochs,
                         std::size_t batch_size) {
  EpochResult res;
  // Two identically seeded models so both modes train the same network.
  // Dropout 0: the equivalence requires the deterministic path (the batched
  // engine shares dropout masks across deduplicated rows by design).
  auto make_model = [&] {
    core::BellamyModel model(core::BellamyConfig{}, /*seed=*/71);
    model.fit_normalization(runs);
    model.set_dropout_rate(0.0);
    model.set_trainable_components(true, true, true, true);
    return model;
  };
  nn::Adam::Config adam;
  adam.lr = 1e-2;
  adam.weight_decay = 1e-3;

  {
    core::BellamyModel model = make_model();
    nn::Adam optimizer(model.parameters(), adam);
    util::Rng rng(7);
    std::vector<std::size_t> order(runs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    util::Timer timer;
    for (std::size_t e = 0; e < epochs; ++e) {
      rng.shuffle(order);
      res.per_sample_loss = per_sample_epoch(model, runs, order, batch_size, optimizer);
    }
    res.per_sample_s = timer.seconds() / static_cast<double>(epochs);
  }
  {
    core::BellamyModel model = make_model();
    nn::Adam optimizer(model.parameters(), adam);
    util::Rng rng(7);
    std::vector<std::size_t> order(runs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    const core::BellamyEncodedRuns encoded = model.encode_runs(runs);
    util::Timer timer;
    for (std::size_t e = 0; e < epochs; ++e) {
      rng.shuffle(order);
      res.batched_loss = batched_epoch(model, encoded, order, batch_size, optimizer);
    }
    res.batched_s = timer.seconds() / static_cast<double>(epochs);
  }
  return res;
}

struct FinetuneEpochResult {
  std::size_t runs = 0;        ///< runs in the fine-tuned context
  std::size_t epochs_run = 0;  ///< epochs of one fit
  std::size_t reps = 0;        ///< fits timed
  double best_fit_s = 0.0;     ///< fastest fit
  bool repeatable = true;      ///< every repeat ran the same epochs to the same state
  std::uint64_t stamp = 0;     ///< state_stamp() of the fitted model
  double epoch_us() const {
    return best_fit_s * 1e6 / static_cast<double>(std::max<std::size_t>(1, epochs_run));
  }
};

// Fine-tune one context, repeatedly, from the same pre-trained checkpoint.
FinetuneEpochResult bench_finetune_epoch(const data::Dataset& history) {
  const auto groups = history.contexts();
  const auto& target = groups.front();
  core::BellamyModel general(core::BellamyConfig{}, /*seed=*/73);
  core::PreTrainConfig pre;
  pre.epochs = 300;
  core::pretrain(general, history.exclude_context(target.key).runs(), pre);
  const nn::Checkpoint ckpt = general.to_checkpoint();

  FinetuneEpochResult res;
  res.runs = target.runs.size();
  util::Timer total;
  while (res.reps < 5 || (total.seconds() < 0.5 && res.reps < 200)) {
    core::BellamyModel model = core::BellamyModel::from_checkpoint(ckpt);
    util::Timer timer;
    const core::FineTuneResult fit = core::finetune(model, target.runs, core::FineTuneConfig{});
    const double seconds = timer.seconds();
    if (res.reps == 0) {
      res.epochs_run = fit.epochs_run;
      res.best_fit_s = seconds;
      res.stamp = model.state_stamp();
    } else {
      res.best_fit_s = std::min(res.best_fit_s, seconds);
      res.repeatable = res.repeatable && fit.epochs_run == res.epochs_run &&
                       model.state_stamp() == res.stamp;
    }
    ++res.reps;
  }
  return res;
}

void write_json(const std::string& path, const std::vector<GemmResult>& gemms,
                const std::vector<ThreadedGemmResult>& threaded, const EpochResult& epoch,
                std::size_t num_runs, std::size_t epochs, std::size_t batch_size,
                const FinetuneEpochResult& finetune) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"gemm_512\": {\n");
  for (std::size_t i = 0; i < gemms.size(); ++i) {
    const auto& g = gemms[i];
    std::fprintf(f,
                 "    \"%s\": {\"blocked_ms\": %.3f, \"ref_ms\": %.3f, "
                 "\"speedup\": %.2f, \"max_diff\": %.3e}%s\n",
                 g.name, g.blocked_s * 1e3, g.ref_s * 1e3, g.speedup(), g.max_diff,
                 i + 1 < gemms.size() ? "," : "");
  }
  std::fprintf(f, "  },\n  \"gemm_threaded\": {\n");
  for (std::size_t i = 0; i < threaded.size(); ++i) {
    const auto& t = threaded[i];
    std::fprintf(f,
                 "    \"size_%zu\": {\"serial_ms\": %.3f, \"t1_ms\": %.3f, "
                 "\"t4_ms\": %.3f, \"t8_ms\": %.3f, \"speedup_t8\": %.2f, "
                 "\"identical\": %s}%s\n",
                 t.size, t.serial_s * 1e3, t.threaded_s[0] * 1e3, t.threaded_s[1] * 1e3,
                 t.threaded_s[2] * 1e3, t.speedup_t8(), t.identical ? "true" : "false",
                 i + 1 < threaded.size() ? "," : "");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f,
               "  \"pretrain_epoch\": {\"runs\": %zu, \"epochs\": %zu, \"batch_size\": %zu, "
               "\"per_sample_ms\": %.2f, \"batched_ms\": %.2f, \"speedup\": %.2f, "
               "\"final_loss_diff\": %.3e},\n",
               num_runs, epochs, batch_size, epoch.per_sample_s * 1e3, epoch.batched_s * 1e3,
               epoch.speedup(), epoch.loss_diff());
  std::fprintf(f,
               "  \"finetune_epoch\": {\"runs\": %zu, \"epochs_run\": %zu, \"reps\": %zu, "
               "\"epoch_us\": %.2f, \"fit_ms\": %.3f, \"state_stamp\": \"%016llx\", "
               "\"repeatable\": %s}\n}\n",
               finetune.runs, finetune.epochs_run, finetune.reps, finetune.epoch_us(),
               finetune.best_fit_s * 1e3, static_cast<unsigned long long>(finetune.stamp),
               finetune.repeatable ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t epochs = 5;
  std::string json_path;
  bool skip_1024 = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--epochs=", 9) == 0) {
      epochs = std::max(1, std::atoi(argv[i] + 9));
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--skip-1024") == 0) {
      skip_1024 = true;
    } else {
      std::fprintf(stderr, "usage: %s [--epochs=N] [--json=PATH] [--skip-1024]\n", argv[0]);
      return 2;
    }
  }

  // ---- Section 1: blocked GEMM vs naive reference at 512^3 -----------------
  util::Rng rng(3);
  const nn::Matrix a = nn::Matrix::randn(512, 512, rng);
  const nn::Matrix b = nn::Matrix::randn(512, 512, rng);
  std::vector<GemmResult> gemms;
  gemms.push_back(bench_gemm("matmul", a, b, &nn::Matrix::matmul, &nn::Matrix::matmul_ref));
  gemms.push_back(
      bench_gemm("matmul_tn", a, b, &nn::Matrix::matmul_tn, &nn::Matrix::matmul_tn_ref));
  gemms.push_back(
      bench_gemm("matmul_nt", a, b, &nn::Matrix::matmul_nt, &nn::Matrix::matmul_nt_ref));

  const double flops = 2.0 * 512.0 * 512.0 * 512.0;
  std::printf("GEMM 512x512x512 (blocked vs naive reference)\n");
  std::printf("%-10s %12s %12s %10s %10s %12s\n", "kernel", "blocked ms", "ref ms",
              "GFLOP/s", "speedup", "max |diff|");
  for (const auto& g : gemms) {
    std::printf("%-10s %12.1f %12.1f %10.2f %9.2fx %12.2e\n", g.name, g.blocked_s * 1e3,
                g.ref_s * 1e3, flops / g.blocked_s / 1e9, g.speedup(), g.max_diff);
  }
  std::printf("blocked matmul speedup: %.2fx (acceptance floor: 3x)\n\n",
              gemms[0].speedup());

  // ---- Section 1b: threaded blocked GEMM -----------------------------------
  std::vector<ThreadedGemmResult> threaded;
  threaded.push_back(bench_threaded_gemm(512, 5));
  if (!skip_1024) threaded.push_back(bench_threaded_gemm(1024, 6));

  std::printf("threaded GEMM (blocked kernel split over a ThreadPool)\n");
  std::printf("%-10s %11s %11s %11s %11s %10s %10s\n", "size", "serial ms", "1 thr ms",
              "4 thr ms", "8 thr ms", "8-thr spd", "identical");
  bool threaded_identical = true;
  for (const auto& t : threaded) {
    std::printf("%zu^3%6s %11.1f %11.1f %11.1f %11.1f %9.2fx %10s\n", t.size, "",
                t.serial_s * 1e3, t.threaded_s[0] * 1e3, t.threaded_s[1] * 1e3,
                t.threaded_s[2] * 1e3, t.speedup_t8(), t.identical ? "yes" : "NO");
    threaded_identical = threaded_identical && t.identical;
  }
  std::printf("threaded == serial bit-identical: %s\n\n",
              threaded_identical ? "yes" : "NO");

  // ---- Section 2: pre-training epoch, per-sample vs batched ----------------
  data::C3OGeneratorConfig gen_cfg;
  gen_cfg.seed = 71;
  const data::Dataset history = data::C3OGenerator(gen_cfg).generate_algorithm("sort", 6);
  const auto& runs = history.runs();
  constexpr std::size_t kBatchSize = 64;
  std::printf("pre-training: %zu runs, batch size %zu, %zu epoch(s) per mode\n", runs.size(),
              kBatchSize, epochs);

  const EpochResult epoch = bench_epochs(runs, epochs, kBatchSize);
  std::printf("%-28s %12.1f ms/epoch\n", "per-sample baseline", epoch.per_sample_s * 1e3);
  std::printf("%-28s %12.1f ms/epoch\n", "batched (dedup gather)", epoch.batched_s * 1e3);
  std::printf("epoch speedup: %.2fx (acceptance floor: 4x)\n", epoch.speedup());
  std::printf("final epoch loss: per-sample %.12f vs batched %.12f (|diff| %.2e)\n",
              epoch.per_sample_loss, epoch.batched_loss, epoch.loss_diff());

  const bool losses_match = epoch.loss_diff() <= 1e-9;
  std::printf("losses match to 1e-9: %s\n", losses_match ? "yes" : "NO");

  // ---- Section 3: fine-tune epoch (default FineTuneConfig) ----------------
  const FinetuneEpochResult finetune = bench_finetune_epoch(history);
  std::printf("\nfine-tuning: %zu runs, default FineTuneConfig, best of %zu fits\n",
              finetune.runs, finetune.reps);
  std::printf("%-28s %12.2f us/epoch (%zu epochs, %.3f ms/fit)\n", "fine-tune epoch",
              finetune.epoch_us(), finetune.epochs_run, finetune.best_fit_s * 1e3);
  std::printf("fitted state stamp %016llx; repeat fits identical: %s\n",
              static_cast<unsigned long long>(finetune.stamp),
              finetune.repeatable ? "yes" : "NO");

  if (!json_path.empty()) {
    write_json(json_path, gemms, threaded, epoch, runs.size(), epochs, kBatchSize, finetune);
  }
  return (losses_match && threaded_identical && finetune.repeatable) ? 0 : 1;
}
