// Fine-tuning with a frozen auto-encoder computes the property codes once per
// fit and steps only f and z.  These tests hold that shortcut to the recipe
// it replaces: a reference loop written here against the general
// train_step(batch, 0.0) — encoder forward, decoder forward and backward
// into g every epoch — must end in the same checkpoint, bit for bit, as
// finetune().  Both sides run in the same build, so the comparison holds
// under any compiler and FP flags.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/trainer.hpp"
#include "core/variants.hpp"
#include "data/c3o_generator.hpp"
#include "nn/lr_scheduler.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "util/rng.hpp"

namespace bellamy::core {
namespace {

struct Fixture {
  nn::Checkpoint general;            ///< pre-trained on every other context
  std::vector<data::JobRun> target;  ///< the context to fine-tune on
};

const Fixture& fixture() {
  static const Fixture fx = [] {
    data::C3OGeneratorConfig gcfg;
    gcfg.seed = 29;
    const data::Dataset ds = data::C3OGenerator(gcfg).generate_algorithm("sgd", 5);
    const auto groups = ds.contexts();
    Fixture out;
    out.target = groups.front().runs;
    BellamyModel model(BellamyConfig{}, 17);
    PreTrainConfig pre;
    pre.epochs = 150;
    pre.dropout = 0.05;
    pretrain(model, ds.exclude_context(groups.front().key).runs(), pre);
    out.general = model.to_checkpoint();
    return out;
  }();
  return fx;
}

// finetune()'s recipe on the general training step: Adam, CyclicalLr, f
// unlocking at max(10, 100 / n), best-state snapshots, patience and the MAE
// target, full batch or seeded mini-batches.  Every step runs g and h.
FineTuneResult reference_finetune(BellamyModel& model, const std::vector<data::JobRun>& runs,
                                  const FineTuneConfig& config) {
  if (!model.normalization_fitted()) model.fit_normalization(runs);
  model.set_dropout_rate(0.0);
  const std::size_t unlock_after =
      config.unlock_f_immediately
          ? 0
          : (config.unlock_f_after > 0 ? config.unlock_f_after
                                       : std::max<std::size_t>(10, 100 / runs.size()));
  model.set_trainable_components(unlock_after == 0, false, false, true);

  nn::Adam::Config adam;
  adam.lr = config.base_lr;
  adam.weight_decay = config.weight_decay;
  nn::Adam optimizer(model.parameters(), adam);
  const nn::CyclicalLr schedule(config.base_lr, config.max_lr, config.lr_cycle);
  const bool minibatch = config.batch_size > 0 && config.batch_size < runs.size();

  const BellamyBatch batch = model.make_batch(runs);
  const BellamyEncodedRuns encoded = model.encode_runs(runs);
  util::Rng rng(config.seed);
  std::vector<std::size_t> order(runs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  FineTuneResult result;
  double best_mae = model.evaluate(batch, 0.0).mae_seconds;
  auto best_state = model.snapshot_parameters();
  std::size_t best_epoch = 0;
  if (best_mae <= config.mae_target_seconds) {
    result.best_mae_seconds = best_mae;
    result.reached_target = true;
    model.set_training(false);
    return result;
  }
  for (std::size_t epoch = 0; epoch < config.max_epochs; ++epoch) {
    if (epoch == unlock_after && unlock_after > 0) model.f().set_trainable(true);
    optimizer.set_learning_rate(schedule.lr_at(epoch));
    double mae = 0.0;
    if (!minibatch) {
      optimizer.zero_grad();
      mae = model.train_step(batch, 0.0).mae_seconds;  // pre-step parameters
    } else {
      rng.shuffle(order);
      for (std::size_t begin = 0; begin < order.size(); begin += config.batch_size) {
        const std::size_t end = std::min(order.size(), begin + config.batch_size);
        optimizer.zero_grad();
        model.train_step(
            model.gather_batch(encoded, std::span(order.data() + begin, end - begin)), 0.0);
        optimizer.step();
      }
      mae = model.evaluate(batch, 0.0).mae_seconds;  // post-step parameters
    }
    if (mae < best_mae) {
      best_mae = mae;
      best_state = model.snapshot_parameters();
      best_epoch = epoch;
    }
    if (!minibatch) optimizer.step();
    ++result.epochs_run;
    if (best_mae <= config.mae_target_seconds) {
      result.reached_target = true;
      break;
    }
    if (epoch - best_epoch >= config.patience) break;
  }
  model.restore_parameters(best_state);
  model.set_training(false);
  result.best_mae_seconds = best_mae;
  return result;
}

void expect_same_fit(ReuseStrategy strategy, FineTuneConfig base) {
  const Fixture& fx = fixture();
  BellamyModel fast = BellamyModel::from_checkpoint(fx.general);
  BellamyModel reference = BellamyModel::from_checkpoint(fx.general);
  const FineTuneConfig cfg = apply_reuse_strategy(strategy, fast, base);
  EXPECT_EQ(apply_reuse_strategy(strategy, reference, base).unlock_f_immediately,
            cfg.unlock_f_immediately);

  const FineTuneResult got = finetune(fast, fx.target, cfg);
  const FineTuneResult want = reference_finetune(reference, fx.target, cfg);

  // The fit must get past f's unlock epoch, or partial-unfreeze would not
  // cover the switch from z-only to f+z steps.
  EXPECT_GT(want.epochs_run, std::max<std::size_t>(10, 100 / fx.target.size()));
  EXPECT_EQ(got.epochs_run, want.epochs_run);
  EXPECT_EQ(got.best_mae_seconds, want.best_mae_seconds);
  EXPECT_EQ(got.reached_target, want.reached_target);
  const nn::Checkpoint a = fast.to_checkpoint();
  const nn::Checkpoint b = reference.to_checkpoint();
  EXPECT_EQ(a.meta, b.meta);
  // Matrix::operator== compares every double bit for bit.
  EXPECT_TRUE(a.matrices == b.matrices) << strategy_name(strategy);
}

FineTuneConfig full_batch_config() {
  FineTuneConfig cfg;
  cfg.max_epochs = 600;
  cfg.patience = 200;
  cfg.mae_target_seconds = 0.5;
  return cfg;
}

FineTuneConfig minibatch_config() {
  FineTuneConfig cfg = full_batch_config();
  cfg.max_epochs = 150;
  cfg.batch_size = 4;  // several mini-batches per epoch, with a ragged tail
  return cfg;
}

TEST(FinetuneReference, PartialUnfreezeMatchesGeneralStep) {
  expect_same_fit(ReuseStrategy::kPartialUnfreeze, full_batch_config());
}

TEST(FinetuneReference, FullUnfreezeMatchesGeneralStep) {
  expect_same_fit(ReuseStrategy::kFullUnfreeze, full_batch_config());
}

TEST(FinetuneReference, PartialResetMatchesGeneralStep) {
  expect_same_fit(ReuseStrategy::kPartialReset, full_batch_config());
}

TEST(FinetuneReference, MinibatchPartialUnfreezeMatchesGeneralStep) {
  expect_same_fit(ReuseStrategy::kPartialUnfreeze, minibatch_config());
}

TEST(FinetuneReference, MinibatchPartialResetMatchesGeneralStep) {
  expect_same_fit(ReuseStrategy::kPartialReset, minibatch_config());
}

TEST(FinetuneFrozen, StepWithCodesMatchesGeneralStep) {
  // One step: the supplied codes give the general step's loss and the same
  // f and z gradients, and leave g and h without any.
  BellamyModel a = BellamyModel::from_checkpoint(fixture().general);
  BellamyModel b = BellamyModel::from_checkpoint(fixture().general);
  for (BellamyModel* m : {&a, &b}) {
    m->set_dropout_rate(0.0);
    m->set_trainable_components(true, false, false, true);
    for (nn::Parameter* p : m->parameters()) p->zero_grad();
  }
  const BellamyBatch batch = a.make_batch(fixture().target);
  const nn::Matrix codes = a.g().infer(batch.properties);
  const BellamyLoss with_codes = a.train_step(batch, 0.0, &codes);
  const BellamyLoss general = b.train_step(batch, 0.0);
  EXPECT_EQ(with_codes.total, general.total);
  EXPECT_EQ(with_codes.mae_seconds, general.mae_seconds);
  for (auto [ma, mb] : {std::pair{&a.f(), &b.f()}, std::pair{&a.z(), &b.z()}}) {
    const auto pa = ma->parameters();
    const auto pb = mb->parameters();
    for (std::size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i]->grad, pb[i]->grad) << pa[i]->name;
    }
  }
  for (nn::Sequential* frozen : {&a.g(), &a.h()}) {
    for (const nn::Parameter* p : frozen->parameters()) {
      EXPECT_EQ(p->grad.squared_norm(), 0.0) << p->name;
    }
  }
}

TEST(FinetuneFrozen, CodesRequireFrozenEncoderAndNoReconstruction) {
  BellamyModel model = BellamyModel::from_checkpoint(fixture().general);
  model.set_dropout_rate(0.0);
  const BellamyBatch batch = model.make_batch(fixture().target);
  const nn::Matrix codes = model.g().infer(batch.properties);

  model.set_trainable_components(true, /*g_on=*/true, false, true);
  EXPECT_THROW(model.train_step(batch, 0.0, &codes), std::logic_error);

  model.set_trainable_components(true, false, false, true);
  EXPECT_THROW(model.train_step(batch, 0.5, &codes), std::logic_error);

  const nn::Matrix wrong_shape(codes.rows() + 1, codes.cols());
  EXPECT_THROW(model.train_step(batch, 0.0, &wrong_shape), std::invalid_argument);

  EXPECT_NO_THROW(model.train_step(batch, 0.0, &codes));
}

}  // namespace
}  // namespace bellamy::core
