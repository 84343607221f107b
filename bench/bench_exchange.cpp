// The exchange layer's acceptance bench: what does a NEW node pay to start
// serving a job — pretraining from scratch, or warm-starting off a peer that
// already has it?
//
//   ./build/bench/bench_exchange [--epochs=N] [--json=PATH|-]
//
// Node A (a full in-process serving stack: registry + service + ServeServer
// + ExchangeRegistry on an ephemeral loopback port) pretrains and publishes
// the model.  Node B joins with a TcpTransport peer and resolves:
//
//   * the EXACT key        -> pull over TCP, install (exchange_pull_ms)
//   * a same-job NEW context -> pull the base + derive (exchange_warm_start_ms)
//
// against the cost node A paid (exchange_pretrain_scratch_ms).  The bench
// FAILS (exit 1) if the pulled weights are not byte-identical to node A's
// checkpoint or if the warm start is not faster than the pretrain — that is
// the whole point of the subsystem.  --json emits keys for
// scripts/bench-compare.py (*_ms lower-better, *speedup* higher-better).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "core/trainer.hpp"
#include "data/c3o_generator.hpp"
#include "exchange/exchange.hpp"
#include "net/net.hpp"
#include "serve/serve.hpp"
#include "util/timer.hpp"

using namespace bellamy;

namespace {

/// A full serving node on an ephemeral loopback port, exchange attached.
struct Node {
  Node() : ex(registry) {
    serve::ServeOptions options;
    options.workers = 2;
    service.emplace(registry, options);
    net::ServerOptions server_options;
    server_options.peer_service = &ex;
    server.emplace(registry, *service, server_options);
    std::string error;
    if (!server->start(error)) {
      std::fprintf(stderr, "server start failed: %s\n", error.c_str());
      std::exit(1);
    }
  }
  ~Node() {
    ex.stop();
    server->stop();
    server.reset();
    service.reset();
  }

  serve::ModelRegistry registry;
  exchange::ExchangeRegistry ex;
  std::optional<serve::PredictionService> service;
  std::optional<net::ServeServer> server;
};

std::string text_of(serve::ModelRegistry& registry, const serve::ModelKey& key) {
  const auto handle = registry.find(key);
  if (!handle.ok()) return {};
  auto text = registry.checkpoint_text(handle.value());
  return text.ok() ? text.take() : std::string();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t epochs = 300;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--epochs=", 9) == 0) {
      epochs = static_cast<std::size_t>(std::max(1, std::atoi(argv[i] + 9)));
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "usage: %s [--epochs=N] [--json=PATH|-]\n", argv[0]);
      return 2;
    }
  }

  data::C3OGeneratorConfig gen_cfg;
  gen_cfg.seed = 71;
  const data::Dataset history = data::C3OGenerator(gen_cfg).generate_algorithm("sgd", 6);
  const serve::ModelKey seed_key{"sgd", "ctx-origin"};
  const serve::ModelKey fresh_key{"sgd", "ctx-new"};

  // ---- node A: the one pretrain the mesh ever pays for ----
  Node a;
  double pretrain_ms = 0.0;
  {
    core::BellamyModel model(core::BellamyConfig{}, /*seed=*/71);
    core::PreTrainConfig pre;
    pre.epochs = epochs;
    util::Timer timer;
    core::pretrain(model, history.runs(), pre);
    pretrain_ms = timer.seconds() * 1e3;
    if (!a.ex.publish(seed_key, model).ok()) {
      std::fprintf(stderr, "publish at node A failed\n");
      return 1;
    }
  }
  std::fprintf(stderr, "node A: pretrained %zu epochs in %.1f ms, serving on port %u\n",
               epochs, pretrain_ms, a.server->port());

  // ---- node B: joins the mesh, never pretrains ----
  Node b;
  b.ex.add_peer(std::make_shared<exchange::TcpTransport>("127.0.0.1", a.server->port()));

  util::Timer pull_timer;
  const auto pulled = b.ex.open(seed_key);  // exact key: TCP pull + install
  const double pull_ms = pull_timer.seconds() * 1e3;
  if (!pulled.ok()) {
    std::fprintf(stderr, "pull-on-miss failed: %s\n", pulled.error_text().c_str());
    return 1;
  }

  util::Timer warm_start_timer;
  const auto warm = b.ex.open(fresh_key);  // new context: base reuse + derive
  const double warm_ms = warm_start_timer.seconds() * 1e3;
  if (!warm.ok()) {
    std::fprintf(stderr, "warm start failed: %s\n", warm.error_text().c_str());
    return 1;
  }

  const bool identical =
      !text_of(b.registry, seed_key).empty() &&
      text_of(b.registry, seed_key) == text_of(a.registry, seed_key) &&
      text_of(b.registry, fresh_key) == text_of(a.registry, seed_key);
  const double speedup = warm_ms > 0.0 ? pretrain_ms / warm_ms : 0.0;

  std::fprintf(stderr,
               "node B: exact-key pull %.2f ms, warm start %.2f ms vs %.1f ms pretrain "
               "(%.0fx), byte-identical: %s\n",
               pull_ms, warm_ms, pretrain_ms, speedup, identical ? "yes" : "NO");

  if (!json_path.empty()) {
    std::FILE* f = json_path == "-" ? stdout : std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    } else {
      std::fprintf(f,
                   "{\n"
                   "  \"epochs\": %zu,\n"
                   "  \"identical\": %s,\n"
                   "  \"exchange_pretrain_scratch_ms\": %.2f,\n"
                   "  \"exchange_pull_ms\": %.3f,\n"
                   "  \"exchange_warm_start_ms\": %.3f,\n"
                   "  \"exchange_warm_start_speedup\": %.1f\n"
                   "}\n",
                   epochs, identical ? "true" : "false", pretrain_ms, pull_ms, warm_ms,
                   speedup);
      if (f != stdout) {
        std::fclose(f);
        std::fprintf(stderr, "wrote %s\n", json_path.c_str());
      }
    }
  }

  // Warm start slower than pretraining would make the subsystem pointless.
  return (identical && warm_ms < pretrain_ms) ? 0 : 1;
}
