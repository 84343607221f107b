// Wire-protocol property tests: every message type round-trips bit-exactly
// through encode_frame/decode_frame under randomized payloads, and every
// class of hostile input (truncation at EVERY prefix length, version skew,
// unknown/wrong types, trailing bytes, oversized frames, out-of-range enum
// bytes) is rejected with the right TYPED WireStatus — never a crash, never
// a silently wrong decode.  Golden frames pin every message's exact bytes,
// and the catalog-wide sweeps run each hostile-input check on all of them.

#include "net/wire.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cstring>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "net/socket.hpp"

namespace bellamy::net {
namespace {

// ---------------------------------------------------------------------------
// Randomized payload builders (seeded: failures reproduce)
// ---------------------------------------------------------------------------

std::string random_string(std::mt19937_64& rng, std::size_t max_len) {
  std::uniform_int_distribution<std::size_t> len(0, max_len);
  // Full byte range: the wire must be 8-bit clean (checkpoint text is not,
  // but the protocol must not care).
  std::uniform_int_distribution<int> byte(0, 255);
  std::string s(len(rng), '\0');
  for (char& c : s) c = static_cast<char>(byte(rng));
  return s;
}

double random_double(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> dist(-1e6, 1e6);
  return dist(rng);
}

data::JobRun random_run(std::mt19937_64& rng) {
  data::JobRun run;
  run.algorithm = random_string(rng, 12);
  run.environment = random_string(rng, 12);
  run.node_type = random_string(rng, 12);
  run.job_parameters = random_string(rng, 8);
  run.dataset_size_mb = rng();
  run.data_characteristics = random_string(rng, 16);
  run.memory_mb = rng();
  run.cpu_cores = rng();
  run.scale_out = static_cast<int>(rng() % 1000) - 500;
  run.runtime_s = random_double(rng);
  return run;
}

void expect_run_eq(const data::JobRun& a, const data::JobRun& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.environment, b.environment);
  EXPECT_EQ(a.node_type, b.node_type);
  EXPECT_EQ(a.job_parameters, b.job_parameters);
  EXPECT_EQ(a.dataset_size_mb, b.dataset_size_mb);
  EXPECT_EQ(a.data_characteristics, b.data_characteristics);
  EXPECT_EQ(a.memory_mb, b.memory_mb);
  EXPECT_EQ(a.cpu_cores, b.cpu_cores);
  EXPECT_EQ(a.scale_out, b.scale_out);
  EXPECT_EQ(a.runtime_s, b.runtime_s);  // bit-exact: f64 travels as raw bits
}

serve::ModelKey random_key(std::mt19937_64& rng) {
  return serve::ModelKey{random_string(rng, 10), random_string(rng, 10)};
}

/// Encode, decode, and hand the decoded copy back for field comparison.
template <typename Msg>
Msg round_trip(const Msg& msg) {
  const std::vector<std::uint8_t> frame = encode_frame(msg);
  Msg out;
  const WireStatus status = decode_frame(frame.data(), frame.size(), out);
  EXPECT_EQ(status, WireStatus::kOk) << to_string(status);
  return out;
}

/// Recompute the trailing FNV-1a checksum after a DELIBERATE mutation.
/// Without this, every hostile-input test below would short-circuit at
/// kChecksumMismatch instead of exercising the layer it targets.
void reseal(std::vector<std::uint8_t>& frame) {
  ASSERT_GE(frame.size(), 4 + 4 + kFrameChecksumBytes);
  const std::uint64_t sum =
      util::fnv1a64_bytes(frame.data() + 4, frame.size() - 4 - kFrameChecksumBytes);
  std::memcpy(frame.data() + frame.size() - kFrameChecksumBytes, &sum, sizeof sum);
}

// ---------------------------------------------------------------------------
// Round trips, randomized
// ---------------------------------------------------------------------------

TEST(Wire, PredictRequestRoundTrip) {
  std::mt19937_64 rng(101);
  for (int i = 0; i < 50; ++i) {
    PredictRequest msg;
    msg.request_id = rng();
    msg.key = random_key(rng);
    msg.query = random_run(rng);
    const PredictRequest out = round_trip(msg);
    EXPECT_EQ(out.request_id, msg.request_id);
    EXPECT_EQ(out.key, msg.key);
    expect_run_eq(out.query, msg.query);
  }
}

TEST(Wire, PredictManyRequestRoundTripIncludingZeroLengthBatch) {
  std::mt19937_64 rng(102);
  for (int i = 0; i < 30; ++i) {
    PredictManyRequest msg;
    msg.request_id = rng();
    msg.key = random_key(rng);
    const std::size_t n = i == 0 ? 0 : rng() % 17;  // first iteration: empty batch
    for (std::size_t k = 0; k < n; ++k) msg.queries.push_back(random_run(rng));
    const PredictManyRequest out = round_trip(msg);
    EXPECT_EQ(out.request_id, msg.request_id);
    ASSERT_EQ(out.queries.size(), msg.queries.size());
    for (std::size_t k = 0; k < n; ++k) expect_run_eq(out.queries[k], msg.queries[k]);
  }
}

TEST(Wire, PublishRequestRoundTripIsEightBitClean) {
  std::mt19937_64 rng(103);
  PublishRequest msg;
  msg.request_id = rng();
  msg.key = random_key(rng);
  msg.checkpoint_text = random_string(rng, 4096);
  msg.checkpoint_text.push_back('\0');  // embedded NUL must survive
  msg.checkpoint_text += random_string(rng, 64);
  const PublishRequest out = round_trip(msg);
  EXPECT_EQ(out.key, msg.key);
  EXPECT_EQ(out.checkpoint_text, msg.checkpoint_text);
}

TEST(Wire, RefitAsyncRequestRoundTrip) {
  std::mt19937_64 rng(104);
  for (int i = 0; i < 20; ++i) {
    RefitAsyncRequest msg;
    msg.request_id = rng();
    msg.key = random_key(rng);
    const std::size_t n = rng() % 5;
    for (std::size_t k = 0; k < n; ++k) msg.runs.push_back(random_run(rng));
    msg.config.max_epochs = rng() % 10000;
    msg.config.base_lr = random_double(rng);
    msg.config.max_lr = random_double(rng);
    msg.config.lr_cycle = rng() % 1000;
    msg.config.weight_decay = random_double(rng);
    msg.config.mae_target_seconds = random_double(rng);
    msg.config.patience = rng() % 10000;
    msg.config.seed = rng();
    msg.config.unlock_f_after = rng() % 100;
    msg.config.unlock_f_immediately = (rng() & 1) != 0;
    msg.config.train_autoencoder = (rng() & 1) != 0;
    msg.config.batch_size = rng() % 64;
    msg.strategy = static_cast<std::uint8_t>(rng() % 4);

    const RefitAsyncRequest out = round_trip(msg);
    EXPECT_EQ(out.request_id, msg.request_id);
    EXPECT_EQ(out.key, msg.key);
    ASSERT_EQ(out.runs.size(), msg.runs.size());
    EXPECT_EQ(out.config.max_epochs, msg.config.max_epochs);
    EXPECT_EQ(out.config.base_lr, msg.config.base_lr);
    EXPECT_EQ(out.config.max_lr, msg.config.max_lr);
    EXPECT_EQ(out.config.lr_cycle, msg.config.lr_cycle);
    EXPECT_EQ(out.config.weight_decay, msg.config.weight_decay);
    EXPECT_EQ(out.config.mae_target_seconds, msg.config.mae_target_seconds);
    EXPECT_EQ(out.config.patience, msg.config.patience);
    EXPECT_EQ(out.config.seed, msg.config.seed);
    EXPECT_EQ(out.config.unlock_f_after, msg.config.unlock_f_after);
    EXPECT_EQ(out.config.unlock_f_immediately, msg.config.unlock_f_immediately);
    EXPECT_EQ(out.config.train_autoencoder, msg.config.train_autoencoder);
    EXPECT_EQ(out.config.batch_size, msg.config.batch_size);
    EXPECT_EQ(out.strategy, msg.strategy);
  }
}

TEST(Wire, SmallRequestsRoundTrip) {
  std::mt19937_64 rng(105);
  MetricsRequest metrics;
  metrics.request_id = rng();
  metrics.key = random_key(rng);
  EXPECT_EQ(round_trip(metrics).key, metrics.key);

  SetQosRequest qos;
  qos.request_id = rng();
  qos.key = random_key(rng);
  qos.qos_class = 1;
  qos.weight = 0.25;
  qos.max_lag_us = 20000;
  const SetQosRequest qos_out = round_trip(qos);
  EXPECT_EQ(qos_out.qos_class, qos.qos_class);
  EXPECT_EQ(qos_out.weight, qos.weight);
  EXPECT_EQ(qos_out.max_lag_us, qos.max_lag_us);

  EraseRequest erase;
  erase.request_id = rng();
  erase.key = random_key(rng);
  EXPECT_EQ(round_trip(erase).key, erase.key);

  DrainRequest drain;
  drain.request_id = rng();
  EXPECT_EQ(round_trip(drain).request_id, drain.request_id);
}

TEST(Wire, ResponsesRoundTrip) {
  std::mt19937_64 rng(106);

  PredictResponse predict;
  predict.head.request_id = rng();
  predict.head.status = serve::ServeStatus::kOk;
  predict.value = random_double(rng);
  const PredictResponse predict_out = round_trip(predict);
  EXPECT_EQ(predict_out.head.request_id, predict.head.request_id);
  EXPECT_EQ(predict_out.value, predict.value);

  PredictResponse failed;
  failed.head.request_id = rng();
  failed.head.status = serve::ServeStatus::kUnknownModel;
  failed.head.message = "no entry for sgd/ctx";
  const PredictResponse failed_out = round_trip(failed);
  EXPECT_EQ(failed_out.head.status, serve::ServeStatus::kUnknownModel);
  EXPECT_EQ(failed_out.head.message, failed.head.message);

  PredictManyResponse many;
  many.head.request_id = rng();
  for (int i = 0; i < 9; ++i) many.values.push_back(random_double(rng));
  const PredictManyResponse many_out = round_trip(many);
  EXPECT_EQ(many_out.values, many.values);
  PredictManyResponse empty;
  empty.head.request_id = rng();
  EXPECT_TRUE(round_trip(empty).values.empty());

  RefitResponse refit;
  refit.head.request_id = rng();
  refit.epochs_run = rng() % 5000;
  refit.best_mae_seconds = random_double(rng);
  refit.reached_target = 1;
  refit.fit_seconds = random_double(rng);
  const RefitResponse refit_out = round_trip(refit);
  EXPECT_EQ(refit_out.epochs_run, refit.epochs_run);
  EXPECT_EQ(refit_out.best_mae_seconds, refit.best_mae_seconds);
  EXPECT_EQ(refit_out.reached_target, refit.reached_target);

  MetricsResponse metrics;
  metrics.head.request_id = rng();
  metrics.metrics.requests = rng();
  metrics.metrics.responses = rng();
  metrics.metrics.interarrival_ewma_us = random_double(rng);
  metrics.metrics.latency_p50_us = rng();
  metrics.metrics.latency_p95_us = rng();
  metrics.metrics.latency_p99_us = rng();
  metrics.metrics.latency_count = rng();
  metrics.metrics.drift_error_ewma = random_double(rng);
  metrics.metrics.drift_reports = rng();
  metrics.metrics.drift_refits = rng();
  metrics.metrics.reductions = rng();
  metrics.metrics.reduction_runs_dropped = rng();
  metrics.metrics.reduction_last_kept = rng();
  const MetricsResponse metrics_out = round_trip(metrics);
  EXPECT_EQ(metrics_out.metrics.requests, metrics.metrics.requests);
  EXPECT_EQ(metrics_out.metrics.latency_p99_us, metrics.metrics.latency_p99_us);
  EXPECT_EQ(metrics_out.metrics.interarrival_ewma_us, metrics.metrics.interarrival_ewma_us);
  EXPECT_EQ(metrics_out.metrics.drift_error_ewma, metrics.metrics.drift_error_ewma);
  EXPECT_EQ(metrics_out.metrics.drift_reports, metrics.metrics.drift_reports);
  EXPECT_EQ(metrics_out.metrics.drift_refits, metrics.metrics.drift_refits);
  EXPECT_EQ(metrics_out.metrics.reductions, metrics.metrics.reductions);
  EXPECT_EQ(metrics_out.metrics.reduction_runs_dropped, metrics.metrics.reduction_runs_dropped);
  EXPECT_EQ(metrics_out.metrics.reduction_last_kept, metrics.metrics.reduction_last_kept);

  PublishResponse publish;
  publish.head.request_id = rng();
  EXPECT_EQ(round_trip(publish).head.request_id, publish.head.request_id);
  SetQosResponse set_qos;
  set_qos.head.request_id = rng();
  EXPECT_EQ(round_trip(set_qos).head.request_id, set_qos.head.request_id);
  EraseResponse erase;
  erase.head.request_id = rng();
  EXPECT_EQ(round_trip(erase).head.request_id, erase.head.request_id);
  DrainResponse drain;
  drain.head.request_id = rng();
  EXPECT_EQ(round_trip(drain).head.request_id, drain.head.request_id);
}

// ---------------------------------------------------------------------------
// Hostile input
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> sample_frame() {
  std::mt19937_64 rng(107);
  PredictManyRequest msg;
  msg.request_id = rng();
  msg.key = random_key(rng);
  for (int i = 0; i < 3; ++i) msg.queries.push_back(random_run(rng));
  return encode_frame(msg);
}

TEST(Wire, TruncationAtEveryPrefixLengthIsATypedError) {
  const std::vector<std::uint8_t> frame = sample_frame();
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    PredictManyRequest out;
    const WireStatus status = decode_frame(frame.data(), cut, out);
    EXPECT_NE(status, WireStatus::kOk) << "prefix length " << cut << " decoded";
    EXPECT_EQ(status, WireStatus::kTruncated) << "prefix length " << cut;
  }
}

TEST(Wire, InnerTruncationOfThePayloadIsATypedError) {
  // Rewrite the length prefix so the FRAME is self-consistent (resealed
  // checksum included) but the payload is cut short: the failure must come
  // from the message decoder, not the frame parser.  Cuts below the minimum
  // body (version + type + trailer) are the frame parser's kTruncated.
  const std::vector<std::uint8_t> frame = sample_frame();
  for (std::size_t cut = 4; cut + 4 < frame.size(); cut += 7) {
    std::vector<std::uint8_t> spliced(frame.begin(), frame.begin() + cut + 4);
    const std::uint32_t len = static_cast<std::uint32_t>(cut);
    std::memcpy(spliced.data(), &len, sizeof len);
    if (cut >= 4 + kFrameChecksumBytes) reseal(spliced);
    PredictManyRequest out;
    const WireStatus status = decode_frame(spliced.data(), spliced.size(), out);
    EXPECT_TRUE(status == WireStatus::kTruncated || status == WireStatus::kTrailingBytes ||
                status == WireStatus::kOversizedFrame)
        << "cut " << cut << ": " << to_string(status);
    EXPECT_NE(status, WireStatus::kOk);
  }
}

TEST(Wire, VersionMismatchIsRejected) {
  std::vector<std::uint8_t> frame = sample_frame();
  const std::uint16_t bad_version = kWireVersion + 1;
  std::memcpy(frame.data() + 4, &bad_version, sizeof bad_version);
  PredictManyRequest out;
  EXPECT_EQ(decode_frame(frame.data(), frame.size(), out), WireStatus::kVersionMismatch);
}

TEST(Wire, UnknownTypeIsRejected) {
  std::vector<std::uint8_t> frame = sample_frame();
  const std::uint16_t bad_type = 77;  // hole in the catalog
  std::memcpy(frame.data() + 6, &bad_type, sizeof bad_type);
  PredictManyRequest out;
  // The type bytes are under the checksum: a corrupted type reads as frame
  // corruption until the mutation is resealed as a deliberate one.
  EXPECT_EQ(decode_frame(frame.data(), frame.size(), out), WireStatus::kChecksumMismatch);
  reseal(frame);
  EXPECT_EQ(decode_frame(frame.data(), frame.size(), out), WireStatus::kUnknownType);
  EXPECT_FALSE(is_known_type(bad_type));
  EXPECT_TRUE(is_known_type(static_cast<std::uint16_t>(MsgType::kPredictRequest)));
}

TEST(Wire, WrongTypeIsRejected) {
  const std::vector<std::uint8_t> frame = sample_frame();  // a PredictManyRequest
  PredictRequest out;
  EXPECT_EQ(decode_frame(frame.data(), frame.size(), out), WireStatus::kWrongType);
}

TEST(Wire, TrailingBytesAreRejectedAtBothLayers) {
  // Outer: junk after a complete frame.
  std::vector<std::uint8_t> outer = sample_frame();
  outer.push_back(0xAB);
  PredictManyRequest out;
  EXPECT_EQ(decode_frame(outer.data(), outer.size(), out), WireStatus::kTrailingBytes);

  // Inner: the frame's len covers payload + junk, so the frame parses
  // (checksum resealed over the widened body) but the message decoder must
  // notice leftover bytes.
  std::vector<std::uint8_t> inner = sample_frame();
  inner.push_back(0xCD);
  const std::uint32_t len = static_cast<std::uint32_t>(inner.size() - 4);
  std::memcpy(inner.data(), &len, sizeof len);
  reseal(inner);
  EXPECT_EQ(decode_frame(inner.data(), inner.size(), out), WireStatus::kTrailingBytes);
}

TEST(Wire, OversizedAndRuntFramesAreRejected) {
  std::vector<std::uint8_t> frame = sample_frame();
  const std::uint32_t huge = kMaxFrameBytes + 1;
  std::memcpy(frame.data(), &huge, sizeof huge);
  PredictManyRequest out;
  EXPECT_EQ(decode_frame(frame.data(), frame.size(), out), WireStatus::kOversizedFrame);

  const std::uint32_t runt = 3;  // cannot hold version + type
  std::memcpy(frame.data(), &runt, sizeof runt);
  FrameView view;
  EXPECT_EQ(parse_frame(frame.data(), 4 + 3, view), WireStatus::kOversizedFrame);
}

TEST(Wire, OutOfRangeEnumBytesAreMalformed) {
  // ServeStatus byte beyond the enum range.
  PredictResponse resp;
  resp.head.request_id = 7;
  std::vector<std::uint8_t> frame = encode_frame(resp);
  // Payload layout: u64 request_id, then the status byte.
  frame[kFrameHeaderBytes + 8] = 99;
  reseal(frame);
  PredictResponse out;
  EXPECT_EQ(decode_frame(frame.data(), frame.size(), out), WireStatus::kMalformed);

  SetQosRequest qos;
  qos.key = {"a", "b"};
  qos.qos_class = 7;  // not a QosClass
  const std::vector<std::uint8_t> qos_frame = encode_frame(qos);
  SetQosRequest qos_out;
  EXPECT_EQ(decode_frame(qos_frame.data(), qos_frame.size(), qos_out),
            WireStatus::kMalformed);

  RefitAsyncRequest refit;
  refit.key = {"a", "b"};
  refit.strategy = 9;  // not a ReuseStrategy
  const std::vector<std::uint8_t> refit_frame = encode_frame(refit);
  RefitAsyncRequest refit_out;
  EXPECT_EQ(decode_frame(refit_frame.data(), refit_frame.size(), refit_out),
            WireStatus::kMalformed);
}

TEST(Wire, SingleBitFlipAnywhereInBodyOrTrailerIsAChecksumMismatch) {
  // Flip every bit of every byte past the length prefix.  The version bytes
  // are checked first (a flipped version reads as skew), but EVERY other
  // corruption — type, payload, or the trailer itself — must surface as the
  // typed kChecksumMismatch, never as a wrong decode or a different error.
  const std::vector<std::uint8_t> frame = sample_frame();
  for (std::size_t i = 4; i < frame.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> corrupt = frame;
      corrupt[i] = static_cast<std::uint8_t>(corrupt[i] ^ (1u << bit));
      PredictManyRequest out;
      const WireStatus status = decode_frame(corrupt.data(), corrupt.size(), out);
      if (i < 6) {
        EXPECT_EQ(status, WireStatus::kVersionMismatch) << "byte " << i << " bit " << bit;
      } else {
        EXPECT_EQ(status, WireStatus::kChecksumMismatch) << "byte " << i << " bit " << bit;
      }
    }
  }
}

TEST(Wire, ChecksumTrailerIsFnv1aOverVersionTypeAndPayload) {
  // Layout contract: the trailer is the FNV-1a 64 of everything between the
  // length prefix and the trailer itself, and len counts body + trailer.
  const std::vector<std::uint8_t> frame = sample_frame();
  ASSERT_GE(frame.size(), kFrameHeaderBytes + kFrameChecksumBytes);
  std::uint32_t len = 0;
  std::memcpy(&len, frame.data(), sizeof len);
  EXPECT_EQ(static_cast<std::size_t>(len), frame.size() - 4);
  const std::uint64_t expected =
      util::fnv1a64_bytes(frame.data() + 4, frame.size() - 4 - kFrameChecksumBytes);
  std::uint64_t stored = 0;
  std::memcpy(&stored, frame.data() + frame.size() - kFrameChecksumBytes, sizeof stored);
  EXPECT_EQ(stored, expected);

  // Resealing an unmodified frame is a no-op.
  std::vector<std::uint8_t> resealed = frame;
  reseal(resealed);
  EXPECT_EQ(resealed, frame);
}

TEST(Wire, ReportRunRoundTrip) {
  std::mt19937_64 rng(111);
  for (int i = 0; i < 20; ++i) {
    ReportRunRequest msg;
    msg.request_id = rng();
    msg.key = random_key(rng);
    msg.run = random_run(rng);
    const ReportRunRequest out = round_trip(msg);
    EXPECT_EQ(out.request_id, msg.request_id);
    EXPECT_EQ(out.key, msg.key);
    expect_run_eq(out.run, msg.run);
  }

  ReportRunResponse resp;
  resp.head.request_id = rng();
  resp.error_ewma = random_double(rng);
  resp.reports = rng();
  resp.refit_triggered = 1;
  const ReportRunResponse resp_out = round_trip(resp);
  EXPECT_EQ(resp_out.head.request_id, resp.head.request_id);
  EXPECT_EQ(resp_out.error_ewma, resp.error_ewma);
  EXPECT_EQ(resp_out.reports, resp.reports);
  EXPECT_EQ(resp_out.refit_triggered, resp.refit_triggered);

  EXPECT_TRUE(is_known_type(static_cast<std::uint16_t>(MsgType::kReportRunRequest)));
  EXPECT_TRUE(is_known_type(static_cast<std::uint16_t>(MsgType::kReportRunResponse)));
}

TEST(Wire, ReportRunResponseNonBoolTriggerIsMalformed) {
  ReportRunResponse resp;
  resp.head.request_id = 5;
  resp.refit_triggered = 2;  // not a bool byte
  const std::vector<std::uint8_t> frame = encode_frame(resp);
  ReportRunResponse out;
  EXPECT_EQ(decode_frame(frame.data(), frame.size(), out), WireStatus::kMalformed);
}

// ---------------------------------------------------------------------------
// Exchange messages (advertise / digest / pull)
// ---------------------------------------------------------------------------

TEST(Wire, ExchangeRequestsRoundTrip) {
  std::mt19937_64 rng(108);
  for (int i = 0; i < 20; ++i) {
    AdvertiseRequest adv;
    adv.request_id = rng();
    const std::size_t n = i == 0 ? 0 : rng() % 9;  // first iteration: empty catalog
    for (std::size_t k = 0; k < n; ++k) {
      adv.entries.push_back(DigestEntry{random_key(rng), rng() | 1});  // stamp != 0
    }
    const AdvertiseRequest adv_out = round_trip(adv);
    EXPECT_EQ(adv_out.request_id, adv.request_id);
    ASSERT_EQ(adv_out.entries.size(), adv.entries.size());
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(adv_out.entries[k].key, adv.entries[k].key);
      EXPECT_EQ(adv_out.entries[k].stamp, adv.entries[k].stamp);
    }

    DigestRequest digest;
    digest.request_id = rng();
    EXPECT_EQ(round_trip(digest).request_id, digest.request_id);

    PullRequest pull;
    pull.request_id = rng();
    pull.key = random_key(rng);
    const PullRequest pull_out = round_trip(pull);
    EXPECT_EQ(pull_out.request_id, pull.request_id);
    EXPECT_EQ(pull_out.key, pull.key);
  }
}

TEST(Wire, ExchangeResponsesRoundTripEightBitClean) {
  std::mt19937_64 rng(109);

  AdvertiseResponse adv;
  adv.head.request_id = rng();
  EXPECT_EQ(round_trip(adv).head.request_id, adv.head.request_id);

  DigestResponse digest;
  digest.head.request_id = rng();
  for (int k = 0; k < 5; ++k) {
    digest.entries.push_back(DigestEntry{random_key(rng), rng() | 1});
  }
  const DigestResponse digest_out = round_trip(digest);
  ASSERT_EQ(digest_out.entries.size(), digest.entries.size());
  for (std::size_t k = 0; k < digest.entries.size(); ++k) {
    EXPECT_EQ(digest_out.entries[k].key, digest.entries[k].key);
    EXPECT_EQ(digest_out.entries[k].stamp, digest.entries[k].stamp);
  }

  PullResponse pull;
  pull.head.request_id = rng();
  pull.stamp = rng() | 1;
  pull.checkpoint_text = random_string(rng, 4096);
  pull.checkpoint_text.push_back('\0');  // embedded NUL must survive
  pull.checkpoint_text += random_string(rng, 64);
  const PullResponse pull_out = round_trip(pull);
  EXPECT_EQ(pull_out.stamp, pull.stamp);
  EXPECT_EQ(pull_out.checkpoint_text, pull.checkpoint_text);

  // A FAILED pull carries no payload: stamp 0 is legal there (and only there).
  PullResponse failed;
  failed.head.request_id = rng();
  failed.head.status = serve::ServeStatus::kUnknownModel;
  failed.head.message = "pull sgd/ctx: not in this node's catalog";
  const PullResponse failed_out = round_trip(failed);
  EXPECT_EQ(failed_out.head.status, serve::ServeStatus::kUnknownModel);
  EXPECT_EQ(failed_out.stamp, 0u);
}

TEST(Wire, ExchangeTruncationAtEveryPrefixLengthIsATypedError) {
  std::mt19937_64 rng(110);
  AdvertiseRequest adv;
  adv.request_id = rng();
  for (int k = 0; k < 3; ++k) adv.entries.push_back(DigestEntry{random_key(rng), rng() | 1});
  const std::vector<std::uint8_t> adv_frame = encode_frame(adv);
  for (std::size_t cut = 0; cut < adv_frame.size(); ++cut) {
    AdvertiseRequest out;
    EXPECT_EQ(decode_frame(adv_frame.data(), cut, out), WireStatus::kTruncated)
        << "advertise prefix length " << cut;
  }

  PullResponse pull;
  pull.head.request_id = rng();
  pull.stamp = 7;
  pull.checkpoint_text = random_string(rng, 256);
  const std::vector<std::uint8_t> pull_frame = encode_frame(pull);
  for (std::size_t cut = 0; cut < pull_frame.size(); ++cut) {
    PullResponse out;
    EXPECT_EQ(decode_frame(pull_frame.data(), cut, out), WireStatus::kTruncated)
        << "pull prefix length " << cut;
  }
}

TEST(Wire, ZeroStampsAreMalformed) {
  // Stamp 0 means "absent" in the exchange layer; a peer must never put it
  // on the wire.  In a digest entry:
  AdvertiseRequest adv;
  adv.request_id = 7;
  adv.entries.push_back(DigestEntry{{"sgd", "ctx"}, 0});
  const std::vector<std::uint8_t> adv_frame = encode_frame(adv);
  AdvertiseRequest adv_out;
  EXPECT_EQ(decode_frame(adv_frame.data(), adv_frame.size(), adv_out),
            WireStatus::kMalformed);

  // And on a SUCCESSFUL pull (error pulls legitimately carry stamp 0).
  PullResponse pull;
  pull.head.request_id = 8;
  pull.head.status = serve::ServeStatus::kOk;
  pull.stamp = 0;
  pull.checkpoint_text = "weights";
  const std::vector<std::uint8_t> pull_frame = encode_frame(pull);
  PullResponse pull_out;
  EXPECT_EQ(decode_frame(pull_frame.data(), pull_frame.size(), pull_out),
            WireStatus::kMalformed);
}

TEST(Wire, ExchangeTypesAreKnownAndDistinct) {
  EXPECT_TRUE(is_known_type(static_cast<std::uint16_t>(MsgType::kAdvertiseRequest)));
  EXPECT_TRUE(is_known_type(static_cast<std::uint16_t>(MsgType::kDigestRequest)));
  EXPECT_TRUE(is_known_type(static_cast<std::uint16_t>(MsgType::kPullRequest)));
  EXPECT_TRUE(is_known_type(static_cast<std::uint16_t>(MsgType::kAdvertiseResponse)));
  EXPECT_TRUE(is_known_type(static_cast<std::uint16_t>(MsgType::kDigestResponse)));
  EXPECT_TRUE(is_known_type(static_cast<std::uint16_t>(MsgType::kPullResponse)));

  // Decoding an exchange frame as a different message is kWrongType, not a
  // garbage decode.
  DigestRequest digest;
  digest.request_id = 3;
  const std::vector<std::uint8_t> frame = encode_frame(digest);
  PullRequest out;
  EXPECT_EQ(decode_frame(frame.data(), frame.size(), out), WireStatus::kWrongType);
}

TEST(Wire, StringLengthBeyondPayloadIsTruncatedNotOverread) {
  // A string header claiming 2^31 bytes inside a tiny payload must fail
  // cleanly (no allocation of attacker-sized buffers, no overread).
  WireWriter w;
  w.u64(42);                  // request_id
  w.u32(0x7FFFFFFFu);         // absurd string length for key.job
  w.u8(0xFF);                 // one byte of "string"
  WireWriter framed;
  framed.u32(static_cast<std::uint32_t>(w.size() + 4 + kFrameChecksumBytes));
  framed.u16(kWireVersion);
  framed.u16(static_cast<std::uint16_t>(MsgType::kMetricsRequest));
  std::vector<std::uint8_t> frame = framed.take();
  frame.insert(frame.end(), w.bytes().begin(), w.bytes().end());
  frame.resize(frame.size() + kFrameChecksumBytes);  // trailer slot
  reseal(frame);

  MetricsRequest out;
  EXPECT_EQ(decode_frame(frame.data(), frame.size(), out), WireStatus::kTruncated);
}

// ---------------------------------------------------------------------------
// Golden frames: the exact bytes of every catalog message
// ---------------------------------------------------------------------------

// One instance per catalog message with every field non-default and
// distinct from its neighbours, so a dropped, swapped or re-ordered field
// changes the bytes.

serve::ModelKey golden_key(int n) {
  return {"job-" + std::to_string(n), "ctx-" + std::to_string(n)};
}

data::JobRun golden_run(int n) {
  data::JobRun run;
  run.algorithm = "alg-" + std::to_string(n);
  run.environment = "env-" + std::to_string(n);
  run.node_type = "node-" + std::to_string(n);
  run.job_parameters = "par-" + std::to_string(n);
  run.dataset_size_mb = 0x1000 + n;
  run.data_characteristics = "chr-" + std::to_string(n);
  run.memory_mb = 0x2000 + n;
  run.cpu_cores = 0x3000 + n;
  run.scale_out = -7 - n;  // negative: i32 two's complement on the wire
  run.runtime_s = 12.5 + n;
  return run;
}

/// Checkpoint text is opaque to the wire: NUL and 0xFF bytes must survive.
const std::string kGoldenCheckpoint("ckpt\0v1\xff\xfe end", 13);

ResponseHead golden_head(std::uint64_t id, serve::ServeStatus status) {
  return {id, status, "msg-" + std::to_string(id)};
}

core::FineTuneConfig golden_config() {
  core::FineTuneConfig cfg;
  cfg.max_epochs = 101;
  cfg.base_lr = 0.125;
  cfg.max_lr = 0.375;
  cfg.lr_cycle = 102;
  cfg.weight_decay = 0.0625;
  cfg.mae_target_seconds = 3.5;
  cfg.patience = 103;
  cfg.seed = 104;
  cfg.batch_size = 106;  // declared before unlock_f_after, encoded last
  cfg.unlock_f_after = 105;
  cfg.unlock_f_immediately = true;
  cfg.train_autoencoder = true;
  return cfg;
}

serve::ServeMetrics golden_metrics() {
  serve::ServeMetrics m;
  m.requests = 201;
  m.responses = 202;
  m.batches = 203;
  m.coalesced = 204;
  m.deadline_flushes = 205;
  m.drain_flushes = 206;
  m.coalesced_requests = 207;
  m.max_queue_depth = 208;
  m.queue_depth = 209;
  m.replica_hits = 210;
  m.replica_misses = 211;
  m.replica_invalidations = 212;
  m.effective_flush_deadline_us = 213;
  m.interarrival_ewma_us = 214.25;
  m.max_dispatch_lag_us = 215;
  m.starved_flushes = 216;
  m.latency_count = 217;
  m.latency_p50_us = 218;
  m.latency_p95_us = 219;
  m.latency_p99_us = 220;
  m.drift_error_ewma = 221.75;
  m.drift_reports = 222;
  m.drift_refits = 223;
  m.reductions = 224;
  m.reduction_runs_dropped = 225;
  m.reduction_last_kept = 226;
  return m;
}

template <typename Msg>
Msg golden();

template <>
PredictRequest golden() {
  return {.request_id = 0x1001, .key = golden_key(1), .query = golden_run(1)};
}
template <>
PredictManyRequest golden() {
  return {.request_id = 0x1002, .key = golden_key(2), .queries = {golden_run(2), golden_run(3)}};
}
template <>
PublishRequest golden() {
  return {.request_id = 0x1003, .key = golden_key(3), .checkpoint_text = kGoldenCheckpoint};
}
template <>
RefitAsyncRequest golden() {
  return {.request_id = 0x1004,
          .key = golden_key(4),
          .runs = {golden_run(4), golden_run(5)},
          .config = golden_config(),
          .strategy = static_cast<std::uint8_t>(core::ReuseStrategy::kFullReset)};
}
template <>
MetricsRequest golden() {
  return {.request_id = 0x1005, .key = golden_key(5)};
}
template <>
SetQosRequest golden() {
  return {.request_id = 0x1006,
          .key = golden_key(6),
          .qos_class = static_cast<std::uint8_t>(serve::QosClass::kBulk),
          .weight = 0.75,
          .max_lag_us = 0x6006};
}
template <>
EraseRequest golden() {
  return {.request_id = 0x1007, .key = golden_key(7)};
}
template <>
DrainRequest golden() {
  return {.request_id = 0x1008};
}
template <>
AdvertiseRequest golden() {
  return {.request_id = 0x1009, .entries = {{golden_key(9), 0x9009}, {golden_key(10), 0x900A}}};
}
template <>
DigestRequest golden() {
  return {.request_id = 0x100A};
}
template <>
PullRequest golden() {
  return {.request_id = 0x100B, .key = golden_key(11)};
}
template <>
ReportRunRequest golden() {
  return {.request_id = 0x100C, .key = golden_key(12), .run = golden_run(12)};
}

template <>
PredictResponse golden() {
  return {.head = golden_head(0x2001, serve::ServeStatus::kUnknownModel), .value = -0.5};
}
template <>
PredictManyResponse golden() {
  return {.head = golden_head(0x2002, serve::ServeStatus::kNotFitted), .values = {1.25, -2.5, 3.0}};
}
template <>
PublishResponse golden() {
  return {.head = golden_head(0x2003, serve::ServeStatus::kInvalidArgument)};
}
template <>
RefitResponse golden() {
  return {.head = golden_head(0x2004, serve::ServeStatus::kStoreError),
          .epochs_run = 0x4004,
          .best_mae_seconds = 4.5,
          .reached_target = 1,
          .fit_seconds = 0.875};
}
template <>
MetricsResponse golden() {
  return {.head = golden_head(0x2005, serve::ServeStatus::kShutdown), .metrics = golden_metrics()};
}
template <>
SetQosResponse golden() {
  return {.head = golden_head(0x2006, serve::ServeStatus::kConflict)};
}
template <>
EraseResponse golden() {
  return {.head = golden_head(0x2007, serve::ServeStatus::kInternalError)};
}
template <>
DrainResponse golden() {
  return {.head = golden_head(0x2008, serve::ServeStatus::kTimeout)};
}
template <>
AdvertiseResponse golden() {
  return {.head = golden_head(0x2009, serve::ServeStatus::kUnknownModel)};
}
template <>
DigestResponse golden() {
  return {.head = golden_head(0x200A, serve::ServeStatus::kNotFitted),
          .entries = {{golden_key(13), 0xA00D}, {golden_key(14), 0xA00E}}};
}
template <>
PullResponse golden() {
  return {.head = golden_head(0x200B, serve::ServeStatus::kInvalidArgument),
          .stamp = 0xB00B,
          .checkpoint_text = kGoldenCheckpoint};
}
template <>
ReportRunResponse golden() {
  return {.head = golden_head(0x200C, serve::ServeStatus::kStoreError),
          .error_ewma = 0.3125,
          .reports = 0xC00C,
          .refit_triggered = 1};
}

/// Frames of the instances above as the pre-layout codec wrote them (one
/// hand-written encode per message).  Changing a byte here is a wire break.
const std::map<MsgType, std::string> kGoldenHex = {
    {MsgType::kPredictRequest,
     "78000000020001000110000000000000050000006a6f622d31050000006374782d3105000000616c672d3105"
     "000000656e762d31060000006e6f64652d31050000007061722d310110000000000000050000006368722d31"
     "01200000000000000130000000000000f8ffffff0000000000002b409947a29808e0316b"},
    {MsgType::kPredictManyRequest,
     "ce000000020002000210000000000000050000006a6f622d32050000006374782d320200000005000000616c"
     "672d3205000000656e762d32060000006e6f64652d32050000007061722d3202100000000000000500000063"
     "68722d3202200000000000000230000000000000f7ffffff0000000000002d4005000000616c672d33050000"
     "00656e762d33060000006e6f64652d33050000007061722d330310000000000000050000006368722d330320"
     "0000000000000330000000000000f6ffffff0000000000002f40ae9064d0e39f6325"},
    {MsgType::kPublishRequest,
     "37000000020003000310000000000000050000006a6f622d33050000006374782d330d000000636b70740076"
     "31fffe20656e6407b05eb248e269c1"},
    {MsgType::kRefitAsyncRequest,
     "21010000020004000410000000000000050000006a6f622d34050000006374782d340200000005000000616c"
     "672d3405000000656e762d34060000006e6f64652d34050000007061722d3404100000000000000500000063"
     "68722d3404200000000000000430000000000000f5ffffff000000000080304005000000616c672d35050000"
     "00656e762d35060000006e6f64652d35050000007061722d350510000000000000050000006368722d350520"
     "0000000000000530000000000000f4ffffff00000000008031406500000000000000000000000000c03f0000"
     "00000000d83f6600000000000000000000000000b03f0000000000000c406700000000000000680000000000"
     "0000690000000000000001016a0000000000000003ca2abfcfbcb66828"},
    {MsgType::kMetricsRequest,
     "26000000020005000510000000000000050000006a6f622d35050000006374782d353979c6fe0cede67e"},
    {MsgType::kSetQosRequest,
     "37000000020006000610000000000000050000006a6f622d36050000006374782d3601000000000000e83f06"
     "6000000000000071cca317a87b0f68"},
    {MsgType::kEraseRequest,
     "26000000020007000710000000000000050000006a6f622d37050000006374782d37954187fdce3072c6"},
    {MsgType::kDrainRequest,
     "1400000002000800081000000000000057a0ee7d5b3017d7"},
    {MsgType::kAdvertiseRequest,
     "4e00000002000900091000000000000002000000050000006a6f622d39050000006374782d39099000000000"
     "0000060000006a6f622d3130060000006374782d31300a90000000000000da4a40d1f0335093"},
    {MsgType::kDigestRequest,
     "1400000002000a000a10000000000000a794b2521c0b7339"},
    {MsgType::kPullRequest,
     "2800000002000b000b10000000000000060000006a6f622d3131060000006374782d313161fc1549e183b9ce"},
    {MsgType::kReportRunRequest,
     "7f00000002000c000c10000000000000060000006a6f622d3132060000006374782d313206000000616c672d"
     "313206000000656e762d3132070000006e6f64652d3132060000007061722d31320c10000000000000060000"
     "006368722d31320c200000000000000c30000000000000edffffff0000000000803840d5699f0e0285ea40"},
    {MsgType::kPredictResponse,
     "2900000002008100012000000000000001080000006d73672d38313933000000000000e0bff48e708ba0925c"
     "44"},
    {MsgType::kPredictManyResponse,
     "3d00000002008200022000000000000002080000006d73672d3831393403000000000000000000f43f000000"
     "00000004c00000000000000840e328d5a14437a94c"},
    {MsgType::kPublishResponse,
     "2100000002008300032000000000000003080000006d73672d3831393511a716aa97788478"},
    {MsgType::kRefitResponse,
     "3a00000002008400042000000000000004080000006d73672d38313936044000000000000000000000000012"
     "4001000000000000ec3f776ecc21009bfa99"},
    {MsgType::kMetricsResponse,
     "f100000002008500052000000000000005080000006d73672d38313937c900000000000000ca000000000000"
     "00cb00000000000000cc00000000000000cd00000000000000ce00000000000000cf00000000000000d00000"
     "0000000000d100000000000000d200000000000000d300000000000000d400000000000000d5000000000000"
     "000000000000c86a40d700000000000000d800000000000000d900000000000000da00000000000000db0000"
     "0000000000dc000000000000000000000000b86b40de00000000000000df00000000000000e0000000000000"
     "00e100000000000000e200000000000000b05f93c56df60068"},
    {MsgType::kSetQosResponse,
     "2100000002008600062000000000000006080000006d73672d38313938c9ebc745fdbe0fef"},
    {MsgType::kEraseResponse,
     "2100000002008700072000000000000007080000006d73672d3831393901207634054b5f1e"},
    {MsgType::kDrainResponse,
     "2100000002008800082000000000000008080000006d73672d383230308f3173d08e59029a"},
    {MsgType::kAdvertiseResponse,
     "2100000002008900092000000000000001080000006d73672d38323031e3fc1fb65f1cf9ee"},
    {MsgType::kDigestResponse,
     "5d00000002008a000a2000000000000002080000006d73672d3832303202000000060000006a6f622d313306"
     "0000006374782d31330da0000000000000060000006a6f622d3134060000006374782d31340ea00000000000"
     "00329bea040fd44a7a"},
    {MsgType::kPullResponse,
     "3a00000002008b000b2000000000000003080000006d73672d383230330bb00000000000000d000000636b70"
     "74007631fffe20656e64a8dd460e391208cb"},
    {MsgType::kReportRunResponse,
     "3200000002008c000c2000000000000004080000006d73672d38323034000000000000d43f0cc00000000000"
     "00010db0a902185acb94"},
};

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (std::uint8_t b : bytes) {
    hex += kDigits[b >> 4];
    hex += kDigits[b & 15];
  }
  return hex;
}

template <typename Tuple>
struct TestTypesOf;
template <typename... Msg>
struct TestTypesOf<std::tuple<Msg...>> {
  using type = ::testing::Types<Msg...>;
};

/// Typed over the whole wire catalog: a message added to Catalog is swept
/// here as soon as it has a golden<>() instance and a golden frame.
template <typename Msg>
class WireCatalog : public ::testing::Test {};
TYPED_TEST_SUITE(WireCatalog, TestTypesOf<Catalog>::type);

TYPED_TEST(WireCatalog, EncodesToTheGoldenFrameAndRoundTripsByteForByte) {
  const std::vector<std::uint8_t> frame = encode_frame(golden<TypeParam>());
  ASSERT_EQ(kGoldenHex.count(TypeParam::kType), 1u);
  EXPECT_EQ(to_hex(frame), kGoldenHex.at(TypeParam::kType));
  TypeParam decoded;
  ASSERT_EQ(decode_frame(frame.data(), frame.size(), decoded), WireStatus::kOk);
  EXPECT_EQ(encode_frame(decoded), frame);
}

TYPED_TEST(WireCatalog, EveryStrictPrefixIsTruncated) {
  const std::vector<std::uint8_t> frame = encode_frame(golden<TypeParam>());
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    TypeParam out;
    EXPECT_EQ(decode_frame(frame.data(), cut, out), WireStatus::kTruncated) << "prefix " << cut;
  }
}

TYPED_TEST(WireCatalog, ResealedInnerTruncationIsATypedErrorNeverOk) {
  // The frame stays self-consistent (length prefix rewritten, checksum
  // resealed) while the payload is cut short, so the message decoder itself
  // must notice.  Bodies below version + type + trailer are runts.
  const std::vector<std::uint8_t> frame = encode_frame(golden<TypeParam>());
  for (std::size_t cut = 4; cut < frame.size() - 4; ++cut) {
    std::vector<std::uint8_t> spliced(frame.begin(), frame.begin() + cut + 4);
    const std::uint32_t len = static_cast<std::uint32_t>(cut);
    std::memcpy(spliced.data(), &len, sizeof len);
    if (cut >= 4 + kFrameChecksumBytes) reseal(spliced);
    TypeParam out;
    const WireStatus status = decode_frame(spliced.data(), spliced.size(), out);
    EXPECT_EQ(status, cut < 4 + kFrameChecksumBytes ? WireStatus::kOversizedFrame
                                                    : WireStatus::kTruncated)
        << "cut " << cut << ": " << to_string(status);
  }
}

/// A resealed frame of `type` whose payload is `payload`.
std::vector<std::uint8_t> frame_around(MsgType type, const WireWriter& payload) {
  WireWriter framed;
  framed.u32(static_cast<std::uint32_t>(payload.size() + 4 + kFrameChecksumBytes));
  framed.u16(kWireVersion);
  framed.u16(static_cast<std::uint16_t>(type));
  std::vector<std::uint8_t> frame = framed.take();
  frame.insert(frame.end(), payload.bytes().begin(), payload.bytes().end());
  frame.resize(frame.size() + kFrameChecksumBytes);
  reseal(frame);
  return frame;
}

TEST(Wire, HostileVectorCountsAreTruncatedWithBoundedReserve) {
  // A count of 0xFFFFFFFF followed by no elements: decoding must fail at the
  // first missing element having reserved at most kMaxEagerReserve slots.
  constexpr std::uint32_t kHostile = 0xFFFFFFFFu;
  {
    WireWriter w;
    w.u64(1);
    w.str("job");
    w.str("ctx");
    w.u32(kHostile);
    const std::vector<std::uint8_t> frame = frame_around(MsgType::kPredictManyRequest, w);
    PredictManyRequest out;
    EXPECT_EQ(decode_frame(frame.data(), frame.size(), out), WireStatus::kTruncated);
    EXPECT_LE(out.queries.capacity(), kMaxEagerReserve);
  }
  WireWriter head;  // an ok ResponseHead
  head.u64(2);
  head.u8(0);
  head.str("");
  {
    WireWriter w = head;
    w.u32(kHostile);
    const std::vector<std::uint8_t> frame = frame_around(MsgType::kPredictManyResponse, w);
    PredictManyResponse out;
    EXPECT_EQ(decode_frame(frame.data(), frame.size(), out), WireStatus::kTruncated);
    EXPECT_LE(out.values.capacity(), kMaxEagerReserve);
  }
  {
    WireWriter w = head;
    w.u32(kHostile);
    const std::vector<std::uint8_t> frame = frame_around(MsgType::kDigestResponse, w);
    DigestResponse out;
    EXPECT_EQ(decode_frame(frame.data(), frame.size(), out), WireStatus::kTruncated);
    EXPECT_LE(out.entries.capacity(), kMaxEagerReserve);
  }
}

// ---------------------------------------------------------------------------
// Frame reader (read_frame over a connected socket pair)
// ---------------------------------------------------------------------------

std::pair<Socket, Socket> socket_pair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {Socket(fds[0]), Socket(fds[1])};
}

TEST(Wire, ReadFrameGrowsWithArrivingBytesNotWithTheLengthPrefix) {
  // A bare prefix announcing the maximum, 16 bytes, then EOF: the reader
  // must not have zero-filled 64 MiB waiting for the rest.
  auto [reader, writer] = socket_pair();
  WireWriter w;
  w.u32(kMaxFrameBytes);
  for (int i = 0; i < 16; ++i) w.u8(0xAB);
  ASSERT_EQ(writer.write_all(w.bytes().data(), w.size()), IoStatus::kOk);
  writer.close();
  std::vector<std::uint8_t> body;
  EXPECT_EQ(read_frame(reader, body), FrameRead::kClosed);
  EXPECT_LT(body.capacity(), std::size_t{1} << 20);
}

TEST(Wire, ReadFrameRejectsLengthPrefixesOutsideTheFrameBounds) {
  for (const std::uint32_t len : {std::uint32_t{3}, kMaxFrameBytes + 1}) {
    auto [reader, writer] = socket_pair();
    WireWriter w;
    w.u32(len);
    ASSERT_EQ(writer.write_all(w.bytes().data(), w.size()), IoStatus::kOk);
    std::vector<std::uint8_t> body;
    EXPECT_EQ(read_frame(reader, body), FrameRead::kBadLength) << "len " << len;
  }
}

TEST(Wire, ReadFrameReadsFramesBackToBackIntact) {
  // A frame within one growth step, one spanning several, then EOF.
  PublishRequest big = golden<PublishRequest>();
  big.checkpoint_text.assign(3 * kFrameReadStep + 123, '\xfe');
  const std::vector<std::vector<std::uint8_t>> frames = {
      encode_frame(golden<PublishRequest>()), encode_frame(big)};
  auto [reader, writer] = socket_pair();
  std::thread send([&writer = writer, &frames] {
    for (const auto& frame : frames) {
      ASSERT_EQ(writer.write_all(frame.data(), frame.size()), IoStatus::kOk);
    }
    writer.close();
  });
  std::vector<std::uint8_t> body;
  for (const auto& frame : frames) {
    ASSERT_EQ(read_frame(reader, body), FrameRead::kOk);
    EXPECT_EQ(body, std::vector<std::uint8_t>(frame.begin() + 4, frame.end()));
    FrameView view;
    ASSERT_EQ(parse_body(body.data(), body.size(), view), WireStatus::kOk);
    PublishRequest out;
    ASSERT_EQ(decode_message(view, out), WireStatus::kOk);
  }
  EXPECT_EQ(read_frame(reader, body), FrameRead::kClosed);
  send.join();
}

}  // namespace
}  // namespace bellamy::net
