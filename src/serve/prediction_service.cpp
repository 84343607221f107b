#include "serve/prediction_service.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace bellamy::serve {

namespace {
/// Lane garbage collection only kicks in past this many lanes — below it,
/// probing the registry per drained lane costs more than the map.
constexpr std::size_t kGcMinLanes = 64;
/// ...and only every this many dispatched batches, so the sweep (which
/// probes the registry under the service mutex) stays off the hot path.
constexpr std::uint64_t kGcEveryDispatches = 256;
/// A lane ranks at its front request's arrival plus this slack divided by
/// its QoS weight, so weighted lanes keep their relative order.
constexpr double kRankSlackUs = 500.0;
/// A batch dispatched more than this far past its rank counts as starved
/// (ServeMetrics::starved_flushes).  Purely diagnostic.
constexpr std::uint64_t kStarvationLagUs = 10000;

std::uint64_t saturating_us(std::chrono::steady_clock::duration d) {
  if (d <= std::chrono::steady_clock::duration::zero()) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(d).count());
}
}  // namespace

const char* to_string(QosClass qos) {
  return qos == QosClass::kInteractive ? "interactive" : "bulk";
}

PredictionService::PredictionService(ModelRegistry& registry, ServeOptions options)
    : registry_(registry), options_(options) {
  options_.max_batch = std::max<std::size_t>(1, options_.max_batch);
  options_.max_queue = std::max<std::size_t>(1, options_.max_queue);
  // A batch can never fill past the queue bound — clamp so a full batch
  // stays reachable.
  options_.max_batch = std::min(options_.max_batch, options_.max_queue);
  options_.workers = std::max<std::size_t>(1, options_.workers);
  if (!(options_.default_qos.weight > 0.0) || !std::isfinite(options_.default_qos.weight)) {
    options_.default_qos.weight = 1.0;
  }
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

PredictionService::~PredictionService() { stop(); }

ServeResult<double> PredictionService::predict(const ModelHandle& handle,
                                               const data::JobRun& query) {
  return predict_async(handle, query).get();
}

std::future<ServeResult<double>> PredictionService::predict_async(const ModelHandle& handle,
                                                                  const data::JobRun& query) {
  return std::move(predict_many_async(handle, {&query, 1}).front());
}

std::vector<std::future<ServeResult<double>>> PredictionService::predict_many_async(
    const ModelHandle& handle, std::span<const data::JobRun> queries) {
  std::vector<std::future<ServeResult<double>>> futures;
  futures.reserve(queries.size());
  // Rows that never enter a lane fail through their own futures.
  auto fail_rest = [&](ServeStatus status, const char* message) {
    while (futures.size() < queries.size()) {
      std::promise<ServeResult<double>> promise;
      futures.push_back(promise.get_future());
      promise.set_value(ServeResult<double>::failure(status, message));
    }
    return std::move(futures);
  };
  if (!registry_.resolve(handle)) {
    return fail_rest(ServeStatus::kUnknownModel, "predict: unknown model handle");
  }

  const std::uint64_t id = handle.id();
  auto lane_for_handle = [&]() -> Lane& {
    const auto [it, inserted] = lanes_.try_emplace(id);
    if (inserted) it->second.qos = options_.default_qos;
    return it->second;
  };

  bool woke_dispatcher = false;
  std::unique_lock<std::mutex> lock(mutex_);
  while (futures.size() < queries.size()) {
    // Bounded queue: block the producer until a dispatcher makes room.  The
    // lane is re-looked-up on every predicate evaluation — a drained lane
    // may be garbage-collected (and recreated) while we wait, so a held
    // reference could dangle.
    space_cv_.wait(lock, [&] {
      return stopping_ || lane_for_handle().queue.size() < options_.max_queue;
    });
    if (stopping_) {
      lock.unlock();
      return fail_rest(ServeStatus::kShutdown, "service is stopping");
    }
    Lane& lane = lane_for_handle();
    const Clock::time_point now = Clock::now();
    const std::size_t take =
        std::min(queries.size() - futures.size(), options_.max_queue - lane.queue.size());
    for (std::size_t i = futures.size(), end = i + take; i < end; ++i) {
      std::promise<ServeResult<double>> promise;
      futures.push_back(promise.get_future());
      lane.queue.push_back(Request{queries[i], std::move(promise), now});
    }
    lane.metrics.requests += take;
    lane.metrics.queue_depth = lane.queue.size();
    lane.metrics.max_queue_depth =
        std::max<std::uint64_t>(lane.metrics.max_queue_depth, lane.queue.size());
    if (!lane.ready) {
      mark_ready(id, lane);
      woke_dispatcher = true;
    }
    // The lane is full: a dispatcher has to make room before the rest fits.
    if (futures.size() < queries.size()) work_cv_.notify_one();
  }
  lock.unlock();
  if (woke_dispatcher) work_cv_.notify_one();
  return futures;
}

ServeResult<std::vector<double>> PredictionService::predict_many(
    const ModelHandle& handle, std::span<const data::JobRun> queries) {
  std::vector<std::future<ServeResult<double>>> futures = predict_many_async(handle, queries);
  std::vector<double> out(queries.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ServeResult<double> r = futures[i].get();
    if (!r.ok()) {
      // Drain the siblings before reporting — their promises resolve anyway,
      // and abandoning futures mid-batch would hide secondary errors.
      for (std::size_t j = i + 1; j < futures.size(); ++j) futures[j].wait();
      return ServeResult<std::vector<double>>::failure(r.status(), r.message());
    }
    out[i] = r.value();
  }
  return out;
}

ServeResult<Unit> PredictionService::set_qos(const ModelHandle& handle, HandleQos qos) {
  if (!(qos.weight > 0.0) || !std::isfinite(qos.weight)) {
    return ServeResult<Unit>::failure(ServeStatus::kInvalidArgument,
                                      "set_qos: weight must be a positive finite number");
  }
  if (qos.max_lag.count() < 0) {
    return ServeResult<Unit>::failure(ServeStatus::kInvalidArgument,
                                      "set_qos: max_lag must be >= 0 (0 disables the cap)");
  }
  if (!registry_.resolve(handle)) {
    return ServeResult<Unit>::failure(ServeStatus::kUnknownModel,
                                      "set_qos: unknown model handle");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  lanes_.try_emplace(handle.id()).first->second.qos = qos;
  return ok();
}

ServeResult<HandleQos> PredictionService::qos(const ModelHandle& handle) const {
  if (!registry_.resolve(handle)) {
    return ServeResult<HandleQos>::failure(ServeStatus::kUnknownModel,
                                           "qos: unknown model handle");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = lanes_.find(handle.id()); it != lanes_.end()) return it->second.qos;
  return options_.default_qos;
}

ServeResult<ServeMetrics> PredictionService::metrics(const ModelHandle& handle) const {
  if (!registry_.resolve(handle)) {
    return ServeResult<ServeMetrics>::failure(ServeStatus::kUnknownModel,
                                              "metrics: unknown model handle");
  }
  ServeMetrics out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = lanes_.find(handle.id()); it != lanes_.end()) {
      out = it->second.metrics;
      out.queue_depth = it->second.queue.size();
      out.effective_flush_deadline_us = rank_slack_us(it->second.qos);
      out.latency_count = it->second.latency.count();
      out.latency_p50_us = it->second.latency.quantile_us(0.50);
      out.latency_p95_us = it->second.latency.quantile_us(0.95);
      out.latency_p99_us = it->second.latency.quantile_us(0.99);
    }
  }
  return out;
}

void PredictionService::stop() {
  // One stopper at a time: join() from two threads on the same worker is UB.
  std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // The workers drained every queue before exiting; anything still pending
  // (a producer raced stop() past the registry check) fails loudly here.
  // These rejections do NOT count as responses — `responses` means "answered
  // through a micro-batch", which keeps mean_batch_fill() honest.
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [id, lane] : lanes_) {
    for (Request& request : lane.queue) {
      request.promise.set_value(
          ServeResult<double>::failure(ServeStatus::kShutdown, "service stopped"));
    }
    lane.queue.clear();
  }
}

std::uint64_t PredictionService::rank_slack_us(const HandleQos& qos) {
  double slack = kRankSlackUs / qos.weight;
  // Aging cap: no matter how small the weight, a capped lane never ranks
  // worse than max_lag — the boost that keeps down-weighted kBulk lanes
  // live under extreme interactive load.
  if (qos.max_lag.count() > 0) slack = std::min(slack, static_cast<double>(qos.max_lag.count()));
  return static_cast<std::uint64_t>(std::llround(std::max(1.0, slack)));
}

void PredictionService::mark_ready(std::uint64_t id, Lane& lane) {
  lane.ready = true;
  // EDF rank from the lane's OLDEST request: a hot lane that refills at once
  // still ranks by its (recent) front arrival, so a cold lane that has been
  // waiting sorts ahead of it — the no-starvation property.
  ready_.push(ReadyLane{
      lane.queue.front().enqueued + std::chrono::microseconds(rank_slack_us(lane.qos)),
      static_cast<std::uint8_t>(lane.qos.qos), id});
}

void PredictionService::gc_lanes() {
  // Garbage-collect lanes of erased handles so lanes_ does not grow forever
  // under handle churn.  The registry probe runs with the service mutex
  // held, so only bother once the map is big enough for unbounded growth to
  // matter; drained lanes of live handles keep their metrics.
  if (lanes_.size() < kGcMinLanes) return;
  for (auto it = lanes_.begin(); it != lanes_.end();) {
    if (it->second.queue.empty() && !it->second.ready && !registry_.resolve_id(it->first)) {
      it = lanes_.erase(it);  // not ready, so not in the heap
    } else {
      ++it;
    }
  }
}

void PredictionService::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (ready_.empty()) {
      if (stopping_) return;  // every queue drained
      work_cv_.wait(lock);
      continue;
    }
    const ReadyLane top = ready_.top();
    const std::uint64_t id = top.lane_id;
    ready_.pop();
    // A ready lane is non-empty and never garbage-collected.
    Lane& lane = lanes_.at(id);
    const std::size_t take = std::min(lane.queue.size(), options_.max_batch);
    std::vector<Request> batch;
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(lane.queue.front()));
      lane.queue.pop_front();
    }
    lane.metrics.batches += 1;
    if (take == options_.max_batch) {
      lane.metrics.coalesced += 1;
    } else if (stopping_) {
      lane.metrics.drain_flushes += 1;
    } else {
      lane.metrics.deadline_flushes += 1;
    }
    if (take > 1) lane.metrics.coalesced_requests += take;
    const std::uint64_t lag_us = saturating_us(Clock::now() - top.rank);
    lane.metrics.max_dispatch_lag_us = std::max(lane.metrics.max_dispatch_lag_us, lag_us);
    if (lag_us > kStarvationLagUs) lane.metrics.starved_flushes += 1;
    lane.metrics.queue_depth = lane.queue.size();
    lane.ready = false;
    // Leftover traffic re-enters the heap ranked by the lane's new front.
    if (!lane.queue.empty()) mark_ready(id, lane);
    if (++dispatches_ % kGcEveryDispatches == 0) gc_lanes();
    // Read the heap before unlocking — it is mutex_-guarded state.
    const bool more_ready = !ready_.empty();

    lock.unlock();
    space_cv_.notify_all();
    if (more_ready) work_cv_.notify_one();  // more work: wake a sibling
    std::vector<ServeResult<double>> results = run_batch(id, batch);
    // Count the responses BEFORE resolving the futures: a client that reads
    // metrics right after .get() must see its own response.  find(), not
    // operator[] — the lane may have been garbage-collected while the batch
    // ran, and resurrecting it would leave inconsistent metrics.
    lock.lock();
    if (const auto post = lanes_.find(id); post != lanes_.end()) {
      post->second.metrics.responses += take;
      // Enqueue-to-response latency, recorded before the futures resolve so
      // a client reading metrics after .get() sees its own sample.  The
      // histogram increment is allocation-free (flat counter array).
      const Clock::time_point done = Clock::now();
      for (const Request& request : batch) {
        post->second.latency.record(saturating_us(done - request.enqueued));
      }
    }
    lock.unlock();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i].promise.set_value(std::move(results[i]));
    }
    lock.lock();
  }
}

std::vector<ServeResult<double>> PredictionService::fail_batch(std::size_t size,
                                                               ServeStatus status,
                                                               const std::string& message) {
  std::vector<ServeResult<double>> results;
  results.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    results.push_back(ServeResult<double>::failure(status, message));
  }
  return results;
}

std::vector<ServeResult<double>> PredictionService::run_batch(
    std::uint64_t handle_id, const std::vector<Request>& batch) {
  const auto entry = registry_.resolve_id(handle_id);
  if (!entry) {
    return fail_batch(batch.size(), ServeStatus::kUnknownModel,
                      "model was erased while the request was queued");
  }

  // Hold the current snapshot for the whole batch: a refit that swaps the
  // entry meanwhile leaves this model alive and untouched.
  const auto model = entry->snapshot();
  if (!model) {
    return fail_batch(
        batch.size(), ServeStatus::kNotFitted,
        "'" + entry->key.str() + "' has no serveable model — publish or refit first");
  }

  std::vector<data::JobRun> queries;
  queries.reserve(batch.size());
  for (const Request& request : batch) queries.push_back(request.query);

  try {
    // One stacked forward pass for the whole micro-batch — bit-identical to
    // a per-request predict loop by the predict_batch contract.
    const std::vector<double> predictions = model->predict_batch(queries);
    std::vector<ServeResult<double>> results;
    results.reserve(batch.size());
    for (const double prediction : predictions) results.push_back(prediction);
    return results;
  } catch (const std::exception& e) {
    return fail_batch(batch.size(), ServeStatus::kInternalError,
                      "'" + entry->key.str() + "': batch forward failed: " + e.what());
  }
}

}  // namespace bellamy::serve
