#pragma once
// PredictionService: the concurrent front door of the serve layer.
//
// N client threads call predict(handle, query) (or predict_async for a
// future).  Requests land in a bounded per-handle lane; dispatch is
// WORK-CONSERVING: a lane is ready as soon as it holds a request, an idle
// dispatcher takes the most urgent ready lane at once, and a micro-batch is
// whatever queued there while the dispatchers were busy (up to max_batch).
// Nothing waits on a timer.  A micro-batch executes ONE stacked forward
// pass on the handle's current immutable model snapshot (see ModelRegistry),
// so
//
//   * concurrent callers share forward passes instead of serializing on a
//     model mutex (a batch of k requests costs ~1 forward, not k), and all
//     dispatchers read the same const model at once, and
//   * a registry refit hot-swaps weights between micro-batches: the next
//     batch picks up the new snapshot, while in-flight batches finish on
//     the old one.
//
// A multi-row call (predict_many, predict_many_async) enqueues all of its
// rows under one lock hold, so an idle dispatcher cannot split a sweep into
// a batch per row.
//
// Scheduling across handles (see docs/ARCHITECTURE.md):
//
//   * QoS LANES: every lane carries a HandleQos (kInteractive/kBulk class +
//     weight).  A lane's rank is its OLDEST request's arrival plus a rank
//     slack of 500 us divided by the weight (capped by max_lag), so urgent
//     lanes rank earlier.
//   * CROSS-HANDLE DISPATCH: ready lanes sit in one rank-ordered min-heap
//     (earliest-deadline-first; class breaks ties).  Because the rank grows
//     from the front request's arrival, a saturated hot lane — whose front
//     is always recent — can never starve a cold lane that has been waiting.
//     Dispatch lag past the rank is metered (max_dispatch_lag_us /
//     starved_flushes).
//
// Coalescing is bit-transparent: predict_batch is certified bit-identical to
// the per-sample loop, and a model built from a checkpoint predicts
// bit-identically to its source — so the value a request receives does not
// depend on which micro-batch it rode in (tests/serve/
// test_prediction_service.cpp soaks this under 8+ client threads).
//
// When the queue is full, producers block (backpressure) rather than drop;
// stop() drains every queue before joining the workers, so no accepted
// request is ever lost.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <span>
#include <thread>
#include <vector>

#include "data/record.hpp"
#include "serve/latency_histogram.hpp"
#include "serve/model_registry.hpp"
#include "serve/serve_result.hpp"

namespace bellamy::serve {

/// QoS class of a lane.  The class picks the tie-break between two lanes
/// whose ranks collide and documents intent; the weight does the
/// quantitative work (see HandleQos::weight).
enum class QosClass : std::uint8_t {
  kInteractive = 0,  ///< latency-sensitive traffic; wins rank ties
  kBulk = 1,         ///< throughput traffic; happy to coalesce
};

/// Returns a stable lowercase name ("interactive" / "bulk") for logs and
/// bench output.
const char* to_string(QosClass qos);

/// Per-handle scheduling policy, set via PredictionService::set_qos().
struct HandleQos {
  /// Scheduling class; defaults to interactive (the pre-QoS behavior).
  QosClass qos = QosClass::kInteractive;
  /// Urgency multiplier, > 0.  The lane's rank slack is DIVIDED by the
  /// weight, so weight 4 ranks a request as if it had waited 4x longer and
  /// weight 0.5 is content to rank behind.  1.0 = neutral.
  double weight = 1.0;
  /// Aging boost: a hard ceiling on the lane's rank slack, applied AFTER the
  /// weight division (0 = disabled).  A down-weighted kBulk lane under
  /// extreme interactive load can otherwise see its slack stretched
  /// arbitrarily (slack / small weight); max_lag guarantees the lane ranks
  /// no worse than a request that has already waited this long, bounding
  /// its dispatch lag.
  std::chrono::microseconds max_lag{0};
};

/// Tunables of a PredictionService, fixed at construction.
struct ServeOptions {
  /// Largest micro-batch a dispatcher takes from a lane.  1 disables
  /// coalescing (every request runs its own forward pass).
  std::size_t max_batch = 64;
  /// Bounded queue capacity per handle; producers block when it is full.
  std::size_t max_queue = 1024;
  /// Scheduling policy for lanes that never called set_qos().
  HandleQos default_qos{};
  /// Dispatcher threads executing micro-batches (>= 1).
  std::size_t workers = 1;
};

/// Per-handle serving counters.  A snapshot; not synchronized with in-flight
/// requests beyond the service mutex.
///
/// Accounting invariants (held whenever the lane is drained, certified by
/// tests/serve/test_prediction_service.cpp):
///
///   requests  == responses                       (nothing lost or invented)
///   coalesced + deadline_flushes + drain_flushes == batches
///
/// `coalesced` counts full batches (max_batch requests), `deadline_flushes`
/// counts partial batches taken while the service runs (the name predates
/// work-conserving dispatch), `drain_flushes` counts partial batches taken
/// by stop()'s drain.  Requests that shared a batch with others are tallied
/// separately in coalesced_requests.
struct ServeMetrics {
  std::uint64_t requests = 0;            ///< accepted into the queue
  std::uint64_t responses = 0;           ///< futures fulfilled (ok or error)
  std::uint64_t batches = 0;             ///< micro-batches executed
  std::uint64_t coalesced = 0;           ///< full batches (max_batch requests)
  std::uint64_t deadline_flushes = 0;    ///< partial batches
  std::uint64_t drain_flushes = 0;       ///< partial batches taken by stop()'s drain
  std::uint64_t coalesced_requests = 0;  ///< requests that shared a batch with others
  std::uint64_t max_queue_depth = 0;     ///< high-water mark of the pending queue
  std::uint64_t queue_depth = 0;         ///< pending requests right now
  /// Retired: counters of the per-handle model replica pool, which serving
  /// no longer has (every batch reads the shared immutable snapshot).  They
  /// always read 0 and stay only because the MetricsResponse wire layout
  /// carries them; the next wire version bump drops them.
  std::uint64_t replica_hits = 0;
  std::uint64_t replica_misses = 0;
  std::uint64_t replica_invalidations = 0;

  // -- scheduler introspection --
  /// The lane's rank slack: 500 us divided by the QoS weight, capped by
  /// max_lag.  A lane ranks at its front request's arrival plus this.
  std::uint64_t effective_flush_deadline_us = 0;
  /// Retired: the inter-arrival EWMA of the deleted adaptive flush band.
  /// Always 0; kept only because the MetricsResponse wire layout carries it
  /// until the next wire version bump.
  double interarrival_ewma_us = 0.0;
  /// Worst observed dispatch lag: how far past its rank a batch of this
  /// lane started executing.  Bounded lag == no starvation.
  std::uint64_t max_dispatch_lag_us = 0;
  /// Batches whose dispatch lag exceeded 10 ms.
  std::uint64_t starved_flushes = 0;

  // -- request-latency percentiles (PR 6) --
  /// Enqueue-to-response latency quantiles from the lane's fixed-bucket
  /// log-scale histogram (serve/latency_histogram.hpp): zero allocation on
  /// the hot path, <= 12.5% relative bucket error.  0 until the first
  /// response.  These feed the wire MetricsResponse and the admin `stats`
  /// console.
  std::uint64_t latency_count = 0;  ///< responses measured into the histogram
  std::uint64_t latency_p50_us = 0;
  std::uint64_t latency_p95_us = 0;
  std::uint64_t latency_p99_us = 0;

  // -- drift monitoring + refit economics (PR 9) --
  /// Relative-prediction-error EWMA over runs reported via report_run
  /// (serve::DriftMonitor); 0 until the first report.
  double drift_error_ewma = 0.0;
  std::uint64_t drift_reports = 0;  ///< observed runs reported for this handle
  std::uint64_t drift_refits = 0;   ///< refits auto-queued by drift detection
  /// Training-data reduction counters from the registry entry: refits that
  /// ran with an active ReductionConfig, cumulative runs they dropped, and
  /// the coreset size of the latest one.
  std::uint64_t reductions = 0;
  std::uint64_t reduction_runs_dropped = 0;
  std::uint64_t reduction_last_kept = 0;

  /// Mean requests per executed micro-batch (0 before the first batch).
  double mean_batch_fill() const {
    return batches == 0 ? 0.0 : static_cast<double>(responses) / static_cast<double>(batches);
  }
};

/// Thread-safe micro-batching prediction front end over a ModelRegistry.
///
/// Thread-safety contract: every public member may be called concurrently
/// from any thread.  predict()/predict_many() block (on the micro-batch, and
/// on backpressure when the lane is full); predict_async() blocks only on
/// backpressure.  stop() is idempotent and drains accepted requests before
/// joining the workers; the destructor calls it.
class PredictionService {
 public:
  /// The registry must outlive the service.
  explicit PredictionService(ModelRegistry& registry, ServeOptions options = {});
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  /// Blocking predict: enqueue, wait for the micro-batch carrying it.
  ServeResult<double> predict(const ModelHandle& handle, const data::JobRun& query);

  /// Enqueue and return immediately; the future resolves when the request's
  /// micro-batch executes.  Always returns a valid future (errors travel
  /// through it).
  std::future<ServeResult<double>> predict_async(const ModelHandle& handle,
                                                 const data::JobRun& query);

  /// Enqueue all queries at once and return one future per query, in order.
  /// The rows enter the lane under one lock hold (taken again only while the
  /// lane is full), so they ride in as few micro-batches as max_batch allows.
  /// Every other predict entry point enqueues through here.
  std::vector<std::future<ServeResult<double>>> predict_many_async(
      const ModelHandle& handle, std::span<const data::JobRun> queries);

  /// predict_many_async, then wait.  Fails with the first per-request error
  /// if any; an empty batch is ok.
  ServeResult<std::vector<double>> predict_many(const ModelHandle& handle,
                                                std::span<const data::JobRun> queries);

  /// Set the handle's scheduling policy (class + weight); takes effect from
  /// the next time the lane is ranked.  Fails with kUnknownModel for a retired
  /// handle and kInvalidArgument for a non-positive/non-finite weight.
  ServeResult<Unit> set_qos(const ModelHandle& handle, HandleQos qos);

  /// The handle's current scheduling policy (default_qos until set_qos).
  ServeResult<HandleQos> qos(const ModelHandle& handle) const;

  /// Serving counters for one handle (zeroed until its first request).
  ServeResult<ServeMetrics> metrics(const ModelHandle& handle) const;

  /// Drain every queue, then stop the workers.  Requests arriving after
  /// stop() fail with kShutdown.  Idempotent; the destructor calls it.
  void stop();

  const ServeOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    data::JobRun query;
    std::promise<ServeResult<double>> promise;
    Clock::time_point enqueued;
  };

  /// Pending traffic of one handle.
  struct Lane {
    std::deque<Request> queue;
    ServeMetrics metrics;
    LatencyHistogram latency;  ///< enqueue-to-response, microseconds
    HandleQos qos;
    /// In the ready heap.  Set when the lane turns non-empty, cleared when a
    /// dispatcher takes its batch, so a lane sits in the heap at most once.
    bool ready = false;
  };

  /// Ready-heap entry: earliest rank (front arrival + rank slack) first,
  /// interactive wins ties.
  struct ReadyLane {
    Clock::time_point rank;
    std::uint8_t qos_class = 0;
    std::uint64_t lane_id = 0;
    bool operator>(const ReadyLane& other) const {
      if (rank != other.rank) return rank > other.rank;
      if (qos_class != other.qos_class) return qos_class > other.qos_class;
      return lane_id > other.lane_id;
    }
  };

  void worker_loop();
  /// The lane's rank slack in microseconds (>= 1).
  static std::uint64_t rank_slack_us(const HandleQos& qos);
  /// Rank a non-empty lane by its front request and push it onto the ready
  /// heap.  Caller holds the service mutex.
  void mark_ready(std::uint64_t id, Lane& lane);
  /// Garbage-collect drained lanes of erased handles.  Caller holds the
  /// service mutex.
  void gc_lanes();
  /// Execute one micro-batch outside the service mutex; returns one result
  /// per request (the caller resolves the promises after counting them).
  std::vector<ServeResult<double>> run_batch(std::uint64_t handle_id,
                                             const std::vector<Request>& batch);
  static std::vector<ServeResult<double>> fail_batch(std::size_t size, ServeStatus status,
                                                     const std::string& message);

  ModelRegistry& registry_;
  ServeOptions options_;

  mutable std::mutex mutex_;
  std::mutex stop_mutex_;             ///< serializes stop() (join is not reentrant)
  std::condition_variable work_cv_;   ///< signals workers: traffic or stop
  std::condition_variable space_cv_;  ///< signals producers: queue has room
  std::map<std::uint64_t, Lane> lanes_;
  /// Non-empty lanes, earliest rank first.
  std::priority_queue<ReadyLane, std::vector<ReadyLane>, std::greater<>> ready_;
  std::uint64_t dispatches_ = 0;      ///< total batches taken (drives lane GC cadence)
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace bellamy::serve
