#pragma once
// PredictionService: the concurrent front door of the serve layer.
//
// N client threads call predict(handle, query) (or predict_async for a
// future).  Requests land in a bounded per-handle lane; dispatcher workers
// coalesce whatever is pending into a micro-batch and flush it when either
// the batch is full (max_batch) or the lane's flush deadline expires.  A
// micro-batch executes ONE stacked forward pass on the handle's current
// immutable model snapshot (see ModelRegistry), so
//
//   * concurrent callers share forward passes instead of serializing on a
//     model mutex (a batch of k requests costs ~1 forward, not k), and all
//     dispatchers read the same const model at once, and
//   * a registry refit hot-swaps weights between micro-batches: the next
//     batch picks up the new snapshot, while in-flight batches finish on
//     the old one.
//
// Scheduling (this is the adaptive, fair core — see docs/ARCHITECTURE.md):
//
//   * ADAPTIVE FLUSH: each lane tracks an EWMA of request inter-arrival
//     time.  When the adaptive band [flush_deadline_min, flush_deadline_max]
//     is enabled, the flush deadline is the expected time to fill a batch at
//     the observed rate, clamped to the band — a bursty lane waits long
//     enough to coalesce aggressively, a trickle lane (which could never
//     fill a batch inside the band) answers near-immediately at the band
//     floor.  The effective deadline is exposed through ServeMetrics.
//   * QoS LANES: every lane carries a HandleQos (kInteractive/kBulk class +
//     weight).  The weight divides the flush deadline, so urgent lanes flush
//     sooner and rank earlier.
//   * CROSS-HANDLE DISPATCH: ready lanes enter a central deadline-ordered
//     min-heap (earliest-virtual-deadline-first; class breaks ties) instead
//     of the old id-order lane scan.  A lane's virtual deadline grows from
//     its OLDEST request's arrival time, so a saturated hot lane — whose
//     front is always recent — can never starve a cold lane whose deadline
//     has expired.  Dispatch lag past the virtual deadline is metered
//     (max_dispatch_lag_us / starved_flushes).
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
#include <optional>
#include <queue>
#include <thread>
#include <vector>

#include "data/record.hpp"
#include "serve/latency_histogram.hpp"
#include "serve/model_registry.hpp"
#include "serve/serve_result.hpp"

namespace bellamy::serve {

/// QoS class of a lane.  The class picks the tie-break between two lanes
/// whose virtual deadlines collide and documents intent; the weight does the
/// quantitative work (see HandleQos::weight).
enum class QosClass : std::uint8_t {
  kInteractive = 0,  ///< latency-sensitive traffic; wins deadline ties
  kBulk = 1,         ///< throughput traffic; happy to coalesce
};

/// Returns a stable lowercase name ("interactive" / "bulk") for logs and
/// bench output.
const char* to_string(QosClass qos);

/// Per-handle scheduling policy, set via PredictionService::set_qos().
struct HandleQos {
  /// Scheduling class; defaults to interactive (the pre-QoS behavior).
  QosClass qos = QosClass::kInteractive;
  /// Urgency multiplier, > 0.  The lane's flush deadline is DIVIDED by the
  /// weight, so weight 4 flushes (and ranks) 4x sooner and weight 0.5 is
  /// content to wait twice as long.  1.0 = neutral.
  double weight = 1.0;
  /// Aging boost: a hard ceiling on the lane's effective flush deadline,
  /// applied AFTER the weight division (0 = disabled).  A down-weighted
  /// kBulk lane under extreme interactive load can otherwise see its
  /// deadline stretched arbitrarily (long band deadline / small weight);
  /// max_lag guarantees the lane ranks no worse than a request that has
  /// already waited this long, bounding its dispatch lag.
  std::chrono::microseconds max_lag{0};
};

/// Tunables of a PredictionService, fixed at construction.
struct ServeOptions {
  /// Flush a micro-batch at this many pending requests.  1 disables
  /// coalescing (every request runs its own forward pass).
  std::size_t max_batch = 64;
  /// Bounded queue capacity per handle; producers block when it is full.
  std::size_t max_queue = 1024;
  /// Static flush deadline: flush a partial batch once its oldest request
  /// has waited this long.  Used verbatim while the adaptive band is
  /// disabled, and as the effective deadline of a lane that has not seen
  /// two requests yet (no inter-arrival sample).
  std::chrono::microseconds flush_deadline{500};
  /// Adaptive flush band.  When flush_deadline_max > 0, each lane's
  /// effective deadline adapts inside [flush_deadline_min,
  /// flush_deadline_max]: the expected time to fill max_batch at the lane's
  /// EWMA arrival rate, clamped to the band — except that a lane too slow to
  /// fill a batch within the band at all drops to the band FLOOR (waiting
  /// would add latency without adding fill).  flush_deadline_max == 0 (the
  /// default) keeps the static deadline above.
  std::chrono::microseconds flush_deadline_min{50};
  std::chrono::microseconds flush_deadline_max{0};
  /// Smoothing factor of the per-lane inter-arrival EWMA in (0, 1]; higher
  /// adapts faster, lower rides out bursts.
  double ewma_alpha = 0.2;
  /// A batch dispatched more than this far past its virtual deadline counts
  /// as starved (ServeMetrics::starved_flushes).  Purely diagnostic.
  std::chrono::microseconds starvation_lag{10000};
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
/// `coalesced` counts SIZE-triggered flushes (the batch filled to
/// max_batch), `deadline_flushes` counts deadline-triggered partial flushes,
/// `drain_flushes` counts batches pushed out by stop().  Requests that
/// shared a batch with others are tallied separately in coalesced_requests.
struct ServeMetrics {
  std::uint64_t requests = 0;            ///< accepted into the queue
  std::uint64_t responses = 0;           ///< futures fulfilled (ok or error)
  std::uint64_t batches = 0;             ///< micro-batches executed
  std::uint64_t coalesced = 0;           ///< batches flushed full (size-triggered)
  std::uint64_t deadline_flushes = 0;    ///< partial batches flushed by deadline
  std::uint64_t drain_flushes = 0;       ///< batches flushed by stop() drain
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

  // -- scheduler introspection (PR 5) --
  /// Flush deadline the lane's NEXT batch will get (static, or adaptive from
  /// the EWMA below, divided by the QoS weight).
  std::uint64_t effective_flush_deadline_us = 0;
  /// EWMA of request inter-arrival time (0 until two requests arrived).
  double interarrival_ewma_us = 0.0;
  /// Worst observed dispatch lag: how far past its virtual deadline a batch
  /// of this lane started executing.  Bounded lag == no starvation.
  std::uint64_t max_dispatch_lag_us = 0;
  /// Batches whose dispatch lag exceeded ServeOptions::starvation_lag.
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

  /// Enqueue all queries (they coalesce like any other traffic) and wait.
  /// Fails with the first per-request error if any; an empty batch is ok.
  ServeResult<std::vector<double>> predict_many(const ModelHandle& handle,
                                                const std::vector<data::JobRun>& queries);

  /// Set the handle's scheduling policy (class + weight); takes effect from
  /// the next batch the lane opens.  Fails with kUnknownModel for a retired
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

  /// Why a lane was marked ready to flush.
  enum class FlushReason : std::uint8_t { kSize, kDeadline, kDrain };

  /// Pending traffic of one handle.
  struct Lane {
    std::deque<Request> queue;
    ServeMetrics metrics;
    LatencyHistogram latency;  ///< enqueue-to-response, microseconds
    HandleQos qos;
    /// EWMA of inter-arrival time in microseconds (0 = fewer than two
    /// requests seen).
    double ewma_interarrival_us = 0.0;
    Clock::time_point last_arrival{};
    bool saw_arrival = false;
    /// Scheduling state: a lane is IDLE (empty), ARMED (non-empty, timer
    /// set at `virtual_deadline`), or READY (in the ready heap).  `token`
    /// invalidates stale heap entries: it bumps whenever the lane's front —
    /// and therefore its deadline — changes.
    bool ready = false;
    std::uint64_t token = 0;
    FlushReason reason = FlushReason::kDeadline;
    Clock::time_point virtual_deadline{};
  };

  /// Lazy-deleted entry of the timer heap (earliest deadline first) and the
  /// ready heap (earliest virtual deadline first, interactive wins ties).
  struct HeapEntry {
    Clock::time_point when;
    std::uint8_t qos_class = 0;
    std::uint64_t lane_id = 0;
    std::uint64_t token = 0;
    bool operator>(const HeapEntry& other) const {
      if (when != other.when) return when > other.when;
      if (qos_class != other.qos_class) return qos_class > other.qos_class;
      return lane_id > other.lane_id;
    }
  };
  using MinHeap = std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>;

  void worker_loop();
  /// Flush deadline the lane's next batch gets, in microseconds (adaptive or
  /// static, divided by the QoS weight; always >= 1).
  std::uint64_t effective_deadline_us(const Lane& lane) const;
  /// Mark a non-ready, non-empty lane ready and push it onto the ready heap.
  /// Caller holds the service mutex.
  void mark_ready(std::uint64_t id, Lane& lane, FlushReason reason);
  /// Arm the deadline timer for a non-empty, non-ready lane (front changed).
  /// Caller holds the service mutex.
  void arm_timer(std::uint64_t id, Lane& lane);
  /// Promote lanes whose deadline expired from the timer heap to the ready
  /// heap; returns the earliest still-armed deadline.  Caller holds the
  /// service mutex.
  std::optional<Clock::time_point> promote_expired(Clock::time_point now);
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
  MinHeap ready_;                     ///< flushable lanes, earliest deadline first
  MinHeap timers_;                    ///< armed flush deadlines of waiting lanes
  std::uint64_t dispatches_ = 0;      ///< total batches taken (drives lane GC cadence)
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace bellamy::serve
