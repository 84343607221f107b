#pragma once
// Fixed-size thread pool with one shared task queue.
//
// One mutex guards one FIFO of type-erased tasks; workers park on a work
// condition variable, and wait_idle() parks on an idle one.  The evaluation
// harness fans out independent cross-validation splits and hyper-parameter
// trials over this pool (the paper used Ray Tune for the same purpose), and
// threaded GEMM, the chunked batch predictor and the refit Strands submit to
// it too.  The serve dispatcher does not: PredictionService runs its own
// threads.  Exceptions thrown by tasks are captured and rethrown to the
// caller via the returned std::future.
//
// Determinism: the pool promises that each task runs exactly once, never an
// order between tasks.  Bit-identical results (threaded GEMM, chunked
// predict, parallel_reduce) come from the CALLERS writing disjoint output
// slots and combining them in submission order, so they hold under any
// interleaving of workers and helping threads.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace bellamy::parallel {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a callable; the future carries its result or exception.
  template <typename F, typename... Args>
  auto submit(F&& f, Args&&... args)
      -> std::future<std::invoke_result_t<F, Args...>> {
    using Result = std::invoke_result_t<F, Args...>;
    auto task = std::make_shared<std::packaged_task<Result()>>(
        [fn = std::forward<F>(f),
         ... captured = std::forward<Args>(args)]() mutable -> Result {
          return std::invoke(std::move(fn), std::move(captured)...);
        });
    std::future<Result> future = task->get_future();
    enqueue([task]() { (*task)(); });
    return future;
  }

  /// Block until all currently queued and running tasks finish — including
  /// tasks they spawn before the pending count reaches zero, and tasks a
  /// helping thread claimed via try_run_pending_task but has not finished
  /// (the count covers claimed-but-running work, not just the queue).
  /// Throws std::logic_error when called from one of THIS pool's workers,
  /// i.e. from inside one of its tasks: the calling task itself counts as
  /// pending, so the pool could never become idle.  Code inside the pool
  /// waits on its own futures instead (see try_run_pending_task).
  void wait_idle();

  /// True when called from one of THIS pool's worker threads.  Code that
  /// fans out over a pool and then blocks on the results from inside the
  /// same pool must drain tasks while it waits (see try_run_pending_task) —
  /// otherwise every worker could end up waiting on tasks that no free
  /// worker is left to run.
  bool owns_current_thread() const;

  /// Pop and execute one queued task on the calling thread, if any.  Returns
  /// false when the queue was empty.  Any thread may call it.  This is the
  /// helping primitive for nested fan-out: a thread that blocks on futures
  /// of this pool calls it in its wait loop, so the caller runs its share of
  /// the nested work inline and the pool can never deadlock on nested
  /// parallel_for.
  bool try_run_pending_task();

  /// Process-wide default pool (lazily constructed, hardware concurrency).
  static ThreadPool& global();

 private:
  using Task = std::function<void()>;

  /// Type-erased submit: append to the queue and wake one worker.
  void enqueue(Task task);

  /// Run a claimed task, then retire it from pending_ (waking idle waiters
  /// when it was the last one).
  void run(Task& task);

  void worker_loop();

  std::mutex mutex_;
  std::deque<Task> tasks_;           ///< guarded by mutex_
  std::size_t pending_ = 0;          ///< queued + running; guarded by mutex_
  bool stopping_ = false;            ///< guarded by mutex_
  std::condition_variable work_cv_;  ///< queue non-empty or stopping
  std::condition_variable idle_cv_;  ///< pending_ reached zero
  std::vector<std::thread> workers_;  // last: the workers use every member above
};

}  // namespace bellamy::parallel
