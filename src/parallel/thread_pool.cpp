#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>

namespace bellamy::parallel {

// Idle accounting.  pending_ counts a task from the moment it is enqueued
// until its body has returned and its closure is destroyed, no matter which
// thread ran it: a worker, or any thread helping through
// try_run_pending_task.  Idleness is exactly pending_ == 0.  Tracking it as
// "queue empty && nothing running" instead opens a window where a helper has
// already popped a task but not yet counted it as running, and wait_idle
// returns while that task still runs (tests/parallel/test_thread_pool.cpp:
// WaitIdleSeesTaskClaimedByExternalHelper).

namespace {
// Owning pool of the current thread (nullptr outside any pool worker).
thread_local const ThreadPool* t_current_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

bool ThreadPool::owns_current_thread() const { return t_current_pool == this; }

void ThreadPool::enqueue(Task task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // A worker may still submit while the pool shuts down: it is itself
    // running, and workers only exit once the queue is empty, so the task
    // still runs exactly once.
    if (stopping_ && !owns_current_thread()) {
      throw std::runtime_error("ThreadPool::submit after shutdown");
    }
    tasks_.push_back(std::move(task));
    ++pending_;
  }
  work_cv_.notify_one();
}

void ThreadPool::run(Task& task) {
  task();           // exceptions are captured by the packaged_task wrapper
  task = nullptr;   // the closure dies before the task counts as done
  // Notify under the lock: a waiter that sees pending_ == 0 may destroy the
  // pool as soon as it reacquires mutex_.
  std::lock_guard<std::mutex> lock(mutex_);
  if (--pending_ == 0) idle_cv_.notify_all();
}

void ThreadPool::worker_loop() {
  t_current_pool = this;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping, and the queue is drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    run(task);
  }
}

bool ThreadPool::try_run_pending_task() {
  Task task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop_front();
  }
  run(task);
  return true;
}

void ThreadPool::wait_idle() {
  if (owns_current_thread()) {
    throw std::logic_error(
        "ThreadPool::wait_idle called from one of the pool's own tasks, which would "
        "wait for itself");
  }
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace bellamy::parallel
