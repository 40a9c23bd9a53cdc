// The repository's one owner of worker threads.
//
// `ThreadPool` is a persistent worker pool for callers that dispatch many
// small task batches (exp::SweepExecutor, which profiling and the figure
// benches fan their share-nothing simulations out through) and don't want
// a thread spawn per batch. Nothing else under src/ constructs a
// std::thread.
//
// All shared state is annotated for Clang's thread-safety analysis
// (common/mutex.hpp); the Clang CI leg compiles with
// -Werror=thread-safety, so a guarded member touched without its mutex is
// a build error, not a review comment.
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "common/mutex.hpp"

namespace amoeba::common {

/// Effective worker count: `requested`, or hardware concurrency when 0
/// (at least 1).
[[nodiscard]] unsigned effective_threads(unsigned requested) noexcept;

/// Fixed-size persistent worker pool. Tasks run in submission order (FIFO
/// dispatch) but complete in any order; `wait_idle` is the join point.
/// Exceptions thrown by tasks are captured and rethrown from `wait_idle`
/// (first one wins; the rest are dropped after running to completion).
class ThreadPool {
 public:
  /// Spawns `threads` workers (0 = hardware concurrency, at least 1).
  explicit ThreadPool(unsigned threads = 0);

  /// Joins all workers; pending tasks are still executed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueue a task. Never blocks on task execution.
  void submit(std::function<void()> task) AMOEBA_EXCLUDES(mutex_);

  /// Block until every submitted task has finished, then rethrow the first
  /// captured task exception, if any.
  void wait_idle() AMOEBA_EXCLUDES(mutex_);

 private:
  void worker_loop() AMOEBA_EXCLUDES(mutex_);

  Mutex mutex_;
  CondVar work_ready_;   // signalled on submit/stop
  CondVar all_done_;     // signalled when the pool drains
  std::deque<std::function<void()>> queue_ AMOEBA_GUARDED_BY(mutex_);
  std::size_t in_flight_ AMOEBA_GUARDED_BY(mutex_) = 0;  // dequeued, unfinished
  bool stop_ AMOEBA_GUARDED_BY(mutex_) = false;
  std::exception_ptr first_error_ AMOEBA_GUARDED_BY(mutex_);
  std::vector<std::thread> workers_;  // written only in ctor, joined in dtor
};

}  // namespace amoeba::common
