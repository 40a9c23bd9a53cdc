#include "common/thread_pool.hpp"

#include <exception>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.hpp"

namespace amoeba::common {

unsigned effective_threads(unsigned requested) noexcept {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned n = effective_threads(threads);
  workers_.reserve(n);
  for (unsigned w = 0; w < n; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  AMOEBA_EXPECTS(task != nullptr);
  {
    MutexLock lock(mutex_);
    AMOEBA_EXPECTS_MSG(!stop_, "submit on a stopping ThreadPool");
    queue_.push_back(std::move(task));
  }
  work_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::exception_ptr err;
  {
    UniqueLock lock(mutex_);
    while (!queue_.empty() || in_flight_ != 0) all_done_.wait(lock);
    err = std::exchange(first_error_, nullptr);
  }
  if (err) std::rethrow_exception(err);
}

void ThreadPool::worker_loop() {
  UniqueLock lock(mutex_);
  for (;;) {
    while (!stop_ && queue_.empty()) work_ready_.wait(lock);
    if (queue_.empty()) return;  // stop_ && drained
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    ++in_flight_;
    lock.unlock();
    std::exception_ptr err;
    try {
      task();
    } catch (...) {
      err = std::current_exception();
    }
    lock.lock();
    --in_flight_;
    if (err && !first_error_) first_error_ = err;
    if (queue_.empty() && in_flight_ == 0) all_done_.notify_all();
  }
}

}  // namespace amoeba::common
