#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"

namespace amoeba::common {
namespace {

TEST(PersistentPool, RunsEverySubmittedTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(500);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    pool.submit([&hits, i] { hits[i].fetch_add(1); });
  }
  pool.wait_idle();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(PersistentPool, ReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 20; ++i) pool.submit([&count] { ++count; });
    pool.wait_idle();
    EXPECT_EQ(count.load(), (batch + 1) * 20);
  }
}

TEST(PersistentPool, WaitIdleRethrowsFirstTaskError) {
  ThreadPool pool(4);
  std::atomic<int> survivors{0};
  for (int i = 0; i < 32; ++i) {
    pool.submit([&survivors, i] {
      if (i == 7) throw std::runtime_error("task failed");
      ++survivors;
    });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The failure is captured, not fatal: the other tasks still ran and the
  // pool stays usable.
  EXPECT_EQ(survivors.load(), 31);
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; });
  pool.wait_idle();
  EXPECT_TRUE(ran.load());
}

TEST(PersistentPool, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) pool.submit([&count] { ++count; });
  }  // ~ThreadPool joins after the queue drains
  EXPECT_EQ(count.load(), 100);
}

}  // namespace
}  // namespace amoeba::common
