#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/thread_pool.hpp"

namespace wrsn {
namespace {

TEST(ThreadPool, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SubmitVoidTask) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  auto fut = pool.submit([&] { counter.fetch_add(1); });
  fut.get();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, ManyTasksAllExecute) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 200; ++i) {
    futs.push_back(pool.submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(1);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<int> hits(100, 0);
  pool.parallel_for(100, [&](std::size_t i) { hits[i] = static_cast<int>(i); });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(hits[i], i);
}

TEST(ThreadPool, ParallelForZeroIterationsIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 3) throw std::runtime_error("bad index");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForFinishesEveryTaskBeforeRethrowing) {
  // Task 0 throws at once while the slow tasks behind it are still queued;
  // they hold a reference to the caller's function, so parallel_for may only
  // rethrow once every one of them has finished.
  ThreadPool pool(2);
  constexpr std::size_t kTasks = 12;
  std::atomic<std::size_t> finished{0};
  EXPECT_THROW(pool.parallel_for(kTasks,
                                 [&](std::size_t i) {
                                   if (i == 0) throw std::runtime_error("first");
                                   std::this_thread::sleep_for(
                                       std::chrono::milliseconds(2));
                                   finished.fetch_add(1);
                                 }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), kTasks - 1);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      (void)pool.submit([&] { counter.fetch_add(1); });
    }
  }  // destructor joins; queued tasks either ran or were dropped post-stop
  // The single worker must have executed at least the task it was running,
  // and no crash/UB may occur. Executed count is <= 50.
  EXPECT_LE(counter.load(), 50);
}

TEST(ThreadPool, SingleThreadPreservesUsability) {
  ThreadPool pool(1);
  int sum = 0;
  std::vector<std::future<int>> futs;
  for (int i = 1; i <= 10; ++i) futs.push_back(pool.submit([i] { return i; }));
  for (auto& f : futs) sum += f.get();
  EXPECT_EQ(sum, 55);
}

}  // namespace
}  // namespace wrsn
