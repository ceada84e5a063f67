#pragma once
// Fixed-size thread pool for coarse-grained experiment parallelism.
//
// The experiment harness runs many independent simulation replicas; each
// replica owns all its state, so the only synchronization needed is the task
// queue itself. Following the HPC guidance this repo adopts (explicit,
// coarse-grained parallelism), there is no work stealing and no nested
// submission magic: submit() enqueues, workers drain.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/error.hpp"

namespace wrsn {

class ThreadPool {
 public:
  // 0 threads means "hardware concurrency, at least 1".
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mutex_);
      WRSN_ASSERT(!stopping_, "submit() after ThreadPool destruction began");
      queue_.emplace_back([task]() mutable { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  // Runs fn(i) for i in [0, n) across the pool and blocks until all complete.
  // Exceptions from tasks are rethrown (the first one, by index order) only
  // after every task has finished.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace wrsn
