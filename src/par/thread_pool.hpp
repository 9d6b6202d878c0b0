#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <limits>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mcmcpar::par {

/// A fixed-size worker pool executing submitted tasks FIFO.
///
/// In the library, the only pool is the one a PoolBudget owns; jobs reach
/// it through PoolLease::parallelFor. `parallelFor` is the blocking
/// primitive: it runs fn(i) for i in [0, n) on the calling thread plus at
/// most `maxWorkers` pool workers, returning when every index completed.
class ThreadPool {
 public:
  /// Spawn `threads` workers (0 = hardware concurrency, at least 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned threadCount() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueue a fire-and-forget task. The task must not throw: it has no
  /// caller to receive an exception, so one escaping terminates the
  /// process. Use parallelFor for work whose exceptions must propagate.
  void submit(std::function<void()> task);

  /// Run fn(i) for every i in [0, n), distributing dynamically (one index
  /// at a time; appropriate for coarse tasks like MCMC partitions) over the
  /// calling thread and up to `maxWorkers` pool workers (default: all).
  /// Blocks.
  ///
  /// A call claims indices only from its own range and waits only for
  /// indices already running, never for a helper still queued behind other
  /// work, so concurrent and nested calls cannot deadlock and a caller never
  /// runs another call's work. The first exception fn throws is rethrown
  /// once every index has run.
  void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn,
                   unsigned maxWorkers = std::numeric_limits<unsigned>::max());

 private:
  void workerLoop(const std::stop_token& stop);

  std::vector<std::jthread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable taskReady_;
  bool stopping_ = false;
};

}  // namespace mcmcpar::par
