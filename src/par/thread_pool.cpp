#include "par/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "par/concurrency.hpp"

namespace mcmcpar::par {

namespace {

/// The shared state of one parallelFor call. Helpers hold it by shared_ptr:
/// a helper that starts after the caller returned finds no index left and
/// exits without touching the caller's frame (`fn` is dereferenced only
/// after a successful claim, i.e. while the caller is still waiting).
struct ParallelCall {
  ParallelCall(std::size_t count, const std::function<void(std::size_t)>& f)
      : n(count), fn(&f) {}

  /// Claim and run indices until none is left.
  void work() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      std::exception_ptr caught;
      try {
        (*fn)(i);
      } catch (...) {
        caught = std::current_exception();
      }
      const std::scoped_lock lock(mutex);
      if (caught && !error) error = caught;
      if (++finished == n) allFinished.notify_all();
    }
  }

  const std::size_t n;
  const std::function<void(std::size_t)>* const fn;
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::condition_variable allFinished;
  std::size_t finished = 0;  ///< guarded by mutex
  std::exception_ptr error;  ///< first failure; guarded by mutex
};

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  threads = resolveThreadCount(threads);
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back(
        [this](const std::stop_token& stop) { workerLoop(stop); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  for (auto& w : workers_) w.request_stop();
  taskReady_.notify_all();
  // Join here rather than in the jthread destructors: `workers_` is
  // declared first, so its implicit join would run *after* mutex_ and the
  // condition variable are destroyed.
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard lock(mutex_);
    queue_.push(std::move(task));
  }
  taskReady_.notify_one();
}

void ThreadPool::parallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn,
                             unsigned maxWorkers) {
  if (n == 0) return;
  const auto call = std::make_shared<ParallelCall>(n, fn);
  const std::size_t helpers =
      std::min<std::size_t>({maxWorkers, threadCount(), n - 1});
  try {
    for (std::size_t h = 0; h < helpers; ++h) {
      submit([call] { call->work(); });
    }
  } catch (...) {
    // Out of memory while queueing: the caller runs whatever the helpers
    // already queued do not claim, so the call still completes.
  }
  call->work();
  std::unique_lock lock(call->mutex);
  call->allFinished.wait(lock, [&] { return call->finished == n; });
  if (call->error) std::rethrow_exception(call->error);
}

void ThreadPool::workerLoop(const std::stop_token& stop) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      taskReady_.wait(lock, [this, &stop] {
        return stopping_ || stop.stop_requested() || !queue_.empty();
      });
      if (queue_.empty()) return;  // stopping with nothing left to run
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();  // a throwing task terminates (see the submit() contract)
  }
}

}  // namespace mcmcpar::par
