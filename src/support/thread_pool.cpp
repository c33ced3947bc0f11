#include "support/thread_pool.h"

#include <atomic>
#include <chrono>
#include <exception>

#include "support/metrics.h"
#include "support/trace.h"

namespace argo::support {

namespace {

// Registry lookups once per process; the instruments themselves are one
// relaxed atomic op each (see support/metrics.h).
MetricCounter& poolTasksCounter() {
  static MetricCounter& counter =
      MetricsRegistry::global().counter("pool.tasks");
  return counter;
}

MetricCounter& poolStealsCounter() {
  static MetricCounter& counter =
      MetricsRegistry::global().counter("pool.steals");
  return counter;
}

MetricGauge& poolQueueDepthPeak() {
  static MetricGauge& gauge =
      MetricsRegistry::global().gauge("pool.queue_depth_peak");
  return gauge;
}

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  queues_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { workerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wakeMutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  std::size_t target;
  {
    std::lock_guard<std::mutex> lock(wakeMutex_);
    target = nextQueue_;
    nextQueue_ = (nextQueue_ + 1) % queues_.size();
  }
  std::size_t depth;
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(task));
    depth = queues_[target]->tasks.size();
  }
  poolQueueDepthPeak().noteMax(depth);
  wake_.notify_all();
}

bool ThreadPool::tryRunOne(std::size_t self) {
  const std::size_t count = queues_.size();
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t q = (self + k) % count;
    std::function<void()> task;
    {
      std::lock_guard<std::mutex> lock(queues_[q]->mutex);
      if (queues_[q]->tasks.empty()) continue;
      if (q == self) {
        task = std::move(queues_[q]->tasks.front());
        queues_[q]->tasks.pop_front();
      } else {
        // Steal from the cold end of a victim's deque.
        task = std::move(queues_[q]->tasks.back());
        queues_[q]->tasks.pop_back();
      }
    }
    poolTasksCounter().add();
    // A pop from any queue but the executor's own counts as a steal; the
    // helping caller (self == count) has no queue, so all its pops do.
    if (q != self) poolStealsCounter().add();
    {
      TraceSpan span("pool", q == self ? "task" : "task(steal)");
      task();
    }
    return true;
  }
  return false;
}

void ThreadPool::workerLoop(std::size_t index) {
  for (;;) {
    if (tryRunOne(index)) continue;
    std::unique_lock<std::mutex> lock(wakeMutex_);
    if (stopping_) return;
    // Re-check under the lock: enqueue() signals after pushing, so a short
    // timed wait covers the push-before-sleep race without busy spinning.
    wake_.wait_for(lock, std::chrono::milliseconds(10));
  }
}

void ThreadPool::parallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;

  struct BatchState {
    std::atomic<std::size_t> done{0};
    std::mutex mutex;
    std::condition_variable allDone;
    std::exception_ptr error;
    std::size_t errorIndex = 0;
  };
  auto state = std::make_shared<BatchState>();

  for (std::size_t i = 0; i < n; ++i) {
    enqueue([state, i, n, &fn] {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->mutex);
        if (!state->error || i < state->errorIndex) {
          state->error = std::current_exception();
          state->errorIndex = i;
        }
      }
      if (state->done.fetch_add(1, std::memory_order_release) + 1 == n) {
        // Empty critical section: pairs with the caller's predicate check
        // under the same mutex, so the final wakeup cannot be lost.
        { std::lock_guard<std::mutex> lock(state->mutex); }
        state->allDone.notify_all();
      }
    });
  }

  // The caller works too (it is one of the batch's executors); once the
  // queues are drained it blocks until the in-flight tail finishes.
  // `fn` stays alive until done == n, so the reference capture above is
  // safe: every task runs before this function returns.
  for (;;) {
    if (state->done.load(std::memory_order_acquire) >= n) break;
    if (tryRunOne(queues_.size())) continue;
    std::unique_lock<std::mutex> lock(state->mutex);
    state->allDone.wait(lock, [&] {
      return state->done.load(std::memory_order_acquire) >= n;
    });
  }

  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace argo::support
