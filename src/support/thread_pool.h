// A small work-stealing thread pool. Its one client is support::TaskGraph
// (support/graph.h), which drains its ready queue on a transient pool.
//
// Design:
//  * one deque per worker; parallelFor() deals tasks round-robin, a worker
//    pops from the front of its own deque and steals from the back of
//    others,
//  * the thread calling parallelFor() participates (steals too), so a
//    1-thread pool never deadlocks and nested helpers make progress,
//  * parallelFor() is deterministic about failures: if several indices
//    throw, the exception of the *lowest* index is rethrown, regardless of
//    execution interleaving.
//
// The pool itself never imposes an ordering on task side effects; callers
// that need bit-identical results against a sequential run must write into
// per-index slots and reduce in index order afterwards.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace argo::support {

class ThreadPool {
 public:
  /// `threads == 0` uses the hardware concurrency (at least 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Runs `fn(i)` for every i in [0, n), blocking until all complete. The
  /// calling thread helps execute tasks. If any index throws, the
  /// exception thrown by the lowest such index is rethrown after the whole
  /// batch has drained (no index is skipped because another failed).
  void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct Queue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void enqueue(std::function<void()> task);
  /// Pops from `self`'s queue front, else steals from another queue's
  /// back. Returns false when every queue is empty.
  bool tryRunOne(std::size_t self);
  void workerLoop(std::size_t index);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex wakeMutex_;
  std::condition_variable wake_;
  std::size_t nextQueue_ = 0;  // round-robin enqueue cursor (under wakeMutex_)
  bool stopping_ = false;
};

}  // namespace argo::support
