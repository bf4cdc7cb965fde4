//===- engine/ThreadPool.h - Fixed-size worker pool -------------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size thread pool backing the experiment engine.  Tasks are
/// executed in FIFO submission order (each worker pulls the oldest queued
/// task); wait() blocks until every submitted task has finished, and the
/// destructor drains the queue before joining, so no submitted task is
/// ever lost.  Task exceptions are the submitter's problem: the engine
/// wraps each cell in its own try/catch, and a task that leaks an
/// exception through the pool terminates (by design -- the pool cannot
/// guess a recovery policy).
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_ENGINE_THREADPOOL_H
#define SPECCTRL_ENGINE_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace specctrl {
namespace engine {

/// A fixed-size FIFO thread pool.
class ThreadPool {
public:
  /// Creates \p Threads workers; 0 means std::thread::hardware_concurrency
  /// (at least one).
  explicit ThreadPool(unsigned Threads = 0);

  /// Drains the queue (all submitted tasks run) and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Number of worker threads.
  unsigned size() const { return static_cast<unsigned>(Workers.size()); }

  /// Enqueues \p Task.  Thread-safe; may be called from worker threads.
  void submit(std::function<void()> Task);

  /// Blocks until every task submitted so far has completed.
  void wait();

  /// Resolves a --jobs-style request: 0 -> hardware concurrency, with a
  /// floor of one.
  static unsigned resolveJobs(unsigned Requested);

private:
  void workerLoop();

  std::mutex Mutex;
  std::condition_variable WorkReady;
  std::condition_variable AllDone;
  std::deque<std::function<void()>> Queue;
  std::vector<std::thread> Workers;
  size_t Outstanding = 0; ///< queued + currently running tasks
  bool Stopping = false;
};

} // namespace engine
} // namespace specctrl

#endif // SPECCTRL_ENGINE_THREADPOOL_H
