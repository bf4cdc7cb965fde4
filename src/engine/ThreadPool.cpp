//===- engine/ThreadPool.cpp - Fixed-size worker pool ---------------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "engine/ThreadPool.h"

#include <cassert>

using namespace specctrl;
using namespace specctrl::engine;

unsigned ThreadPool::resolveJobs(unsigned Requested) {
  if (Requested != 0)
    return Requested;
  const unsigned HW = std::thread::hardware_concurrency();
  return HW != 0 ? HW : 1;
}

ThreadPool::ThreadPool(unsigned Threads) {
  Threads = resolveJobs(Threads);
  Workers.reserve(Threads);
  for (unsigned I = 0; I < Threads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  WorkReady.notify_all();
  for (std::thread &Worker : Workers)
    Worker.join();
}

void ThreadPool::submit(std::function<void()> Task) {
  assert(Task && "null task");
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    assert(!Stopping && "submit after shutdown began");
    Queue.push_back(std::move(Task));
    ++Outstanding;
  }
  WorkReady.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(Mutex);
  AllDone.wait(Lock, [this] { return Outstanding == 0; });
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkReady.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping and nothing left: the queue was drained.
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    Task();
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (--Outstanding == 0)
        AllDone.notify_all();
    }
  }
}
