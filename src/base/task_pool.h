// TaskPool: a fixed-size thread pool that executes served requests
// (task-per-request serving, see src/serve/server.cc).
//
// Shape: N-1 background workers named worker-1 .. worker-(N-1) (trace lanes,
// see src/base/trace.h) draining one mutex-guarded FIFO deque, woken by one
// condition variable. Evaluation itself (fixpoint/chi passes, DATALOG rule
// passes) is single-threaded and never uses the pool.
//
// Instrumented (see docs/OBSERVABILITY.md): task_pool.workers (gauge),
// task_pool.tasks (counter).

#ifndef RELSPEC_BASE_TASK_POOL_H_
#define RELSPEC_BASE_TASK_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace relspec {

class TaskPool {
 public:
  /// Creates a pool of `num_threads` execution lanes: the calling thread
  /// plus num_threads - 1 spawned workers. Clamped to >= 1; a 1-thread pool
  /// spawns nothing and runs every task inline on the caller.
  explicit TaskPool(int num_threads);
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Fire-and-forget: enqueues one task for any worker. On a 1-thread pool
  /// the task runs inline on the caller before Submit returns. Tasks must
  /// track their own completion: the destructor stops workers without
  /// draining, so a task still queued when the pool dies is silently
  /// dropped — owners drain (e.g. an in-flight count) before destroying the
  /// pool. Safe to call from multiple threads.
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  int num_threads_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;  // guarded by mu_
  bool stop_ = false;                        // guarded by mu_
};

}  // namespace relspec

#endif  // RELSPEC_BASE_TASK_POOL_H_
