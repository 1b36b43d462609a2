#include "src/base/task_pool.h"

#include <algorithm>
#include <utility>

#include "src/base/metrics.h"
#include "src/base/str_util.h"
#include "src/base/trace.h"

namespace relspec {

TaskPool::TaskPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  RELSPEC_GAUGE_SET("task_pool.workers", num_threads_);
  threads_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 1; i < num_threads_; ++i) {
    threads_.emplace_back([this, i] {
      Tracer::Global().SetCurrentThreadName(StrFormat("worker-%d", i));
      WorkerLoop();
    });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void TaskPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      RELSPEC_TRACE_SPAN("task_pool", "park");
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !tasks_.empty(); });
      if (stop_) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    RELSPEC_COUNTER("task_pool.tasks");
    RELSPEC_TRACE_SPAN("task_pool", "run");
    task();
  }
}

void TaskPool::Submit(std::function<void()> task) {
  if (num_threads_ <= 1) {
    RELSPEC_COUNTER("task_pool.tasks");
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

}  // namespace relspec
