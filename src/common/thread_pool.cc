#include "common/thread_pool.h"

#include <algorithm>

#include "common/macros.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace roicl {
namespace {

obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("threadpool.queue_depth");
  return gauge;
}

obs::Counter* TasksCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("threadpool.tasks");
  return counter;
}

obs::Histogram* TaskLatencyHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram("threadpool.task_us");
  return histogram;
}

}  // namespace

ThreadPool::ThreadPool(unsigned num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  ROICL_CHECK(task != nullptr);
  {
    MutexLock lock(mutex_);
    ROICL_CHECK_MSG(!shutdown_, "Submit() after shutdown");
    queue_.push(std::move(task));
    ++in_flight_;
    QueueDepthGauge()->Set(static_cast<double>(queue_.size()));
  }
  work_available_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(mutex_);
  while (in_flight_ != 0) all_done_.Wait(mutex_);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!shutdown_ && queue_.empty()) work_available_.Wait(mutex_);
      if (queue_.empty()) return;  // shutdown_ with drained queue
      task = std::move(queue_.front());
      queue_.pop();
      QueueDepthGauge()->Set(static_cast<double>(queue_.size()));
    }
    uint64_t task_start_us = obs::MonotonicMicros();
    task();
    TasksCounter()->Increment();
    TaskLatencyHistogram()->Observe(
        static_cast<double>(obs::MonotonicMicros() - task_start_us));
    {
      MutexLock lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

void ThreadPool::ParallelFor(int begin, int end,
                             const std::function<void(int)>& body) {
  ROICL_CHECK(end >= begin);
  int n = end - begin;
  if (n == 0) return;
  int threads = static_cast<int>(num_threads());
  // Below this size the scheduling overhead dominates; run inline.
  if (n < 2 || threads < 2) {
    for (int i = begin; i < end; ++i) body(i);
    return;
  }
  int chunks = std::min(threads, n);
  int chunk_size = (n + chunks - 1) / chunks;
  for (int c = 0; c < chunks; ++c) {
    int lo = begin + c * chunk_size;
    int hi = std::min(end, lo + chunk_size);
    if (lo >= hi) break;
    Submit([lo, hi, &body] {
      for (int i = lo; i < hi; ++i) body(i);
    });
  }
  Wait();
}

ThreadPool& GlobalThreadPool() {
  // Function-local static reference: intentionally leaked so that shutdown
  // ordering with other statics never matters (Google style guide pattern).
  static ThreadPool& pool = *new ThreadPool();
  return pool;
}

}  // namespace roicl
