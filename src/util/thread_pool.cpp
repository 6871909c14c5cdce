#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace rid::util {

namespace {

/// Pool utilization metrics. Tasks are coarse (one per worker per
/// parallel_for_each call), so per-task accounting is cheap. Deliberately
/// metrics-only — pool activity depends on the thread count, and trace
/// span content must not (see util/trace.hpp).
struct PoolMetrics {
  metrics::Counter& tasks = metrics::global().counter("pool.tasks");
  metrics::Gauge& queue_depth_max =
      metrics::global().gauge("pool.queue_depth_max");
  metrics::Histogram& task_ns = metrics::global().histogram("pool.task_ns");
};

PoolMetrics& pool_metrics() {
  static PoolMetrics instance;
  return instance;
}

// Constructed at load time, not on first use: a forked shard worker's DP
// may start a pool while another thread of the parent (a serve runner) is
// starting its first one, and a child that inherits a half-finished static
// initialization waits on its guard forever.
[[maybe_unused]] const PoolMetrics& kPoolMetricsAtLoad = pool_metrics();

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t count = std::max<std::size_t>(1, num_threads);
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  has_work_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  PoolMetrics& pm = pool_metrics();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push(std::move(task));
    ++in_flight_;
    pm.queue_depth_max.set_max(static_cast<double>(queue_.size()));
  }
  pm.tasks.add(1);
  has_work_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      has_work_.wait(lock,
                     [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down
      task = std::move(queue_.front());
      queue_.pop();
    }
    const std::uint64_t task_start_ns = trace::now_ns();
    task();
    pool_metrics().task_ns.observe(trace::now_ns() - task_start_ns);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) idle_.notify_all();
    }
  }
}

void parallel_for_each(std::size_t count, std::size_t num_threads,
                       const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (num_threads <= 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  ThreadPool pool(std::min(num_threads, count));
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  for (std::size_t t = 0; t < pool.num_threads(); ++t) {
    pool.submit([&] {
      while (true) {
        const std::size_t i = next.fetch_add(1);
        if (i >= count) return;
        try {
          fn(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      }
    });
  }
  pool.wait_idle();
  if (first_error) std::rethrow_exception(first_error);
}

std::vector<std::exception_ptr> parallel_for_each_collect(
    std::size_t count, std::size_t num_threads,
    const std::function<void(std::size_t)>& fn) {
  std::vector<std::exception_ptr> errors(count);
  if (count == 0) return errors;
  const auto run_one = [&](std::size_t i) {
    try {
      fn(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  if (num_threads <= 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) run_one(i);
    return errors;
  }
  ThreadPool pool(std::min(num_threads, count));
  std::atomic<std::size_t> next{0};
  for (std::size_t t = 0; t < pool.num_threads(); ++t) {
    pool.submit([&] {
      while (true) {
        const std::size_t i = next.fetch_add(1);
        if (i >= count) return;
        run_one(i);  // errors[i] is this index's slot: no lock needed
      }
    });
  }
  pool.wait_idle();
  return errors;
}

}  // namespace rid::util
