#include "util/parallel.h"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/logging.h"
#include "util/strings.h"

namespace rwdom {
namespace {

// A worker pool that executes one batch of tasks at a time. Workers sleep
// on a condition variable between batches, so an idle pool costs nothing on
// the scheduler. The pool is created lazily on the first parallel region
// with more than one thread and resized when SetNumThreads changes.
class WorkerPool {
 public:
  explicit WorkerPool(int num_workers) {
    workers_.reserve(static_cast<size_t>(num_workers));
    for (int i = 0; i < num_workers; ++i) {
      workers_.emplace_back([this] { RunWorker(); });
    }
  }

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    wake_workers_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Runs tasks[0..n) across the workers and the calling thread; returns
  // once all have finished. Only one batch may be in flight at a time
  // (nested regions run inline and never reach the pool).
  void RunBatch(const std::vector<std::function<void()>>& tasks) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      batch_ = &tasks;
      next_task_ = 0;
      pending_ = tasks.size();
      ++generation_;
    }
    wake_workers_.notify_all();
    DrainTasks();
    std::unique_lock<std::mutex> lock(mu_);
    batch_done_.wait(lock, [this] { return pending_ == 0; });
    batch_ = nullptr;
  }

 private:
  void DrainTasks() {
    for (;;) {
      size_t task;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (batch_ == nullptr || next_task_ >= batch_->size()) return;
        task = next_task_++;
      }
      (*batch_)[task]();
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) batch_done_.notify_all();
    }
  }

  void RunWorker() {
    uint64_t seen_generation = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        wake_workers_.wait(lock, [&] {
          return shutdown_ || generation_ != seen_generation;
        });
        if (shutdown_) return;
        seen_generation = generation_;
      }
      DrainTasks();
    }
  }

  std::mutex mu_;
  std::condition_variable wake_workers_;
  std::condition_variable batch_done_;
  std::vector<std::thread> workers_;
  const std::vector<std::function<void()>>* batch_ = nullptr;
  size_t next_task_ = 0;
  size_t pending_ = 0;
  uint64_t generation_ = 0;
  bool shutdown_ = false;
};

int DefaultNumThreads() {
  if (const char* env = std::getenv("RWDOM_THREADS")) {
    auto parsed = ParseInt64(env);
    if (parsed.ok() && *parsed >= 1) {
      return static_cast<int>(std::min<int64_t>(*parsed, 1024));
    }
    RWDOM_LOG(WARNING) << "ignoring invalid RWDOM_THREADS=" << env;
  }
  return HardwareThreads();
}

int& ThreadCount() {
  static int count = DefaultNumThreads();
  return count;
}

// The pool keeps NumThreads() - 1 workers (the calling thread is the
// remaining executor). Guarded by a mutex so concurrent first uses are
// safe; resize only happens between batches (see SetNumThreads contract).
std::mutex g_pool_mu;
WorkerPool* g_pool = nullptr;

WorkerPool* PoolWithWorkers(int num_workers) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_pool != nullptr && g_pool->num_workers() != num_workers) {
    delete g_pool;
    g_pool = nullptr;
  }
  if (g_pool == nullptr) g_pool = new WorkerPool(num_workers);
  return g_pool;
}

// True while the current thread is inside a parallel region; nested
// regions run inline to avoid deadlocking the single shared pool.
thread_local bool tls_in_parallel_region = false;

}  // namespace

int HardwareThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int NumThreads() { return ThreadCount(); }

void SetNumThreads(int n) {
  RWDOM_CHECK_GE(n, 0) << "thread count must be >= 1 (or 0 for default)";
  ThreadCount() = n == 0 ? DefaultNumThreads() : n;
}

int MaxChunks(int64_t range_size) {
  if (range_size <= 0) return 0;
  return static_cast<int>(
      std::min<int64_t>(range_size, static_cast<int64_t>(NumThreads())));
}

void ParallelForChunks(
    int64_t begin, int64_t end,
    const std::function<void(int chunk, int64_t chunk_begin,
                             int64_t chunk_end)>& body) {
  RWDOM_DCHECK_LE(begin, end);
  const int64_t range = end - begin;
  if (range <= 0) return;
  const int chunks = MaxChunks(range);

  if (chunks == 1 || tls_in_parallel_region) {
    body(0, begin, end);
    return;
  }

  // Serialize top-level batches: the pool runs one batch at a time, so a
  // second user thread entering here waits for the first batch to drain
  // instead of corrupting the shared batch state.
  static std::mutex batch_mu;
  std::lock_guard<std::mutex> batch_lock(batch_mu);

  // Static chunking: chunk c covers [begin + c*base + min(c, rem), ...),
  // sizes differing by at most one element.
  const int64_t base = range / chunks;
  const int64_t rem = range % chunks;
  std::vector<std::exception_ptr> errors(static_cast<size_t>(chunks));
  std::vector<std::function<void()>> tasks;
  tasks.reserve(static_cast<size_t>(chunks));
  for (int c = 0; c < chunks; ++c) {
    const int64_t chunk_begin = begin + c * base + std::min<int64_t>(c, rem);
    const int64_t chunk_end = chunk_begin + base + (c < rem ? 1 : 0);
    tasks.push_back([&body, &errors, c, chunk_begin, chunk_end] {
      tls_in_parallel_region = true;
      try {
        body(c, chunk_begin, chunk_end);
      } catch (...) {
        errors[static_cast<size_t>(c)] = std::current_exception();
      }
      tls_in_parallel_region = false;
    });
  }
  PoolWithWorkers(NumThreads() - 1)->RunBatch(tasks);
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t i)>& body) {
  ParallelForChunks(begin, end,
                    [&body](int, int64_t chunk_begin, int64_t chunk_end) {
                      for (int64_t i = chunk_begin; i < chunk_end; ++i) {
                        body(i);
                      }
                    });
}

}  // namespace rwdom
