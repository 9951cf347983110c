#include "src/common/thread_pool.h"

#include <algorithm>
#include <string>

#include "src/obs/trace.h"

namespace watter {
namespace {

// True on threads owned by some ThreadPool; nested loops run inline there.
thread_local bool t_inside_worker = false;

}  // namespace

int ThreadPool::DefaultThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool& ThreadPool::Inline() {
  static ThreadPool pool(1);
  return pool;
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads <= 0 ? DefaultThreads()
                                    : num_threads) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this, i] {
      obs::TraceRecorder::Global().SetCurrentThreadName(
          "pool-worker-" + std::to_string(i));
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::ParallelFor(size_t n, size_t grain,
                             const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  grain = std::max<size_t>(grain, 1);
  // Serial fast path: nothing to fan out to, a re-entrant call from a worker
  // or from a body on the calling thread (fanning out again would clobber
  // the single in-flight job), or a range too small to split. A 1-thread
  // pool stops at the first test and reads no mutable member, which is
  // what lets threads share Inline().
  if (workers_.empty() || t_inside_worker || job_active_ || n <= grain) {
    body(0, n);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    body_ = &body;
    n_ = n;
    grain_ = grain;
    next_.store(0, std::memory_order_relaxed);
    participants_ = 1;  // The driving thread joins its own job.
    first_error_ = nullptr;
    ++job_id_;
    job_active_ = true;
  }
  work_cv_.notify_all();
  {
    WATTER_TRACE_SPAN_HOT("threadpool.job");
    RunChunks();  // The caller is a full participant.
  }
  // Chunk-claim completion: the job ends when the range is drained (the
  // caller's RunChunks return guarantees that) and every thread that joined
  // has left. Workers that never woke simply never joined — the job does
  // not wait for them.
  std::unique_lock<std::mutex> lock(mu_);
  --participants_;
  done_cv_.wait(lock, [this] { return participants_ == 0; });
  body_ = nullptr;
  job_active_ = false;
  if (first_error_) std::rethrow_exception(first_error_);
}

void ThreadPool::RunChunks() {
  for (;;) {
    size_t begin = next_.fetch_add(grain_, std::memory_order_relaxed);
    if (begin >= n_) return;
    size_t end = std::min(n_, begin + grain_);
    try {
      (*body_)(begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
      // Drain the rest of the range without running it.
      next_.store(n_, std::memory_order_relaxed);
      return;
    }
  }
}

void ThreadPool::WorkerLoop() {
  t_inside_worker = true;
  uint64_t seen_job = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || job_id_ != seen_job; });
      if (stop_) return;
      seen_job = job_id_;
      // A worker waking after the job already completed must not join it:
      // the body reference may be gone. job_active_ flips false under this
      // mutex exactly when the last participant leaves.
      if (!job_active_) continue;
      ++participants_;
    }
    {
      WATTER_TRACE_SPAN_HOT("threadpool.job");
      RunChunks();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --participants_;
      if (participants_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace watter
