#include "src/common/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <string>

#include "src/obs/trace.h"

namespace watter {
namespace {

// True on threads owned by some ThreadPool; nested loops run inline there.
thread_local bool t_inside_worker = false;

// How long a thread polls before it parks. Timed on a 4-vCPU KVM guest, the
// serial work between one fan-out's join and the next fan-out's start took
// 12-14 µs at the median over a nyc-online-matrix day (12,045 fan-outs) and
// 19-20 µs on cdc-timeout-dense; 100 µs bridges 99% and 93-94% of those
// gaps (30 µs: 74-80% and 64-66%; 300 µs: 99.9% and 99%), and a worker
// still parks a tenth of a millisecond after a burst of fan-outs ends.
// Windows of 30, 100 and 300 µs gave the same µs/order within run-to-run
// spread (docs/PERFORMANCE.md, "Spin-then-park fork-joins").
constexpr std::chrono::microseconds kSpinWindow{100};

// Polls between clock reads while spinning, so the loop polls the flag far
// more often than it reads the clock; the window overshoots by at most this
// many pauses.
constexpr int kPollsPerClockRead = 64;

// Tells the CPU this is a spin-wait loop: it frees pipeline resources for a
// sibling hyperthread and avoids a memory-order flush when the loop exits.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Polls `ready` for up to kSpinWindow; true as soon as it holds.
template <typename Ready>
bool SpinUntil(Ready ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinWindow;
  for (int polls = 1;; ++polls) {
    if (ready()) return true;
    CpuRelax();
    if (polls % kPollsPerClockRead == 0 &&
        std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
  }
}

}  // namespace

int ThreadPool::DefaultThreads() {
  cpu_set_t cpus;
  if (sched_getaffinity(0, sizeof(cpus), &cpus) != 0) return 1;
  return std::max(CPU_COUNT(&cpus), 1);
}

ThreadPool& ThreadPool::Inline() {
  static ThreadPool pool(1);
  return pool;
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads <= 0 ? DefaultThreads() : num_threads) {
  spin_ = num_threads_ > 1 && num_threads_ <= DefaultThreads();
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
    job_seq_.fetch_add(1, std::memory_order_release);  // Ends the spinning.
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
    first_error_ = nullptr;
    job_active_ = true;
    job_seq_.fetch_add(1, std::memory_order_release);
  }
  work_cv_.notify_all();  // No syscall when every worker is spinning.
  {
    WATTER_TRACE_SPAN_HOT("threadpool.job");
    RunChunks();  // The caller is a full participant.
  }
  // Chunk-claim completion: the job ends when the range is drained (the
  // caller's RunChunks return guarantees that) and every worker that joined
  // has left. Workers that never arrived never joined — the job does not
  // wait for them. The acquire loads pair with the workers' release
  // decrements, so their slot writes are visible once the count reads 0.
  // The spin only saves the wait; the check under mu_ decides, because
  // every join happened under mu_ while job_active_ was still set.
  auto drained = [this] {
    return workers_in_job_.load(std::memory_order_acquire) == 0;
  };
  if (spin_) SpinUntil(drained);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, drained);
  // Under mu_ and with the count at 0, no worker can join any more.
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
  auto published = [&] {
    return job_seq_.load(std::memory_order_acquire) != seen_job;
  };
  for (;;) {
    if (spin_) SpinUntil(published);
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || published(); });
      if (stop_) return;
      seen_job = job_seq_.load(std::memory_order_relaxed);
      // A worker arriving after the job already completed must not join
      // it: the body reference may be gone. job_active_ flips false under
      // this mutex only once no worker is inside the job.
      if (!job_active_) continue;
      workers_in_job_.fetch_add(1, std::memory_order_relaxed);
    }
    {
      WATTER_TRACE_SPAN_HOT("threadpool.job");
      RunChunks();
    }
    if (workers_in_job_.fetch_sub(1, std::memory_order_release) == 1) {
      // The last one out wakes a parked driving thread. Taking mu_ orders
      // this notify after that thread's check of the count, so it is not
      // lost.
      std::lock_guard<std::mutex> lock(mu_);
      done_cv_.notify_one();
    }
  }
}

}  // namespace watter
