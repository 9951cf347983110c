// ThreadPool: a small chunked fork-join executor for the hot loops.
//
// The platform's per-epoch check loop and the pool maintenance passes are
// data-parallel over disjoint slices of state (one pooled order, one graph
// entry, one worker candidate). This pool runs such loops across a fixed set
// of worker threads with dynamic chunk claiming: callers hand ParallelFor a
// half-open index range and a body; threads grab contiguous chunks off a
// shared atomic cursor until the range is drained. The caller thread
// participates, so a 1-thread pool degenerates to a plain serial loop with
// no synchronization.
//
// Determinism contract: the pool schedules *where* work runs, never *what*
// the result is. Callers that need thread-count-independent results must
// (a) write each item's result to its own slot (ParallelMap does this) and
// (b) fold the slots in index order on the calling thread afterwards — the
// "ordered reduction" used throughout src/pool/ and src/sim/. Under that
// pattern the output is a pure function of the input range, bitwise
// identical for any thread count.
//
// Nested ParallelFor calls — from inside a worker, or from a body running
// on the driving thread — run inline (serially); the pool never deadlocks
// on re-entry. One thread drives a multi-thread pool at a time. A 1-thread
// pool runs every loop inline and touches no pool state, so any number of
// threads may share one: ThreadPool::Inline() is that shared pool, the
// executor components fall back on when none is installed.
//
// Completion is chunk-claim based: a job is done when its index range is
// drained and every thread that *entered* the job has left it. Workers that
// arrive too late to claim a chunk never join the job at all — they observe
// `job_active_ == false` under the mutex and go back to waiting without
// touching the (by then possibly destroyed) body. Small fan-outs therefore
// pay only for the threads that actually participate, not a full-pool
// acknowledgement barrier per job.
//
// Hand-off is spin-then-park. A worker that finishes a job polls the job
// sequence for kSpinWindow (thread_pool.cc) before it parks on a condition
// variable, and the driving thread polls the count of workers still inside
// its job before it waits on one. A round's fan-outs follow each other
// after 10-20 µs of serial work at the median, so the next job usually
// finds its workers awake and the join finds them gone, with no futex wake
// or wait on either side. The pool spins only when each of its threads can
// have a CPU of its own (the pool size is at most the CPUs of the process's
// affinity mask); on fewer CPUs a spinning thread would take the CPU a
// working one needs, so it parks at once.
#ifndef WATTER_COMMON_THREAD_POOL_H_
#define WATTER_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace watter {

/// Fixed-size fork-join thread pool with chunked dynamic scheduling.
class ThreadPool {
 public:
  /// Creates a pool running loops on `num_threads` threads total (the
  /// caller counts as one, so `num_threads - 1` workers are spawned).
  /// `num_threads <= 0` resolves to DefaultThreads().
  explicit ThreadPool(int num_threads = 1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads participating in loops (always >= 1).
  int num_threads() const { return num_threads_; }

  /// Runs `body(begin, end)` over contiguous chunks covering [0, n), each
  /// chunk at most `grain` long, across the pool. Blocks until every index
  /// is processed. The body must not touch shared mutable state unless that
  /// state is sharded by index. The first exception thrown by any chunk is
  /// rethrown here after the loop drains.
  void ParallelFor(size_t n, size_t grain,
                   const std::function<void(size_t, size_t)>& body);

  /// Ordered-reduction helper: out[i] = fn(i) for i in [0, n). Each item
  /// writes only its own slot, so `out` is deterministic regardless of
  /// thread count; fold it in index order for a deterministic reduction.
  template <typename T, typename Fn>
  void ParallelMap(size_t n, size_t grain, std::vector<T>* out, Fn&& fn) {
    out->resize(n);
    ParallelFor(n, grain, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) (*out)[i] = fn(i);
    });
  }

  /// The number of CPUs this process may run on: the CPUs of its affinity
  /// mask, which `taskset` and container CPU sets shrink (>= 1).
  static int DefaultThreads();

  /// The process-wide 1-thread pool: runs every loop inline on the calling
  /// thread and is safe to use from any number of threads at once.
  static ThreadPool& Inline();

 private:
  void WorkerLoop();
  /// Claims and runs chunks of the current job until the range drains.
  void RunChunks();

  int num_threads_;
  // True when the pool may spin between jobs: it has workers, and no more
  // threads than the process has CPUs. Fixed at construction.
  bool spin_ = false;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;   // Signals a new job (or shutdown).
  std::condition_variable done_cv_;   // Signals the last worker leaving.
  bool stop_ = false;                 // Guarded by mu_.
  // Bumped under mu_ per ParallelFor and at shutdown; the release
  // increment publishes the job to workers polling it with acquire loads.
  std::atomic<uint64_t> job_seq_{0};
  // Workers inside the current job. A worker joins under mu_ and leaves
  // with a release decrement, which the driving thread's acquire load
  // pairs with.
  std::atomic<int> workers_in_job_{0};
  // True while the driving thread has a job in flight; written by it under
  // mu_. A ParallelFor called from inside a body on that thread then runs
  // inline, and late workers use it to tell a live job from one that
  // already completed: it turns false only once no worker is inside. The
  // pool supports one driving thread at a time (the simulation main loop).
  bool job_active_ = false;

  // Current job (valid while a ParallelFor is in flight).
  const std::function<void(size_t, size_t)>* body_ = nullptr;
  size_t n_ = 0;
  size_t grain_ = 1;
  std::atomic<size_t> next_{0};
  std::exception_ptr first_error_;
};

}  // namespace watter

#endif  // WATTER_COMMON_THREAD_POOL_H_
