// Unit tests of the chunked fork-join ThreadPool: full coverage of the
// index range, reuse across many jobs, inline nesting, exception
// propagation, the ordered-reduction (ParallelMap) determinism pattern,
// the affinity-mask thread default, and the spin-then-park hand-off.
#include "src/common/thread_pool.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace watter {
namespace {

TEST(ThreadPoolTest, ResolvesThreadCounts) {
  EXPECT_EQ(ThreadPool(1).num_threads(), 1);
  EXPECT_EQ(ThreadPool(3).num_threads(), 3);
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
  // 0 and negative counts mean every CPU the process may run on.
  EXPECT_EQ(ThreadPool(0).num_threads(), ThreadPool::DefaultThreads());
  EXPECT_EQ(ThreadPool(-4).num_threads(), ThreadPool::DefaultThreads());
}

TEST(ThreadPoolTest, DefaultThreadsCountsTheAffinityMask) {
  // Under `taskset -c 0` a 4-CPU machine still reports 4 hardware threads;
  // the default must be the 1 CPU the process may use. Pin this thread
  // (sched_setaffinity with pid 0 changes only the calling thread), read
  // the default, and restore the mask before asserting.
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const int default_threads = ThreadPool::DefaultThreads();
  const int pool_threads = ThreadPool(0).num_threads();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(default_threads, 1);
  EXPECT_EQ(pool_threads, 1);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.ParallelFor(n, 3, [&](size_t begin, size_t end) {
        ASSERT_LE(begin, end);
        ASSERT_LE(end, n);
        for (size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " threads=" << threads;
      }
    }
  }
}

TEST(ThreadPoolTest, ReusableAcrossManyJobs) {
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  for (int job = 0; job < 200; ++job) {
    pool.ParallelFor(64, 4, [&](size_t begin, size_t end) {
      total.fetch_add(static_cast<int64_t>(end - begin),
                      std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 200 * 64);
}

TEST(ThreadPoolTest, ParallelMapIsDeterministicAcrossThreadCounts) {
  auto square_sum = [](int threads) {
    ThreadPool pool(threads);
    std::vector<int64_t> out;
    pool.ParallelMap(512, 8, &out, [](size_t i) {
      return static_cast<int64_t>(i) * static_cast<int64_t>(i);
    });
    // Ordered reduction on the calling thread.
    return std::accumulate(out.begin(), out.end(), int64_t{0});
  };
  int64_t reference = square_sum(1);
  for (int threads : {2, 3, 8}) {
    EXPECT_EQ(square_sum(threads), reference);
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(256);
  pool.ParallelFor(16, 1, [&](size_t begin, size_t end) {
    for (size_t outer = begin; outer < end; ++outer) {
      // Re-entrant call from a worker (or the driving thread's own chunk):
      // must run inline without deadlocking.
      pool.ParallelFor(16, 1, [&](size_t ib, size_t ie) {
        for (size_t inner = ib; inner < ie; ++inner) {
          hits[outer * 16 + inner].fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, ChunkClaimCompletionHasNoCrossJobInterference) {
  // Chunk-claim completion lets a job finish before every worker has woken;
  // a worker waking late must never run a previous job's body. Hammer the
  // pool with many back-to-back jobs, each writing a distinct stamp into
  // its own buffer: any late waker touching a dead or wrong body would
  // corrupt an earlier buffer (and trip TSan on the dangling reference).
  ThreadPool pool(8);
  constexpr int kJobs = 500;
  constexpr size_t kItems = 37;  // Odd small size: most workers wake late.
  std::vector<std::vector<int>> buffers(kJobs, std::vector<int>(kItems, -1));
  for (int job = 0; job < kJobs; ++job) {
    auto& buffer = buffers[job];
    pool.ParallelFor(kItems, 2, [&buffer, job](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) buffer[i] = job;
    });
  }
  for (int job = 0; job < kJobs; ++job) {
    for (size_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(buffers[job][i], job) << "job=" << job << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, SmallJobsCompleteWithoutFullPoolSync) {
  // A 1-chunk job must complete even if no worker ever claims a chunk (the
  // caller drains the range alone). Before chunk-claim completion this
  // still worked but paid a full-pool acknowledgement; now it must also be
  // correct when jobs alternate with ranges too small for most workers.
  ThreadPool pool(8);
  std::atomic<int64_t> total{0};
  for (int job = 0; job < 1000; ++job) {
    pool.ParallelFor(3, 1, [&](size_t begin, size_t end) {
      total.fetch_add(static_cast<int64_t>(end - begin),
                      std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 3000);
}

TEST(ThreadPoolTest, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(100, 1,
                       [](size_t begin, size_t) {
                         if (begin == 42) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool survives and runs the next job normally.
  std::atomic<int> count{0};
  pool.ParallelFor(10, 1, [&](size_t begin, size_t end) {
    count.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(count.load(), 10);
}

// A pool that spins between jobs: min(4, CPUs) threads, so that every
// thread has a CPU of its own. Returns 0 on a 1-CPU machine, where pools
// park at once and these tests have nothing to cover.
int SpinningPoolThreads() {
  const int cpus = ThreadPool::DefaultThreads();
  return cpus < 2 ? 0 : std::min(cpus, 4);
}

TEST(ThreadPoolTest, SpinParkBackToBackJobsWithLateWorkers) {
  // Jobs of 1-3 one-item chunks, back to back: the driving thread often
  // drains a job before a spinning worker reaches the mutex, so workers
  // arrive late at a completed job or at the next one. Each job writes only
  // its own buffer; a worker running a stale body would stamp the wrong one.
  const int threads = SpinningPoolThreads();
  if (threads == 0) GTEST_SKIP() << "needs at least 2 CPUs";
  ThreadPool pool(threads);
  constexpr int kJobs = 2000;
  std::vector<std::vector<int>> buffers(kJobs);
  for (int job = 0; job < kJobs; ++job) {
    auto& buffer = buffers[job];
    buffer.assign(static_cast<size_t>(1 + job % 3), -1);
    pool.ParallelFor(buffer.size(), 1,
                     [&buffer, job](size_t begin, size_t end) {
                       for (size_t i = begin; i < end; ++i) buffer[i] = job;
                     });
  }
  for (int job = 0; job < kJobs; ++job) {
    for (int value : buffers[job]) ASSERT_EQ(value, job) << "job=" << job;
  }
}

TEST(ThreadPoolTest, SpinParkWorkersParkAndWakeBetweenSpacedJobs) {
  // Each gap outlasts the spin window many times over, so every job after
  // the first starts with its workers parked on the condition variable.
  const int threads = SpinningPoolThreads();
  if (threads == 0) GTEST_SKIP() << "needs at least 2 CPUs";
  ThreadPool pool(threads);
  for (int job = 0; job < 20; ++job) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::vector<int> hits(64, 0);
    pool.ParallelFor(hits.size(), 1, [&hits](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) ++hits[i];
    });
    for (int count : hits) ASSERT_EQ(count, 1) << "job=" << job;
  }
}

TEST(ThreadPoolTest, SpinParkShutdownWhileWorkersSpin) {
  // Construct, run one job, destroy: the destructor runs while the workers
  // still poll for the next job, so shutdown must end the spin too.
  const int threads = SpinningPoolThreads();
  if (threads == 0) GTEST_SKIP() << "needs at least 2 CPUs";
  for (int round = 0; round < 200; ++round) {
    std::vector<int> out;
    {
      ThreadPool pool(threads);
      pool.ParallelMap(16, 1, &out,
                       [round](size_t i) { return round + static_cast<int>(i); });
    }
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], round + static_cast<int>(i)) << "round=" << round;
    }
  }
}

TEST(ThreadPoolTest, SpinParkThrowingJobThenNormalJob) {
  const int threads = SpinningPoolThreads();
  if (threads == 0) GTEST_SKIP() << "needs at least 2 CPUs";
  ThreadPool pool(threads);
  EXPECT_THROW(pool.ParallelFor(64, 1,
                                [](size_t begin, size_t) {
                                  if (begin == 7) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  std::vector<int> hits(64, 0);
  pool.ParallelFor(hits.size(), 1, [&hits](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (int count : hits) EXPECT_EQ(count, 1);
}

}  // namespace
}  // namespace watter
