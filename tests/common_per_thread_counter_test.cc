// Unit tests of PerThreadCounter: both add flavours stay exact across
// concurrent threads, and slots freed by exiting threads are reused
// without losing what those threads counted.
#include "src/common/per_thread_counter.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace watter {
namespace {

TEST(PerThreadCounterTest, ConcurrentAddsAreExact) {
  PerThreadCounter exact;
  PerThreadCounter unshared;
  constexpr int kThreads = 4;
  constexpr int kAdds = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kAdds; ++i) {
        exact.Add(1);
        unshared.AddUnshared(2);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(exact.value(), int64_t{kThreads} * kAdds);
  EXPECT_EQ(unshared.value(), int64_t{2} * kThreads * kAdds);
}

TEST(PerThreadCounterTest, ExitedThreadsHandTheirSlotsOn) {
  // More short-lived threads than slots, one at a time: each leases the
  // slot the previous one returned and adds on top of its count.
  PerThreadCounter counter;
  counter.AddUnshared(5);  // This thread keeps its own slot throughout.
  constexpr int kThreads = 3 * PerThreadCounter::kSlots;
  for (int t = 0; t < kThreads; ++t) {
    std::thread([&counter] { counter.AddUnshared(1); }).join();
  }
  EXPECT_EQ(counter.value(), 5 + kThreads);
}

}  // namespace
}  // namespace watter
