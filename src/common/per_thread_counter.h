// PerThreadCounter: an int64 counter that concurrent threads add to without
// sharing a cache line.
//
// The pool's parallel pair tests count every PlanBest (RoutePlanner) and
// every oracle Cost() (TravelTimeOracle). With one shared counter each of
// those writes pulls the counter's cache line over from whichever CPU wrote
// it last, so the threads of a fan-out serialize on a line that only the
// run's reports read. Here every live thread leases one slot index for its
// lifetime (process-wide: the lowest free index, returned when the thread
// exits), each counter keeps one cache-line-padded slot per index, and a
// read sums the slots.
//
// Add() is an atomic read-modify-write on the caller's slot and is always
// exact. AddUnshared() is a relaxed load and store on that slot, as cheap as
// a plain increment; it is exact while no two live threads share a slot,
// i.e. while at most kSlots threads are alive that have counted. Threads
// beyond that share slots, and their AddUnshared() increments may be lost,
// so it is for diagnostic counters only.
//
// value() sums the slots with relaxed loads: exact once every adding thread
// has synchronized with the reader (a ThreadPool job's join, a thread join),
// a snapshot otherwise.
#ifndef WATTER_COMMON_PER_THREAD_COUNTER_H_
#define WATTER_COMMON_PER_THREAD_COUNTER_H_

#include <array>
#include <atomic>
#include <cstdint>

namespace watter {

namespace counter_internal {

// The calling thread's slot index, or -1 before its first count.
inline thread_local int t_slot = -1;

// Leases the calling thread its slot index and stores it in t_slot.
int LeaseSlot();

inline int ThreadSlot() {
  int slot = t_slot;
  return slot >= 0 ? slot : LeaseSlot();
}

}  // namespace counter_internal

/// Cache-line-striped int64 counter, one slot per live thread.
class PerThreadCounter {
 public:
  /// Slot indices, and so the most threads that count at once without
  /// sharing a slot.
  static constexpr int kSlots = 64;

  /// Adds `n` with an atomic read-modify-write: exact from any thread.
  void Add(int64_t n) {
    Slot().fetch_add(n, std::memory_order_relaxed);
  }

  /// Adds `n` with a plain load and store: exact unless two live threads
  /// share a slot (see the header comment).
  void AddUnshared(int64_t n) {
    std::atomic<int64_t>& slot = Slot();
    slot.store(slot.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  }

  /// The sum over all slots.
  int64_t value() const {
    int64_t sum = 0;
    for (const Line& line : lines_) {
      sum += line.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  struct alignas(64) Line {
    std::atomic<int64_t> value{0};
  };

  std::atomic<int64_t>& Slot() {
    return lines_[counter_internal::ThreadSlot()].value;
  }

  std::array<Line, kSlots> lines_;
};

}  // namespace watter

#endif  // WATTER_COMMON_PER_THREAD_COUNTER_H_
