#include "src/common/per_thread_counter.h"

#include <bitset>
#include <mutex>

namespace watter {
namespace counter_internal {
namespace {

constexpr int kSlots = PerThreadCounter::kSlots;

std::mutex g_mu;
std::bitset<kSlots> g_leased;  // Guarded by g_mu.
int g_overflow = 0;            // Guarded by g_mu; spreads shared slots.

// Returns the thread's slot to the free set when the thread exits. The
// mutex orders the exiting thread's last counts before the next lessee's.
struct Lease {
  int slot = -1;  // Owned slot; -1 while none (or a shared one) is held.
  ~Lease() {
    if (slot < 0) return;
    std::lock_guard<std::mutex> lock(g_mu);
    g_leased.reset(static_cast<size_t>(slot));
  }
};

thread_local Lease t_lease;

}  // namespace

int LeaseSlot() {
  std::lock_guard<std::mutex> lock(g_mu);
  int slot = -1;
  for (int i = 0; i < kSlots; ++i) {
    if (!g_leased[static_cast<size_t>(i)]) {
      slot = i;
      break;
    }
  }
  if (slot >= 0) {
    g_leased.set(static_cast<size_t>(slot));
    t_lease.slot = slot;
  } else {
    slot = g_overflow++ % kSlots;  // Every slot is taken: share one.
  }
  t_slot = slot;
  return slot;
}

}  // namespace counter_internal
}  // namespace watter
