#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace dj::bench::alloc {
namespace {

// More slots than a pass ever has threads (main + io pool + executor pool);
// a thread that finds none counts into g_unslotted instead.
constexpr int kSlots = 128;

struct alignas(64) Slot {
  std::atomic<uint64_t> count{0};
  std::atomic<bool> taken{false};
};

std::atomic<bool> g_armed{false};
Slot g_slots[kSlots];
std::atomic<uint64_t> g_retired{0};
std::atomic<uint64_t> g_unslotted{0};

// Trivially destructible, so both stay readable while the thread's other
// thread_locals are destroyed (which may still allocate).
thread_local Slot* t_slot = nullptr;
thread_local bool t_exited = false;

// Folds the thread's count into g_retired and frees its slot at exit.
struct SlotRelease {
  bool registered = false;
  ~SlotRelease() {
    t_exited = true;
    Slot* slot = t_slot;
    if (slot == nullptr) return;
    t_slot = nullptr;
    g_retired.fetch_add(slot->count.exchange(0, std::memory_order_relaxed),
                        std::memory_order_relaxed);
    slot->taken.store(false, std::memory_order_release);
  }
};
thread_local SlotRelease t_release;

Slot* Claim() {
  for (Slot& slot : g_slots) {
    bool expected = false;
    if (slot.taken.compare_exchange_strong(expected, true,
                                           std::memory_order_acquire)) {
      t_slot = &slot;
      t_release.registered = true;  // first use registers the destructor
      return &slot;
    }
  }
  return nullptr;
}

void Note() {
  if (!g_armed.load(std::memory_order_relaxed)) return;
  Slot* slot = t_slot;
  if (slot == nullptr && !t_exited) slot = Claim();
  if (slot == nullptr) {
    g_unslotted.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Only the owning thread writes its slot; readers sum with relaxed loads.
  slot->count.store(slot->count.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
}

void* Allocate(std::size_t size) {
  Note();
  if (size == 0) size = 1;
  for (;;) {
    if (void* p = std::malloc(size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

void Arm() { g_armed.store(true, std::memory_order_relaxed); }

uint64_t Count() {
  uint64_t total = g_retired.load(std::memory_order_relaxed) +
                   g_unslotted.load(std::memory_order_relaxed);
  for (const Slot& slot : g_slots) {
    total += slot.count.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace dj::bench::alloc

void* operator new(std::size_t size) {
  return dj::bench::alloc::Allocate(size);
}
void* operator new[](std::size_t size) {
  return dj::bench::alloc::Allocate(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return dj::bench::alloc::Allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
