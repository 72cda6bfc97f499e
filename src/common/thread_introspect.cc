#include "common/thread_introspect.h"

#include <algorithm>
#include <chrono>

// srclint-allow-file(raw-mutex): the concurrency toolkit runs underneath
// dj::Mutex (which instruments through it); wrapping would recurse.

namespace dj::introspect {
namespace {

std::atomic<int> g_users{0};

std::chrono::steady_clock::time_point Epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

/// Thread-local slot + registration-on-first-use. The raw pointer stays
/// valid after thread exit (the registry owns the state); the TLS
/// destructor only flips the liveness bit.
struct LocalSlot {
  ThreadState* state = nullptr;
  ~LocalSlot() {
    if (state != nullptr) state->MarkDead();
  }
};
thread_local LocalSlot t_slot;

}  // namespace

ThreadState::ThreadState() : role_("") {
  for (auto& frame : frames_) {
    for (auto& c : frame) c.store('\0', std::memory_order_relaxed);
  }
  for (auto& l : held_locks_) l.store(nullptr, std::memory_order_relaxed);
}

void ThreadState::PushTag(std::string_view name) {
  uint32_t depth = tag_depth_.load(std::memory_order_relaxed);
  if (depth < kMaxFrames) {
    uint32_t seq = tag_seq_.load(std::memory_order_relaxed);
    tag_seq_.store(seq + 1, std::memory_order_release);  // odd: in flight
    auto& frame = frames_[depth];
    size_t n = std::min(name.size(), kFrameChars - 1);
    for (size_t i = 0; i < n; ++i) {
      frame[i].store(name[i], std::memory_order_relaxed);
    }
    frame[n].store('\0', std::memory_order_relaxed);
    tag_depth_.store(depth + 1, std::memory_order_relaxed);
    tag_seq_.store(seq + 2, std::memory_order_release);  // even: stable
  } else {
    // Overflow frames are counted (so pops stay balanced) but not stored.
    tag_depth_.store(depth + 1, std::memory_order_relaxed);
  }
}

void ThreadState::PopTag() {
  uint32_t depth = tag_depth_.load(std::memory_order_relaxed);
  if (depth == 0) return;
  if (depth <= kMaxFrames) {
    uint32_t seq = tag_seq_.load(std::memory_order_relaxed);
    tag_seq_.store(seq + 1, std::memory_order_release);
    tag_depth_.store(depth - 1, std::memory_order_relaxed);
    tag_seq_.store(seq + 2, std::memory_order_release);
  } else {
    tag_depth_.store(depth - 1, std::memory_order_relaxed);
  }
}

void ThreadState::PushHeldLock(const char* name) {
  uint32_t depth = lock_depth_.load(std::memory_order_relaxed);
  if (depth < kMaxHeldLocks) {
    uint32_t seq = lock_seq_.load(std::memory_order_relaxed);
    lock_seq_.store(seq + 1, std::memory_order_release);
    held_locks_[depth].store(name, std::memory_order_relaxed);
    lock_depth_.store(depth + 1, std::memory_order_relaxed);
    lock_seq_.store(seq + 2, std::memory_order_release);
  } else {
    lock_depth_.store(depth + 1, std::memory_order_relaxed);
  }
}

void ThreadState::PopHeldLock(const char* name) {
  uint32_t depth = lock_depth_.load(std::memory_order_relaxed);
  if (depth == 0) return;
  if (depth > kMaxHeldLocks) {
    lock_depth_.store(depth - 1, std::memory_order_relaxed);
    return;
  }
  // Pop the topmost frame holding this lock class. Enablement can flip
  // between a Lock() and its Unlock(), so an unmatched pop must be a
  // harmless no-op rather than an underflow.
  uint32_t match = depth;
  while (match > 0 &&
         held_locks_[match - 1].load(std::memory_order_relaxed) != name) {
    --match;
  }
  if (match == 0) return;
  uint32_t seq = lock_seq_.load(std::memory_order_relaxed);
  lock_seq_.store(seq + 1, std::memory_order_release);
  for (uint32_t i = match - 1; i + 1 < depth; ++i) {
    held_locks_[i].store(held_locks_[i + 1].load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  }
  lock_depth_.store(depth - 1, std::memory_order_relaxed);
  lock_seq_.store(seq + 2, std::memory_order_release);
}

void ThreadState::Beat() {
  heartbeat_micros_.store(NowMicros(), std::memory_order_relaxed);
  beats_.fetch_add(1, std::memory_order_relaxed);
}

void ThreadState::SetBusy(bool busy) {
  Beat();
  busy_.store(busy, std::memory_order_relaxed);
}

void ThreadState::SetRole(const char* role) {
  role_.store(role, std::memory_order_relaxed);
}

void ThreadState::MarkDead() {
  busy_.store(false, std::memory_order_relaxed);
  alive_.store(false, std::memory_order_relaxed);
}

bool ThreadState::ReadStack(std::vector<std::string>* out) const {
  for (int attempt = 0; attempt < 8; ++attempt) {
    out->clear();
    uint32_t seq_before = tag_seq_.load(std::memory_order_acquire);
    if (seq_before % 2 != 0) continue;  // mutation in flight
    uint32_t depth = tag_depth_.load(std::memory_order_relaxed);
    uint32_t stored = std::min<uint32_t>(depth, kMaxFrames);
    for (uint32_t f = 0; f < stored; ++f) {
      std::string frame;
      for (size_t i = 0; i < kFrameChars; ++i) {
        char c = frames_[f][i].load(std::memory_order_relaxed);
        if (c == '\0') break;
        frame.push_back(c);
      }
      out->push_back(std::move(frame));
    }
    if (depth > kMaxFrames) out->push_back("(truncated)");
    uint32_t seq_after = tag_seq_.load(std::memory_order_acquire);
    if (seq_after == seq_before) return true;
  }
  out->clear();
  return false;
}

bool ThreadState::ReadHeldLocks(std::vector<const char*>* out) const {
  for (int attempt = 0; attempt < 8; ++attempt) {
    out->clear();
    uint32_t seq_before = lock_seq_.load(std::memory_order_acquire);
    if (seq_before % 2 != 0) continue;
    uint32_t depth = lock_depth_.load(std::memory_order_relaxed);
    uint32_t stored = std::min<uint32_t>(depth, kMaxHeldLocks);
    for (uint32_t i = 0; i < stored; ++i) {
      const char* name = held_locks_[i].load(std::memory_order_relaxed);
      if (name != nullptr) out->push_back(name);
    }
    uint32_t seq_after = lock_seq_.load(std::memory_order_acquire);
    if (seq_after == seq_before) return true;
  }
  out->clear();
  return false;
}

ThreadRegistry& ThreadRegistry::Global() {
  static ThreadRegistry* registry = new ThreadRegistry();
  return *registry;
}

ThreadState* ThreadRegistry::Register() {
  std::lock_guard<std::mutex> lock(mutex_);
  states_.push_back(std::make_unique<ThreadState>());
  states_.back()->thread_index_ = states_.size() - 1;
  return states_.back().get();
}

std::vector<ThreadState*> ThreadRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ThreadState*> out;
  out.reserve(states_.size());
  for (const auto& state : states_) out.push_back(state.get());
  return out;
}

size_t ThreadRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return states_.size();
}

ThreadState* CurrentThreadState() {
  if (t_slot.state == nullptr) {
    t_slot.state = ThreadRegistry::Global().Register();
  }
  return t_slot.state;
}

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Epoch())
          .count());
}

bool Enabled() { return g_users.load(std::memory_order_relaxed) > 0; }

void AddUser() {
  // Fix the clock epoch and register the enabling thread before probes
  // start firing, so the first samples see a coherent world.
  Epoch();
  CurrentThreadState();
  g_users.fetch_add(1, std::memory_order_relaxed);
}

void RemoveUser() { g_users.fetch_sub(1, std::memory_order_relaxed); }

}  // namespace dj::introspect
