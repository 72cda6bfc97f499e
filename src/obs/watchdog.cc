#include "obs/watchdog.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/resource_monitor.h"
#include "common/string_util.h"
#include "common/thread_introspect.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace dj::obs {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace

Status Watchdog::ParseSpec(std::string_view spec, Options* out,
                           bool* enabled) {
  *enabled = true;
  std::string text(spec);
  if (text.empty() || text == "off") {
    *enabled = false;
    return Status::Ok();
  }
  auto parse_positive = [](const std::string& value, double* dst) {
    char* end = nullptr;
    double v = std::strtod(value.c_str(), &end);
    if (end == nullptr || *end != '\0' || !(v > 0)) return false;
    *dst = v;
    return true;
  };
  // Bare number: just the stall threshold in seconds.
  if (text.find('=') == std::string::npos) {
    if (!parse_positive(text, &out->stall_seconds)) {
      return Status::InvalidArgument("DJ_WATCHDOG: bad threshold '" + text +
                                     "' (want seconds > 0, or 'off')");
    }
    return Status::Ok();
  }
  for (const std::string& entry : Split(text, ';')) {
    if (entry.empty()) continue;
    size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("DJ_WATCHDOG: entry '" +
                                     std::string(entry) + "' has no '='");
    }
    std::string key(entry.substr(0, eq));
    std::string value(entry.substr(eq + 1));
    if (key != "stall") {
      return Status::InvalidArgument("DJ_WATCHDOG: unknown key '" + key +
                                     "' (want stall)");
    }
    if (!parse_positive(value, &out->stall_seconds)) {
      return Status::InvalidArgument("DJ_WATCHDOG: bad value '" + value +
                                     "' for '" + key + "'");
    }
  }
  return Status::Ok();
}

Watchdog::Watchdog() : Watchdog(Options()) {}

Watchdog::Watchdog(Options options) : options_(options) {
  if (options_.stall_seconds <= 0) options_.stall_seconds = 30.0;
}

Watchdog::~Watchdog() { Stop(); }

void Watchdog::Start() {
  if (running_.exchange(true)) return;
  introspect::AddUser();
  poller_ = std::thread([this] { PollLoop(); });
}

void Watchdog::Stop() {
  if (!running_.exchange(false)) return;
  if (poller_.joinable()) poller_.join();
  introspect::RemoveUser();
}

std::string Watchdog::LastDump() const {
  MutexLock lock(&mutex_);
  return last_dump_;
}

void Watchdog::PollLoop() {
  introspect::CurrentThreadState()->SetRole("watchdog.poller");
  const double poll_seconds =
      std::clamp(options_.stall_seconds / 4, 0.002, 1.0);
  while (running_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::duration<double>(poll_seconds));
    if (SpanRecorder* r = GlobalRecorder(); r != nullptr) {
      r->EmitInstant("watchdog:beat", "watchdog", r->NowMicros());
    }
    PollOnce(introspect::NowMicros());
  }
}

void Watchdog::PollOnce(uint64_t now_micros) {
  const uint64_t stall_micros =
      static_cast<uint64_t>(options_.stall_seconds * 1e6);
  std::vector<introspect::ThreadState*> states =
      introspect::ThreadRegistry::Global().Snapshot();

  // Pass 1: find newly stalled threads; clear the reported marker of any
  // thread that has beaten since its last report (ends the episode).
  std::vector<introspect::ThreadState*> stalled;
  {
    MutexLock lock(&mutex_);
    for (introspect::ThreadState* s : states) {
      uint64_t beat = s->heartbeat_micros();
      bool stale = s->alive() && s->busy() && beat != 0 &&
                   now_micros > beat && now_micros - beat > stall_micros;
      auto it = reported_.find(s->thread_index());
      if (!stale) {
        if (it != reported_.end()) reported_.erase(it);
        continue;
      }
      if (it != reported_.end() && it->second == s->beats()) {
        continue;  // same episode, already dumped
      }
      reported_[s->thread_index()] = s->beats();
      stalled.push_back(s);
    }
  }
  if (stalled.empty()) return;

  // Pass 2: build the live-state dump over ALL threads — the stalled one
  // names the victim, but diagnosing a deadlock needs the whole picture
  // (who holds what, who is idle).
  std::string dump;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "=== WATCHDOG: %zu stalled thread(s), threshold %.3fs, "
                "rss %.1f MiB ===\n",
                stalled.size(), options_.stall_seconds,
                static_cast<double>(ResourceMonitor::CurrentRssBytes()) /
                    kMiB);
  dump += buf;
  std::vector<std::string> stack;
  std::vector<const char*> held;
  for (introspect::ThreadState* s : states) {
    if (!s->alive()) continue;
    const uint64_t beat = s->heartbeat_micros();
    char beat_text[48] = "never beat";
    if (beat != 0) {
      // A thread may beat after `now_micros` was read.
      const uint64_t age = now_micros > beat ? now_micros - beat : 0;
      std::snprintf(beat_text, sizeof(beat_text), "beat %.3fs ago",
                    static_cast<double>(age) / 1e6);
    }
    bool is_stalled = false;
    for (introspect::ThreadState* v : stalled) is_stalled |= (v == s);
    std::snprintf(buf, sizeof(buf), "%s thread %llu role=%s %s %s\n",
                  is_stalled ? "  [STALLED]" : "  [ok]     ",
                  static_cast<unsigned long long>(s->thread_index()),
                  (s->role() != nullptr && *s->role() != '\0') ? s->role()
                                                               : "-",
                  s->busy() ? "busy" : "idle", beat_text);
    dump += buf;
    if (s->ReadStack(&stack) && !stack.empty()) {
      dump += "      spans: ";
      for (size_t i = 0; i < stack.size(); ++i) {
        if (i > 0) dump += " > ";
        dump += stack[i];
      }
      dump += '\n';
    }
    if (s->ReadHeldLocks(&held) && !held.empty()) {
      dump += "      held locks: ";
      for (size_t i = 0; i < held.size(); ++i) {
        if (i > 0) dump += ", ";
        dump += held[i];
      }
      dump += '\n';
    }
  }

  // srclint-allow(raw-output): stall dumps must bypass the (possibly stalled) logger
  std::fputs(dump.c_str(), stderr);
  std::fflush(stderr);
  stall_count_.fetch_add(stalled.size(), std::memory_order_relaxed);
  {
    MutexLock lock(&mutex_);
    last_dump_ = std::move(dump);
  }
  if (MetricsRegistry* m = GlobalMetrics(); m != nullptr) {
    m->GetCounter("watchdog.stalls")->Add(stalled.size());
  }
  if (SpanRecorder* r = GlobalRecorder(); r != nullptr) {
    r->EmitInstant("watchdog:stall", "watchdog", r->NowMicros());
  }
}

}  // namespace dj::obs
