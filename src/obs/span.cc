#include "obs/span.h"

#include <algorithm>

#include "common/file_util.h"
#include "json/writer.h"
#include "obs/metrics.h"

namespace dj::obs {
namespace {

std::atomic<uint64_t> g_next_recorder_id{1};
std::atomic<SpanRecorder*> g_global_recorder{nullptr};

/// Per-thread cache of buffers registered with live recorders. Keyed by
/// the recorder's process-unique id (not its address) so a recorder created
/// at a freed recorder's address cannot alias a stale cache entry. A thread
/// touches at most a handful of recorders over its lifetime, so a flat
/// vector lookup beats any map.
struct LocalCacheEntry {
  uint64_t recorder_id = 0;
  void* buffer = nullptr;
};
thread_local std::vector<LocalCacheEntry> t_buffer_cache;

}  // namespace

SpanRecorder* GlobalRecorder() {
  return g_global_recorder.load(std::memory_order_acquire);
}

void InstallGlobalRecorder(SpanRecorder* recorder) {
  g_global_recorder.store(recorder, std::memory_order_release);
  BridgeFailPoints();
}

SpanRecorder::SpanRecorder()
    : id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {}

SpanRecorder::~SpanRecorder() = default;

uint64_t SpanRecorder::NowMicros() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

SpanRecorder::ThreadBuffer* SpanRecorder::LocalBuffer() {
  for (const LocalCacheEntry& entry : t_buffer_cache) {
    if (entry.recorder_id == id_) {
      return static_cast<ThreadBuffer*>(entry.buffer);
    }
  }
  MutexLock lock(&mutex_);
  buffers_.push_back(std::make_unique<ThreadBuffer>());
  ThreadBuffer* buffer = buffers_.back().get();
  buffer->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
  t_buffer_cache.push_back({id_, buffer});
  return buffer;
}

void SpanRecorder::Append(Event event) {
  ThreadBuffer* buffer = LocalBuffer();
  MutexLock lock(&buffer->mu);
  buffer->events.push_back(std::move(event));
}

void SpanRecorder::EmitComplete(std::string_view name,
                                std::string_view category, uint64_t ts_micros,
                                uint64_t dur_micros) {
  Event e;
  e.ph = 'X';
  e.name = std::string(name);
  e.category = std::string(category);
  e.ts = ts_micros;
  e.dur = dur_micros;
  e.tid = LocalBuffer()->tid;
  Append(std::move(e));
}

void SpanRecorder::EmitCompleteOnLane(std::string_view name,
                                      std::string_view category,
                                      uint64_t ts_micros, uint64_t dur_micros,
                                      int64_t lane_tid) {
  Event e;
  e.ph = 'X';
  e.name = std::string(name);
  e.category = std::string(category);
  e.ts = ts_micros;
  e.dur = dur_micros;
  e.tid = lane_tid;
  Append(std::move(e));
}

void SpanRecorder::EmitCounter(std::string_view series, uint64_t ts_micros,
                               double value) {
  Event e;
  e.ph = 'C';
  e.name = std::string(series);
  e.category = "counter";
  e.ts = ts_micros;
  e.tid = 0;  // counters get their own track; lane is irrelevant
  e.value = value;
  Append(std::move(e));
}

void SpanRecorder::EmitInstant(std::string_view name,
                               std::string_view category,
                               uint64_t ts_micros) {
  Event e;
  e.ph = 'i';
  e.name = std::string(name);
  e.category = std::string(category);
  e.ts = ts_micros;
  e.tid = LocalBuffer()->tid;
  Append(std::move(e));
}

size_t SpanRecorder::EventCount() const {
  MutexLock lock(&mutex_);
  size_t total = 0;
  for (const auto& buffer : buffers_) {
    MutexLock buffer_lock(&buffer->mu);
    total += buffer->events.size();
  }
  return total;
}

json::Value SpanRecorder::ToJson() const {
  // Copy each buffer out under its own lock rather than holding every
  // buffer lock at once: the dump stays coherent per thread (appends are
  // monotone in ts), and the dynamic all-buffers lock set was both
  // unprovable for the static analysis and a nested same-class acquisition
  // pattern the lock-order registry would have to special-case.
  std::vector<Event> events;
  {
    MutexLock lock(&mutex_);
    for (const auto& buffer : buffers_) {
      MutexLock buffer_lock(&buffer->mu);
      events.insert(events.end(), buffer->events.begin(),
                    buffer->events.end());
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.ts < b.ts; });

  json::Array trace_events;
  trace_events.reserve(events.size());
  for (const Event& event : events) {
    const Event* e = &event;
    json::Object o;
    o.Set("name", json::Value(e->name));
    o.Set("cat", json::Value(e->category));
    o.Set("ph", json::Value(std::string(1, e->ph)));
    o.Set("ts", json::Value(static_cast<int64_t>(e->ts)));
    if (e->ph == 'X') {
      o.Set("dur", json::Value(static_cast<int64_t>(e->dur)));
    }
    o.Set("pid", json::Value(static_cast<int64_t>(1)));
    o.Set("tid", json::Value(e->tid));
    if (e->ph == 'C') {
      json::Object args;
      args.Set("value", json::Value(e->value));
      o.Set("args", json::Value(std::move(args)));
    } else if (e->ph == 'i') {
      o.Set("s", json::Value("t"));  // thread-scoped instant
    }
    trace_events.emplace_back(std::move(o));
  }
  json::Object out;
  out.Set("traceEvents", json::Value(std::move(trace_events)));
  out.Set("displayTimeUnit", json::Value("ms"));
  return json::Value(std::move(out));
}

Status SpanRecorder::WriteTo(const std::string& path) const {
  json::WriteOptions options;
  options.pretty = true;
  return WriteStringToFile(path, json::Write(ToJson(), options));
}

}  // namespace dj::obs
