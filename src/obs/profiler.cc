#include "obs/profiler.h"

#include <chrono>
#include <string_view>
#include <utility>

#include "common/file_util.h"
#include "common/thread_introspect.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace dj::obs {

std::string Profiler::Report::CollapsedText() const {
  std::string out;
  for (const auto& [path, count] : collapsed) {
    out += path;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

std::map<std::string, double> Profiler::Report::OpCpuShares() const {
  std::map<std::string, double> shares;
  if (samples == 0) return shares;
  for (const auto& [path, count] : collapsed) {
    // The innermost "unit:" frame wins: a fused unit nested under
    // executor.run attributes to the unit, not the run.
    std::string op = "(other)";
    size_t pos = 0;
    while (pos != std::string::npos && pos < path.size()) {
      size_t frame_start = pos;
      size_t sep = path.find(';', pos);
      std::string_view frame =
          std::string_view(path).substr(frame_start, sep - frame_start);
      if (frame.rfind("unit:", 0) == 0) {
        op = std::string(frame.substr(5));
      }
      pos = sep == std::string::npos ? std::string::npos : sep + 1;
    }
    shares[op] += static_cast<double>(count);
  }
  for (auto& [op, share] : shares) share /= static_cast<double>(samples);
  return shares;
}

json::Value Profiler::Report::ToJson() const {
  json::Object out;
  out.Set("interval_seconds", json::Value(interval_seconds));
  out.Set("ticks", json::Value(ticks));
  out.Set("samples", json::Value(samples));
  json::Object op_cpu;
  for (const auto& [op, share] : OpCpuShares()) {
    op_cpu.Set(op, json::Value(share));
  }
  out.Set("op_cpu", json::Value(std::move(op_cpu)));
  return json::Value(std::move(out));
}

Profiler::Profiler() : Profiler(Options()) {}

Profiler::Profiler(Options options) : options_(options) {
  if (options_.interval_seconds <= 0) options_.interval_seconds = 0.002;
}

Profiler::~Profiler() { Stop(); }

void Profiler::Start() {
  if (running_.exchange(true)) return;
  introspect::AddUser();
  ticker_ = std::thread([this] { TickerLoop(); });
}

void Profiler::Stop() {
  if (!running_.exchange(false)) return;
  if (ticker_.joinable()) ticker_.join();
  introspect::RemoveUser();
}

Profiler::Report Profiler::Snapshot() const {
  Report report;
  report.interval_seconds = options_.interval_seconds;
  MutexLock lock(&mutex_);
  report.ticks = ticks_;
  report.samples = samples_;
  report.collapsed = collapsed_;
  return report;
}

Status Profiler::WriteCollapsed(const std::string& path) const {
  return WriteStringToFile(path, Snapshot().CollapsedText());
}

void Profiler::TickerLoop() {
  introspect::CurrentThreadState()->SetRole("profiler.ticker");
  std::vector<std::string> stack;
  while (running_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options_.interval_seconds));

    uint64_t tick_samples = 0;
    std::vector<std::pair<std::string, uint64_t>> tick_paths;
    for (introspect::ThreadState* state :
         introspect::ThreadRegistry::Global().Snapshot()) {
      if (!state->alive() || !state->busy()) continue;
      if (!state->ReadStack(&stack)) continue;  // stack wouldn't hold still
      std::string path;
      if (stack.empty()) {
        path = "(untagged)";
      } else {
        for (const std::string& frame : stack) {
          if (!path.empty()) path += ';';
          path += frame;
        }
      }
      tick_paths.emplace_back(std::move(path), 1);
      ++tick_samples;
    }

    {
      MutexLock lock(&mutex_);
      ++ticks_;
      samples_ += tick_samples;
      for (auto& [path, count] : tick_paths) collapsed_[path] += count;
    }

    if (MetricsRegistry* m = GlobalMetrics(); m != nullptr) {
      m->GetCounter("profiler.ticks")->Increment();
      if (tick_samples > 0) {
        m->GetCounter("profiler.samples")->Add(tick_samples);
      }
    }
    if (SpanRecorder* r = GlobalRecorder(); r != nullptr) {
      r->EmitInstant("profile:tick", "profile", r->NowMicros());
    }
  }
}

}  // namespace dj::obs
