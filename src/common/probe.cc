#include "common/probe.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "common/string_util.h"

// srclint-allow-file(raw-mutex): the concurrency toolkit runs underneath
// dj::Mutex (which instruments through it); wrapping would recurse.

namespace dj::probe {
namespace {

/// The registry whose probe is running on this thread. A trigger callback
/// (or the lazy environment read) may acquire a dj::Mutex, whose Lock()
/// probes a sched point again: a nested probe of the same registry must be
/// a no-op or the stack never unwinds. The other registry still probes.
thread_local const Registry* t_active = nullptr;

class ActiveScope {
 public:
  explicit ActiveScope(const Registry* registry) : previous_(t_active) {
    t_active = registry;
  }
  ~ActiveScope() { t_active = previous_; }

 private:
  const Registry* previous_;
};

// The spec grammar's number rules: strtoull/strtod must consume the whole
// value (so an empty value reads as 0).
bool ParseU64(const std::string& text, uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(text.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

bool ParseProbability(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end != nullptr && *end == '\0' && !(*out < 0.0 || *out > 1.0);
}

}  // namespace

struct Registry::Spec {
  std::optional<uint64_t> seed;
  std::vector<std::pair<std::string, Point>> fail_points;
  std::optional<double> probability;
  std::optional<uint32_t> max_sleep_micros;
  std::optional<std::string> only;
};

Registry& Faults() {
  static Registry* registry =
      new Registry(Registry::Kind::kFail, "DJ_FAULTS", 0xfa17fa17fa17ULL);
  return *registry;
}

Registry& Sched() {
  static Registry* registry =
      new Registry(Registry::Kind::kSched, "DJ_SCHED", 0x5c4ed5c4ed5cULL);
  return *registry;
}

Result<Registry::Spec> Registry::Parse(std::string_view text) const {
  const bool fail = kind_ == Kind::kFail;
  auto error = [fail](const std::string& message) {
    return Status::InvalidArgument((fail ? "fault: " : "sched: ") + message);
  };
  Spec spec;
  size_t begin = 0;
  while (begin <= text.size()) {
    size_t end = text.find_first_of(";,", begin);
    if (end == std::string_view::npos) end = text.size();
    std::string_view entry =
        StripAsciiWhitespace(text.substr(begin, end - begin));
    begin = end + 1;
    if (entry.empty()) continue;
    size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return error("bad entry '" + std::string(entry) + "' (expected " +
                   (fail ? "name=mode)" : "key=value)"));
    }
    std::string key(StripAsciiWhitespace(entry.substr(0, eq)));
    std::string value(StripAsciiWhitespace(entry.substr(eq + 1)));
    if (key == "seed") {
      if (!ParseU64(value, &spec.seed.emplace())) {
        return error("bad seed '" + value + "'");
      }
    } else if (fail) {
      Point& point = spec.fail_points.emplace_back(key, Point()).second;
      if (value == "off") {
        point.mode = Mode::kOff;
      } else if (value == "always" || value == "1") {
        point.mode = Mode::kAlways;
      } else if (value.size() > 1 && value[0] == 'p') {
        point.mode = Mode::kProbability;
        if (!ParseProbability(value.substr(1), &point.probability)) {
          return error("bad probability '" + value + "'");
        }
      } else if (value.size() > 1 && value[0] == 'n') {
        point.mode = Mode::kNthHit;
        if (!ParseU64(value.substr(1), &point.nth) || point.nth == 0) {
          return error("bad nth-hit '" + value + "' (need n>=1)");
        }
      } else {
        return error("unknown mode '" + value +
                     "' (expected pF, nK, always, or off)");
      }
    } else if (key == "p") {
      if (!ParseProbability(value, &spec.probability.emplace())) {
        return error("bad probability '" + value + "' (need 0 <= p <= 1)");
      }
    } else if (key == "max_us") {
      uint64_t us = 0;
      if (!ParseU64(value, &us) || us == 0) {
        return error("bad max_us '" + value + "' (need max_us >= 1)");
      }
      spec.max_sleep_micros = static_cast<uint32_t>(us);
    } else if (key == "only") {
      spec.only = value;
    } else {
      return error("unknown key '" + key +
                   "' (expected seed, p, max_us, or only)");
    }
  }
  return spec;
}

Status Registry::Configure(std::string_view text) {
  DJ_ASSIGN_OR_RETURN(Spec spec, Parse(text));
  std::lock_guard<std::mutex> lock(mutex_);
  // Arming a point restarts its stream under the current seed; a seed entry
  // then restarts every point under the new one. Either way the outcome is
  // the one applying the entries in order would give.
  for (auto& [name, armed] : spec.fail_points) {
    auto it = points_.insert_or_assign(std::move(name), armed).first;
    ReseedLocked(it->first, &it->second);
  }
  if (spec.seed.has_value()) {
    seed_ = *spec.seed;
    for (auto& [name, point] : points_) ReseedLocked(name, &point);
  }
  if (spec.probability.has_value()) probability_ = *spec.probability;
  if (spec.max_sleep_micros.has_value()) {
    max_sleep_micros_ = *spec.max_sleep_micros;
  }
  if (spec.only.has_value()) only_ = *spec.only;
  const bool armed =
      kind_ == Kind::kFail ? !points_.empty() : probability_ > 0.0;
  state_.store(armed ? 1 : 0, std::memory_order_relaxed);
  return Status::Ok();
}

Status Registry::ConfigureFromEnv() {
  const char* spec = std::getenv(env_var_);
  if (spec == nullptr || spec[0] == '\0') return Status::Ok();
  return Configure(spec);
}

bool Registry::InitFromEnv() {
  if (t_active == this) return false;
  ActiveScope scope(this);
  if (Status status = ConfigureFromEnv(); !status.ok()) {
    // srclint-allow(raw-output): config errors must reach the user even when logging is the thing misconfigured
    std::fprintf(stderr, "%s error: %s\n", env_var_,
                 status.ToString().c_str());
  }
  // An unset or malformed variable leaves the registry disarmed. Losing a
  // race to an explicit Configure() is fine: both end in a definite state.
  int8_t unread = -1;
  state_.compare_exchange_strong(unread, 0, std::memory_order_relaxed);
  return state_.load(std::memory_order_relaxed) > 0;
}

void Registry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  points_.clear();
  seed_ = default_seed_;
  probability_ = 0.0;
  max_sleep_micros_ = 100;
  only_.clear();
  state_.store(0, std::memory_order_relaxed);
}

void Registry::ReseedLocked(const std::string& name, Point* point) {
  point->rng = Rng(seed_ ^ Fnv1a64(name));
  point->stats = PointStats{};
}

bool Registry::Hit(std::string_view name) {
  if (t_active == this) return false;
  ActiveScope scope(this);
  uint32_t sleep_micros = 0;  // a triggered sched point yields when 0
  std::function<void(std::string_view)> on_trigger;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Point* point = nullptr;
    bool triggered = false;
    if (kind_ == Kind::kFail) {
      auto it = points_.find(name);
      if (it == points_.end()) return false;
      point = &it->second;
      ++point->stats.hits;
      switch (point->mode) {
        case Mode::kOff:
          break;
        case Mode::kAlways:
          triggered = true;
          break;
        case Mode::kProbability:
          triggered = point->rng.Bernoulli(point->probability);
          break;
        case Mode::kNthHit:
          triggered = point->stats.hits == point->nth;
          break;
      }
    } else {
      if (probability_ <= 0.0) return false;
      if (!only_.empty() && name.find(only_) == std::string_view::npos) {
        return false;
      }
      auto [it, inserted] = points_.try_emplace(std::string(name));
      point = &it->second;
      if (inserted) ReseedLocked(it->first, point);
      ++point->stats.hits;
      // Fixed draw order: perturb?, then sleep?, then a duration only when
      // sleeping, so the sequence stays a pure function of the seed.
      triggered = point->rng.Bernoulli(probability_);
      if (triggered && point->rng.Bernoulli(0.5)) {
        sleep_micros =
            static_cast<uint32_t>(1 + point->rng.NextBelow(max_sleep_micros_));
        ++point->stats.sleeps;
        point->stats.slept_micros += sleep_micros;
      } else if (triggered) {
        ++point->stats.yields;
      }
    }
    if (!triggered) return false;
    ++point->stats.triggers;
    on_trigger = on_trigger_;
  }
  // The perturbation and the callback run outside the registry lock, so
  // probes never serialize the threads they shake, and the observability
  // sinks take their own locks.
  if (kind_ == Kind::kSched) {
    if (sleep_micros > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_micros));
    } else {
      std::this_thread::yield();
    }
  }
  if (on_trigger) on_trigger(name);
  return true;
}

PointStats Registry::Stats(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = points_.find(name);
  return it == points_.end() ? PointStats{} : it->second.stats;
}

uint64_t Registry::TotalTriggers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (const auto& [name, point] : points_) total += point.stats.triggers;
  return total;
}

std::vector<std::string> Registry::ArmedPoints() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(points_.size());
  for (const auto& [name, point] : points_) out.push_back(name);
  return out;
}

void Registry::SetOnTrigger(
    std::function<void(std::string_view)> on_trigger) {
  std::lock_guard<std::mutex> lock(mutex_);
  on_trigger_ = std::move(on_trigger);
}

}  // namespace dj::probe
