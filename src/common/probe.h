#ifndef DJ_COMMON_PROBE_H_
#define DJ_COMMON_PROBE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/status.h"

// srclint-allow-file(raw-mutex): the concurrency toolkit runs underneath
// dj::Mutex (which instruments through it); wrapping would recurse.

namespace dj::probe {

/// Seeded probes, in the fail-point tradition of TiKV/etcd and
/// FoundationDB-style deterministic simulation. Production code marks the
/// places where it can die and the places where thread interleaving
/// matters; tests and operators arm them from a spec. One Registry class
/// backs both kinds of probe, as two process-wide instances:
///
///   Faults()  fail points, `DJ_FAULT("io.write.short")`, armed from
///             DJ_FAULTS or `dj_process --faults`. Each point is armed by
///             name with its own trigger mode; a triggered probe returns
///             true and the site fails.
///   Sched()   sched points, `DJ_SCHED_POINT("threadpool.dispatch")` at lock
///             boundaries, task dispatch and ordered-gather joins, armed
///             from DJ_SCHED or `dj_process --sched`. One registry-wide
///             probability, sleep bound and name filter; a triggered probe
///             yields the CPU or sleeps a few microseconds, shaking the
///             schedule into interleavings a quiet machine never produces,
///             which is what ThreadSanitizer needs to see a racy pair
///             overlap.
///
/// With nothing armed a probe costs one relaxed atomic load. Each instance
/// reads its environment variable at its first probe, so every binary
/// honors it.
///
/// Determinism: every point draws from its own RNG seeded from (registry
/// seed, point name), and draws are serialized per point, so the decision
/// sequence of a point (hit #1 fails, hit #3 sleeps 40us, ...) is a pure
/// function of the seed, independent of thread interleaving. Which thread
/// observes a decision may vary; the sequence never does.

/// Per-point observed decisions (for tests and determinism checks).
struct PointStats {
  uint64_t hits = 0;
  uint64_t triggers = 0;  ///< hits that failed (fail) or perturbed (sched)
  uint64_t yields = 0;    ///< sched triggers that yielded...
  uint64_t sleeps = 0;    ///< ...or slept, `slept_micros` in total
  uint64_t slept_micros = 0;

  bool operator==(const PointStats&) const = default;
};

class Registry {
 public:
  /// Which decision a hit makes: kFail points follow their own Mode; kSched
  /// points follow the registry-wide p/max_us/only, then yield or sleep.
  enum class Kind { kFail, kSched };

  Registry(Kind kind, const char* env_var, uint64_t default_seed)
      : kind_(kind),
        env_var_(env_var),
        default_seed_(default_seed),
        seed_(default_seed) {}
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Applies a spec of semicolon- or comma-separated `key=value` entries.
  /// Both kinds take `seed=U`, which reseeds the registry and restarts
  /// every point's stream and counts. Fail points take `name=mode`:
  ///   `pF`     trigger each hit with probability F in [0,1]  (p0.25)
  ///   `nK`     trigger exactly on the K-th hit, once          (n3)
  ///   `always` trigger every hit (also spelled `1`)
  ///   `off`    arm the point but never trigger (hits still count)
  /// e.g. DJ_FAULTS="seed=7;ckpt.after_blob=n1;io.read.corrupt=p0.1".
  /// Sched points take
  ///   `p=F`       perturb each hit with probability F in [0,1]; p=0 disarms
  ///   `max_us=N`  sleep perturbations last 1..N microseconds (default 100)
  ///   `only=S`    only perturb points whose name contains substring S
  /// e.g. DJ_SCHED="seed=7;p=0.05;max_us=200".
  /// A spec applies all or nothing: one malformed entry rejects it and
  /// leaves the registry as it was.
  Status Configure(std::string_view spec);

  /// Configure() from this instance's environment variable; unset or empty
  /// is a no-op Ok.
  Status ConfigureFromEnv();

  /// Disarms everything, zeroes counters, restores the default seed. The
  /// environment variable is not read again.
  void Reset();

  /// True when anything is armed: the inlined fast path of DJ_FAULT and
  /// DJ_SCHED_POINT. The first call reads the environment variable.
  bool armed() {
    int8_t state = state_.load(std::memory_order_relaxed);
    if (state < 0) return InitFromEnv();
    return state != 0;
  }

  /// The probe body: counts a hit on `name` and returns whether it
  /// triggered; a triggered sched point has already yielded or slept.
  /// Names that are not armed return false, as does a probe re-entered on
  /// this thread from this registry's own trigger callback (which may take
  /// a dj::Mutex, whose Lock() probes a sched point).
  bool Hit(std::string_view name);

  PointStats Stats(std::string_view name) const;
  /// Sum of Stats().triggers over every point.
  uint64_t TotalTriggers() const;
  /// Names the registry keeps stats for: armed fail points, sched points
  /// hit while armed.
  std::vector<std::string> ArmedPoints() const;
  const char* env_var() const { return env_var_; }

  /// Installed by the observability layer: invoked with the point name once
  /// per trigger, outside the registry lock. Pass nullptr to uninstall.
  void SetOnTrigger(std::function<void(std::string_view)> on_trigger);

 private:
  /// How an armed fail point decides to trigger.
  enum class Mode {
    kOff,          ///< armed but never triggers (still counts hits)
    kAlways,       ///< every hit triggers
    kProbability,  ///< each hit triggers with probability `probability`
    kNthHit,       ///< exactly the `nth` hit triggers (1-based), once
  };
  struct Point {
    Mode mode = Mode::kOff;    ///< fail points only
    double probability = 0.0;  ///< kProbability only
    uint64_t nth = 0;          ///< kNthHit only (1-based)
    Rng rng;
    PointStats stats;
  };
  struct Spec;  // a parsed Configure() spec, defined in probe.cc

  Result<Spec> Parse(std::string_view text) const;
  bool InitFromEnv();
  /// Restarts `point`'s stream and counts. Caller holds mutex_.
  void ReseedLocked(const std::string& name, Point* point);

  const Kind kind_;
  const char* const env_var_;
  const uint64_t default_seed_;
  // A plain std::mutex, not dj::Mutex: dj::Mutex::Lock() probes the sched
  // registry on every acquisition.
  mutable std::mutex mutex_;
  std::map<std::string, Point, std::less<>> points_;
  uint64_t seed_;
  double probability_ = 0.0;  // sched only, like the two below
  uint32_t max_sleep_micros_ = 100;
  std::string only_;
  std::function<void(std::string_view)> on_trigger_;
  /// -1 = environment variable not read yet, 0 = disarmed, 1 = armed.
  std::atomic<int8_t> state_{-1};
};

/// The process-wide instances: fail points from DJ_FAULTS, sched points
/// from DJ_SCHED.
Registry& Faults();
Registry& Sched();

/// RAII helper for tests: configures `registry` on construction and
/// Reset()s it on destruction, so armed probes never leak across tests.
class Scoped {
 public:
  Scoped(Registry& registry, std::string_view spec)
      : registry_(&registry), status_(registry.Configure(spec)) {}
  ~Scoped() { registry_->Reset(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  const Status& status() const { return status_; }

 private:
  Registry* registry_;
  Status status_;
};

/// Probes against the process-wide instances, with the nothing-armed fast
/// path inlined.
inline bool ShouldFail(std::string_view name) {
  Registry& registry = Faults();
  return registry.armed() && registry.Hit(name);
}

inline void MaybePerturb(std::string_view name) {
  Registry& registry = Sched();
  if (registry.armed()) registry.Hit(name);
}

}  // namespace dj::probe

/// Fail-point probe macro used at injection sites:
///   if (DJ_FAULT("ckpt.after_blob")) return Status::IoError(...);
#define DJ_FAULT(name) (::dj::probe::ShouldFail(name))

/// Schedule-perturbation probe macro used at interleaving-sensitive sites:
///   DJ_SCHED_POINT("io.gather.jsonl_parse");
#define DJ_SCHED_POINT(name) (::dj::probe::MaybePerturb(name))

#endif  // DJ_COMMON_PROBE_H_
