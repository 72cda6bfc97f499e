#ifndef DJ_SRCLINT_MANIFEST_H_
#define DJ_SRCLINT_MANIFEST_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace dj::srclint {

/// The instrumentation manifest: every stringly-named invariant the source
/// tree uses, by namespace. Entries ending in '*' are prefixes — the code
/// builds the rest of the name at runtime ("io." + op_name).
///
/// The committed copy lives at srclint/manifest.json; `dj_srclint` fails on
/// drift and `--update-manifest` regenerates it byte-identically from the
/// same tree (all sets sorted, fixed serialization).
struct Manifest {
  std::vector<std::string> fault_points;
  std::vector<std::string> sched_points;
  std::vector<std::string> lock_classes;
  std::vector<std::string> counters;
  std::vector<std::string> gauges;
  std::vector<std::string> histograms;
  std::vector<std::string> spans;
  std::vector<std::string> instants;
  std::vector<std::string> counter_series;
  /// Built-in OP names: the literal of every OpSchema("name", ...) in
  /// src/ops.
  std::vector<std::string> ops;

  /// Sorts every set and drops duplicates; ToText() requires it.
  void Normalize();

  /// Deterministic pretty-JSON serialization (trailing newline included).
  /// Byte-stable across runs and platforms for a Normalize()d manifest.
  std::string ToText() const;

  /// Parses a serialized manifest. Unknown keys are errors — they mean the
  /// committed file and the tool disagree about the schema.
  static Result<Manifest> FromText(std::string_view text);

  /// Human-readable per-entry differences (added/removed names), for drift
  /// messages. `this` is the tree's manifest, `committed` the checked-in
  /// one. Empty means identical content.
  std::vector<std::string> DiffAgainst(const Manifest& committed) const;
};

/// True when `name` is covered by `set`: an exact entry, or a prefix entry
/// ("io.*") whose head matches.
bool NameCovered(const std::vector<std::string>& set, std::string_view name);

}  // namespace dj::srclint

#endif  // DJ_SRCLINT_MANIFEST_H_
