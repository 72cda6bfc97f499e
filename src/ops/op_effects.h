#ifndef DJ_OPS_OP_EFFECTS_H_
#define DJ_OPS_OP_EFFECTS_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace dj::ops {

class Op;

/// Effect signature of one OP, fully resolved against a concrete instance's
/// effective configuration: every field is a dataset dot-path ("text",
/// "meta.suffix", "stats.num_words").
struct ResolvedEffects {
  std::vector<std::string> reads;
  std::vector<std::string> writes;
  /// Bare stats keys produced (also present in reads/writes as "stats.<k>").
  std::vector<std::string> stats;
};

/// Declared effect signature of an OP (half of its OpDeclaration): which
/// dataset fields it reads and writes and which stats keys it produces.
/// Whether it drops rows follows from the OP's kind. The linter's dataflow
/// pass reasons about a recipe from these without touching data.
///
/// Field entries starting with '@' are placeholders naming a string config
/// param ("@text_key", "@field"); Resolve() substitutes the instance's
/// effective value. A produced stat key K implies both a write and a
/// (self-)read of "stats.K" — the keep decision consumes it.
///
///   OpEffects().Reads("@text_key").ProducesStat("num_words")
class OpEffects {
 public:
  const std::vector<std::string>& reads() const { return reads_; }
  const std::vector<std::string>& writes() const { return writes_; }
  const std::vector<std::string>& stats_produced() const { return stats_; }

  /// Fluent declaration helpers (return *this for chaining).
  OpEffects& Reads(std::string field);
  OpEffects& Writes(std::string field);
  OpEffects& ProducesStat(std::string_view key);

  /// Substitutes '@param' placeholders with `op`'s effective config values.
  /// Fails when a placeholder names a param the config does not carry as a
  /// non-empty string.
  Result<ResolvedEffects> Resolve(const Op& op) const;

 private:
  std::vector<std::string> reads_;
  std::vector<std::string> writes_;
  std::vector<std::string> stats_;
};

}  // namespace dj::ops

#endif  // DJ_OPS_OP_EFFECTS_H_
