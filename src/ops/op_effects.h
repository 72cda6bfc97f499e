#ifndef DJ_OPS_OP_EFFECTS_H_
#define DJ_OPS_OP_EFFECTS_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace dj::ops {

class Op;

/// How an OP changes the row set of the dataset it processes.
enum class Cardinality {
  kRowPreserving,  ///< every input row survives (mappers, formatters)
  kRowDropping,    ///< rows may be removed, each by a per-row predicate
  kRowMerging,     ///< cross-row decisions (deduplicators); never commutes
};

const char* CardinalityName(Cardinality cardinality);

/// Effect signature of one OP, fully resolved against a concrete instance's
/// effective configuration: every field is a dataset dot-path ("text",
/// "meta.suffix", "stats.num_words").
struct ResolvedEffects {
  std::string op_name;
  Cardinality cardinality = Cardinality::kRowPreserving;
  std::vector<std::string> reads;
  std::vector<std::string> writes;
  /// Bare stats keys produced (also present in reads/writes as "stats.<k>").
  std::vector<std::string> stats;

  /// "reads {text}, writes {stats.num_words}" — for diagnostics.
  std::string DescribeSets() const;
};

/// Declared effect signature of an OP (half of its OpDeclaration): which
/// dataset fields it reads and writes and which stats keys it produces. Its
/// row cardinality follows from the OP's kind. The linter's dataflow pass
/// and core::VerifyPlan reason about a plan from these without touching
/// data.
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

/// Whether two dataset dot-paths can refer to overlapping data: equal, or
/// one is a dot-segment prefix of the other ("text" aliases "text.output";
/// "stats.num_words" does not alias "stats.num_words_x").
bool FieldPathsAlias(std::string_view a, std::string_view b);

/// Why `a` (originally scheduled earlier) and `b` (originally later) may NOT
/// be swapped or co-scheduled: a read/write, write/read, or write/write
/// overlap on aliasing fields, or a row-merging participant. Returns "" when
/// the effects commute. Row-dropping alone does not block a swap: a dropped
/// row's subsequent fields are unobservable, so two OPs with disjoint
/// field sets commute even when both drop rows.
std::string DescribeConflict(const ResolvedEffects& a,
                             const ResolvedEffects& b);

}  // namespace dj::ops

#endif  // DJ_OPS_OP_EFFECTS_H_
