#ifndef DJ_OPS_DEDUP_GRANULAR_DEDUP_H_
#define DJ_OPS_DEDUP_GRANULAR_DEDUP_H_

#include <string>
#include <vector>

#include "ops/op_base.h"

namespace dj::ops {

/// Common implementation of corpus-wide unit-level deduplication: text is
/// split into units (paragraphs or sentences); every unit seen before —
/// anywhere in the dataset — is removed from the sample, keeping only its
/// first occurrence. Samples left empty afterwards are dropped. This is the
/// line-level dedup that removes boilerplate repeated across web pages.
class GranularDeduplicatorBase : public Deduplicator {
 public:
  Result<data::Dataset> Deduplicate(
      data::Dataset dataset, ThreadPool* pool,
      std::vector<DuplicatePair>* pairs) const override;

 protected:
  GranularDeduplicatorBase(const OpDeclaration& declaration,
                           const json::Value& config);

  /// Declaration of a granular dedup: `schema` plus `min_unit_length`; it
  /// reads the text field and rewrites it with duplicate units removed, on
  /// top of its cross-row decisions.
  static OpDeclaration Declare(OpSchema schema);

  /// Splits text into units with their joiner preserved on rebuild.
  virtual std::vector<std::string> SplitUnits(std::string_view text) const = 0;
  virtual std::string_view Joiner() const = 0;

 private:
  int64_t min_unit_length_;
};

/// paragraph_exact_deduplicator: corpus-wide paragraph dedup.
class ParagraphExactDeduplicator : public GranularDeduplicatorBase {
 public:
  static const OpDeclaration& Declaration();
  explicit ParagraphExactDeduplicator(const json::Value& config);

 protected:
  std::vector<std::string> SplitUnits(std::string_view text) const override;
  std::string_view Joiner() const override { return "\n\n"; }
};

/// sentence_exact_deduplicator: corpus-wide sentence dedup.
class SentenceExactDeduplicator : public GranularDeduplicatorBase {
 public:
  static const OpDeclaration& Declaration();
  explicit SentenceExactDeduplicator(const json::Value& config);

 protected:
  std::vector<std::string> SplitUnits(std::string_view text) const override;
  std::string_view Joiner() const override { return " "; }
};

}  // namespace dj::ops

#endif  // DJ_OPS_DEDUP_GRANULAR_DEDUP_H_
