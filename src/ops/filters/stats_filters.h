#ifndef DJ_OPS_FILTERS_STATS_FILTERS_H_
#define DJ_OPS_FILTERS_STATS_FILTERS_H_

#include <string>
#include <vector>

#include "ops/op_base.h"
#include "ops/stats_keys.h"

namespace dj::ops {

/// Base for filters whose stat is a single number with [min, max] bounds.
/// Subclasses implement ComputeValue and declare the stat they produce plus
/// the `min` / `max` keep-window (OpSchema::KeepRange).
class RangeStatFilter : public Filter {
 public:
  Status ComputeStats(data::RowRef row, SampleContext* ctx) const override;
  Result<bool> KeepRow(data::RowRef row) const override;

 protected:
  /// The stat is the one `declaration` produces.
  RangeStatFilter(const OpDeclaration& declaration, const json::Value& config);

  virtual double ComputeValue(std::string_view text,
                              SampleContext* ctx) const = 0;

  double min_value() const { return min_; }
  double max_value() const { return max_; }

 private:
  std::string stat_key_;
  double min_;
  double max_;
};

/// alphanumeric_filter: ratio of alphanumeric codepoints to all codepoints.
class AlphanumericFilter : public RangeStatFilter {
 public:
  static const OpDeclaration& Declaration();
  explicit AlphanumericFilter(const json::Value& config);
  double ComputeValue(std::string_view text, SampleContext*) const override;
};

/// average_line_length_filter: mean line length in codepoints.
class AverageLineLengthFilter : public RangeStatFilter {
 public:
  static const OpDeclaration& Declaration();
  explicit AverageLineLengthFilter(const json::Value& config);
  double ComputeValue(std::string_view text, SampleContext* ctx) const override;
};

/// character_repetition_filter: duplicated char-n-gram ratio (default n=10).
class CharacterRepetitionFilter : public RangeStatFilter {
 public:
  static const OpDeclaration& Declaration();
  explicit CharacterRepetitionFilter(const json::Value& config);
  double ComputeValue(std::string_view text, SampleContext*) const override;

 private:
  int64_t rep_len_;
};

/// maximum_line_length_filter: longest line in codepoints.
class MaximumLineLengthFilter : public RangeStatFilter {
 public:
  static const OpDeclaration& Declaration();
  explicit MaximumLineLengthFilter(const json::Value& config);
  double ComputeValue(std::string_view text, SampleContext* ctx) const override;
};

/// special_characters_filter: ratio of non-alnum, non-whitespace,
/// non-CJK codepoints.
class SpecialCharactersFilter : public RangeStatFilter {
 public:
  static const OpDeclaration& Declaration();
  explicit SpecialCharactersFilter(const json::Value& config);
  double ComputeValue(std::string_view text, SampleContext*) const override;
};

/// text_length_filter: length in codepoints.
class TextLengthFilter : public RangeStatFilter {
 public:
  static const OpDeclaration& Declaration();
  explicit TextLengthFilter(const json::Value& config);
  double ComputeValue(std::string_view text, SampleContext*) const override;
};

/// token_num_filter: approximate LLM token count.
class TokenNumFilter : public RangeStatFilter {
 public:
  static const OpDeclaration& Declaration();
  explicit TokenNumFilter(const json::Value& config);
  double ComputeValue(std::string_view text, SampleContext*) const override;
};

/// word_num_filter: number of word tokens.
class WordNumFilter : public RangeStatFilter {
 public:
  static const OpDeclaration& Declaration();
  explicit WordNumFilter(const json::Value& config);
  double ComputeValue(std::string_view text, SampleContext* ctx) const override;
};

/// word_repetition_filter: duplicated word-n-gram ratio (default n=5).
class WordRepetitionFilter : public RangeStatFilter {
 public:
  static const OpDeclaration& Declaration();
  explicit WordRepetitionFilter(const json::Value& config);
  double ComputeValue(std::string_view text, SampleContext* ctx) const override;

 private:
  int64_t rep_len_;
};

/// paragraph_num_filter: number of paragraphs.
class ParagraphNumFilter : public RangeStatFilter {
 public:
  static const OpDeclaration& Declaration();
  explicit ParagraphNumFilter(const json::Value& config);
  double ComputeValue(std::string_view text, SampleContext* ctx) const override;
};

/// sentence_num_filter: number of sentences.
class SentenceNumFilter : public RangeStatFilter {
 public:
  static const OpDeclaration& Declaration();
  explicit SentenceNumFilter(const json::Value& config);
  double ComputeValue(std::string_view text, SampleContext* ctx) const override;
};

}  // namespace dj::ops

#endif  // DJ_OPS_FILTERS_STATS_FILTERS_H_
