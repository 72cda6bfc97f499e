#ifndef DJ_OPS_MAPPERS_TEXT_MAPPERS_H_
#define DJ_OPS_MAPPERS_TEXT_MAPPERS_H_

#include <string>
#include <vector>

#include "ops/op_base.h"

namespace dj::ops {

/// fix_unicode_mapper: repairs mojibake and strips control / zero-width /
/// replacement characters (paper OP example: "fix messy codes").
class FixUnicodeMapper : public Mapper {
 public:
  static const OpDeclaration& Declaration();
  explicit FixUnicodeMapper(const json::Value& config);
  Result<std::string> TransformText(std::string_view input) const override;
};

/// lower_case_mapper: ASCII lower-casing.
class LowerCaseMapper : public Mapper {
 public:
  static const OpDeclaration& Declaration();
  explicit LowerCaseMapper(const json::Value& config);
  Result<std::string> TransformText(std::string_view input) const override;
};

/// punctuation_normalization_mapper: unicode punctuation -> ASCII.
class PunctuationNormalizationMapper : public Mapper {
 public:
  static const OpDeclaration& Declaration();
  explicit PunctuationNormalizationMapper(const json::Value& config);
  Result<std::string> TransformText(std::string_view input) const override;
};

/// remove_long_words_mapper: drops words longer than max_len codepoints
/// (default 50) — typically base64 blobs and URLs-in-disguise.
class RemoveLongWordsMapper : public Mapper {
 public:
  static const OpDeclaration& Declaration();
  explicit RemoveLongWordsMapper(const json::Value& config);
  Result<std::string> TransformText(std::string_view input) const override;

 private:
  int64_t max_len_;
};

/// remove_repeat_sentences_mapper: removes repeated sentences, keeping the
/// first occurrence (within one sample).
class RemoveRepeatSentencesMapper : public Mapper {
 public:
  static const OpDeclaration& Declaration();
  explicit RemoveRepeatSentencesMapper(const json::Value& config);
  Result<std::string> TransformText(std::string_view input) const override;

 private:
  int64_t min_repeat_sentence_length_;
};

/// remove_specific_chars_mapper: removes the characters listed in
/// `chars_to_remove` (default "◆●■►▼▲▴∆▻▷❖♡□"-style bullets).
class RemoveSpecificCharsMapper : public Mapper {
 public:
  static const OpDeclaration& Declaration();
  explicit RemoveSpecificCharsMapper(const json::Value& config);
  Result<std::string> TransformText(std::string_view input) const override;

 private:
  std::string chars_;
};

/// remove_words_with_incorrect_substrings_mapper: drops words containing any
/// configured substring (`substrings`, default http/www/.com artifacts).
class RemoveWordsWithIncorrectSubstringsMapper : public Mapper {
 public:
  static const OpDeclaration& Declaration();
  explicit RemoveWordsWithIncorrectSubstringsMapper(const json::Value& config);
  Result<std::string> TransformText(std::string_view input) const override;

 private:
  std::vector<std::string> substrings_;
};

/// sentence_split_mapper: re-segments text to one sentence per line.
class SentenceSplitMapper : public Mapper {
 public:
  static const OpDeclaration& Declaration();
  explicit SentenceSplitMapper(const json::Value& config);
  Result<std::string> TransformText(std::string_view input) const override;
};

/// whitespace_normalization_mapper: collapses whitespace runs.
class WhitespaceNormalizationMapper : public Mapper {
 public:
  static const OpDeclaration& Declaration();
  explicit WhitespaceNormalizationMapper(const json::Value& config);
  Result<std::string> TransformText(std::string_view input) const override;
};

/// chinese_convert_mapper: traditional -> simplified Chinese for a table of
/// common characters (a compact stand-in for OpenCC).
class ChineseConvertMapper : public Mapper {
 public:
  static const OpDeclaration& Declaration();
  explicit ChineseConvertMapper(const json::Value& config);
  Result<std::string> TransformText(std::string_view input) const override;
};

}  // namespace dj::ops

#endif  // DJ_OPS_MAPPERS_TEXT_MAPPERS_H_
