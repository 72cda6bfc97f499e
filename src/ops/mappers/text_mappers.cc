#include "ops/mappers/text_mappers.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"
#include "common/swar.h"
#include "text/normalize.h"
#include "text/sentence.h"
#include "text/utf8.h"

namespace dj::ops {
namespace {

bool IsAsciiSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Rebuilds `input` without the words (maximal runs of bytes that are not
/// ASCII whitespace) for which `drop(word)` is true, each with the ' ' right
/// after it, if any, so double gaps don't appear. A word of at most
/// `max_kept_bytes` bytes is kept without asking `drop`. The bytes between
/// dropped words are copied in spans, and the input is returned as is when
/// nothing is dropped.
template <typename DropFn>
std::string RebuildDroppingWords(std::string_view input, size_t max_kept_bytes,
                                 DropFn&& drop) {
  std::string out;
  size_t kept_from = 0;
  size_t i = 0;
  while (i < input.size()) {
    size_t start = i + swar::FindWordLongerThan(input.data() + i,
                                                input.size() - i,
                                                max_kept_bytes);
    if (start == input.size()) break;
    i = start + 1;
    while (i < input.size() && !IsAsciiSpace(input[i])) ++i;
    if (!drop(input.substr(start, i - start))) continue;
    if (out.empty()) out.reserve(input.size());
    out.append(input, kept_from, start - kept_from);
    if (i < input.size() && input[i] == ' ') ++i;
    kept_from = i;
  }
  if (kept_from == 0) return std::string(input);
  out.append(input, kept_from);
  return out;
}

}  // namespace

// ------------------------------------------------------ FixUnicodeMapper --

const OpDeclaration& FixUnicodeMapper::Declaration() {
  static const OpDeclaration d =
      Declare(OpSchema("fix_unicode_mapper", OpKind::kMapper));
  return d;
}

FixUnicodeMapper::FixUnicodeMapper(const json::Value& config)
    : Mapper(Declaration(), config) {}

Result<std::string> FixUnicodeMapper::TransformText(
    std::string_view input) const {
  return text::FixUnicode(input);
}

// ------------------------------------------------------- LowerCaseMapper --

const OpDeclaration& LowerCaseMapper::Declaration() {
  static const OpDeclaration d =
      Declare(OpSchema("lower_case_mapper", OpKind::kMapper));
  return d;
}

LowerCaseMapper::LowerCaseMapper(const json::Value& config)
    : Mapper(Declaration(), config) {}

Result<std::string> LowerCaseMapper::TransformText(
    std::string_view input) const {
  return AsciiToLower(input);
}

// ------------------------------------- PunctuationNormalizationMapper --

const OpDeclaration& PunctuationNormalizationMapper::Declaration() {
  static const OpDeclaration d =
      Declare(OpSchema("punctuation_normalization_mapper", OpKind::kMapper));
  return d;
}

PunctuationNormalizationMapper::PunctuationNormalizationMapper(
    const json::Value& config)
    : Mapper(Declaration(), config) {}

Result<std::string> PunctuationNormalizationMapper::TransformText(
    std::string_view input) const {
  return text::NormalizePunctuation(input);
}

// ------------------------------------------------- RemoveLongWordsMapper --

const OpDeclaration& RemoveLongWordsMapper::Declaration() {
  static const OpDeclaration d =
      Declare(OpSchema("remove_long_words_mapper", OpKind::kMapper)
                  .Int("max_len", 50, 1, kParamInf,
                       "drop words longer than this many codepoints"));
  return d;
}

RemoveLongWordsMapper::RemoveLongWordsMapper(const json::Value& config)
    : Mapper(Declaration(), config), max_len_(Param<int64_t>("max_len")) {}

Result<std::string> RemoveLongWordsMapper::TransformText(
    std::string_view input) const {
  // A word has at least as many bytes as codepoints, so only words of more
  // than max_len bytes need counting.
  size_t limit = static_cast<size_t>(max_len_);
  return RebuildDroppingWords(input, limit, [limit](std::string_view word) {
    return text::CodepointCount(word) > limit;
  });
}

// ------------------------------------------- RemoveRepeatSentencesMapper --

const OpDeclaration& RemoveRepeatSentencesMapper::Declaration() {
  static const OpDeclaration d =
      Declare(OpSchema("remove_repeat_sentences_mapper", OpKind::kMapper)
                  .Int("min_repeat_sentence_length", 2, 0, kParamInf,
                       "sentences shorter than this never count as repeats"));
  return d;
}

RemoveRepeatSentencesMapper::RemoveRepeatSentencesMapper(
    const json::Value& config)
    : Mapper(Declaration(), config),
      min_repeat_sentence_length_(
          Param<int64_t>("min_repeat_sentence_length")) {}

Result<std::string> RemoveRepeatSentencesMapper::TransformText(
    std::string_view input) const {
  const std::vector<std::string> sentences = text::SplitSentences(input);
  if (sentences.size() <= 1) return std::string(input);
  std::unordered_set<std::string> seen;
  std::string out;
  out.reserve(input.size());
  bool removed_any = false;
  for (const std::string& sentence : sentences) {
    if (text::CodepointCount(sentence) >=
        static_cast<size_t>(min_repeat_sentence_length_)) {
      std::string key = AsciiToLower(StripAsciiWhitespace(sentence));
      if (!seen.insert(std::move(key)).second) {
        removed_any = true;
        continue;
      }
    }
    if (!out.empty()) out.push_back(' ');
    out += sentence;
  }
  // Rebuilding loses line structure; keep the input untouched when there
  // was nothing to remove.
  if (!removed_any) return std::string(input);
  return out;
}

// -------------------------------------------- RemoveSpecificCharsMapper --

const OpDeclaration& RemoveSpecificCharsMapper::Declaration() {
  static const OpDeclaration d =
      Declare(OpSchema("remove_specific_chars_mapper", OpKind::kMapper)
                  .StrNoDefault(
                      "chars_to_remove",
                      "characters to strip (default: bullet glyphs)"));
  return d;
}

RemoveSpecificCharsMapper::RemoveSpecificCharsMapper(const json::Value& config)
    : Mapper(Declaration(), config),
      chars_(this->config().GetString(
          "chars_to_remove",
          "\xE2\x97\x86\xE2\x97\x8F\xE2\x96\xA0\xE2\x96\xBA"
          "\xE2\x96\xBC\xE2\x96\xB2\xE2\x9D\x96\xE2\x99\xA1"
          "\xE2\x96\xA1\xE2\x98\x85\xE2\x98\x86")) {
  SetEffectiveParam("chars_to_remove", json::Value(chars_));
}

Result<std::string> RemoveSpecificCharsMapper::TransformText(
    std::string_view input) const {
  return text::RemoveChars(input, chars_);
}

// --------------------------- RemoveWordsWithIncorrectSubstringsMapper --

const OpDeclaration& RemoveWordsWithIncorrectSubstringsMapper::Declaration() {
  static const OpDeclaration d = Declare(
      OpSchema("remove_words_with_incorrect_substrings_mapper",
               OpKind::kMapper)
          .List("substrings",
                "drop words containing any of these substrings"));
  return d;
}

RemoveWordsWithIncorrectSubstringsMapper::
    RemoveWordsWithIncorrectSubstringsMapper(const json::Value& config)
    : Mapper(Declaration(), config) {
  const json::Value* list =
      config.is_object() ? config.as_object().Find("substrings") : nullptr;
  if (list != nullptr && list->is_array()) {
    for (const auto& v : list->as_array()) {
      if (v.is_string()) substrings_.push_back(v.as_string());
    }
  }
  if (substrings_.empty()) {
    substrings_ = {"http", "www", ".com", "href", "//"};
  }
  json::Array echo;
  for (const auto& s : substrings_) echo.emplace_back(s);
  SetEffectiveParam("substrings", json::Value(std::move(echo)));
}

Result<std::string> RemoveWordsWithIncorrectSubstringsMapper::TransformText(
    std::string_view input) const {
  // A word shorter than every substring contains none of them.
  size_t shortest = substrings_.front().size();
  for (const std::string& sub : substrings_) {
    shortest = std::min(shortest, sub.size());
  }
  size_t max_kept = shortest > 0 ? shortest - 1 : 0;
  return RebuildDroppingWords(input, max_kept, [this](std::string_view word) {
    for (const std::string& sub : substrings_) {
      if (word.find(sub) != std::string_view::npos) return true;
    }
    return false;
  });
}

// --------------------------------------------------- SentenceSplitMapper --

const OpDeclaration& SentenceSplitMapper::Declaration() {
  static const OpDeclaration d =
      Declare(OpSchema("sentence_split_mapper", OpKind::kMapper));
  return d;
}

SentenceSplitMapper::SentenceSplitMapper(const json::Value& config)
    : Mapper(Declaration(), config) {}

Result<std::string> SentenceSplitMapper::TransformText(
    std::string_view input) const {
  std::string out;
  out.reserve(input.size());
  for (const std::string& sentence : text::SplitSentences(input)) {
    out += sentence;
    out.push_back('\n');
  }
  if (!out.empty()) out.pop_back();
  return out;
}

// ------------------------------------- WhitespaceNormalizationMapper --

const OpDeclaration& WhitespaceNormalizationMapper::Declaration() {
  static const OpDeclaration d =
      Declare(OpSchema("whitespace_normalization_mapper", OpKind::kMapper));
  return d;
}

WhitespaceNormalizationMapper::WhitespaceNormalizationMapper(
    const json::Value& config)
    : Mapper(Declaration(), config) {}

Result<std::string> WhitespaceNormalizationMapper::TransformText(
    std::string_view input) const {
  return text::NormalizeWhitespace(input);
}

// -------------------------------------------------- ChineseConvertMapper --

const OpDeclaration& ChineseConvertMapper::Declaration() {
  static const OpDeclaration d =
      Declare(OpSchema("chinese_convert_mapper", OpKind::kMapper));
  return d;
}

ChineseConvertMapper::ChineseConvertMapper(const json::Value& config)
    : Mapper(Declaration(), config) {}

Result<std::string> ChineseConvertMapper::TransformText(
    std::string_view input) const {
  // Compact traditional -> simplified table covering frequent characters.
  static const std::unordered_map<uint32_t, uint32_t>& kMap = *[] {
    auto* m = new std::unordered_map<uint32_t, uint32_t>{
        {0x570B, 0x56FD},  // 國 -> 国
        {0x9AD4, 0x4F53},  // 體 -> 体
        {0x5B78, 0x5B66},  // 學 -> 学
        {0x6703, 0x4F1A},  // 會 -> 会
        {0x9F8D, 0x9F99},  // 龍 -> 龙
        {0x9EBC, 0x4E48},  // 麼 -> 么
        {0x7063, 0x6E7E},  // 灣 -> 湾
        {0x8A9E, 0x8BED},  // 語 -> 语
        {0x66F8, 0x4E66},  // 書 -> 书
        {0x9580, 0x95E8},  // 門 -> 门
        {0x99AC, 0x9A6C},  // 馬 -> 马
        {0x98A8, 0x98CE},  // 風 -> 风
        {0x96FB, 0x7535},  // 電 -> 电
        {0x8ECA, 0x8F66},  // 車 -> 车
        {0x9577, 0x957F},  // 長 -> 长
        {0x6642, 0x65F6},  // 時 -> 时
        {0x5F9E, 0x4ECE},  // 從 -> 从
        {0x7576, 0x5F53},  // 當 -> 当
        {0x767C, 0x53D1},  // 發 -> 发
        {0x9EDE, 0x70B9},  // 點 -> 点
    };
    return m;
  }();
  std::string out;
  out.reserve(input.size());
  size_t pos = 0;
  while (pos < input.size()) {
    size_t start = pos;
    uint32_t cp;
    text::DecodeUtf8(input, &pos, &cp);
    auto it = kMap.find(cp);
    if (it != kMap.end()) {
      text::EncodeUtf8(it->second, &out);
    } else {
      out.append(input.substr(start, pos - start));
    }
  }
  return out;
}

}  // namespace dj::ops
