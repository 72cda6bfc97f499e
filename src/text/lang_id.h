#ifndef DJ_TEXT_LANG_ID_H_
#define DJ_TEXT_LANG_ID_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dj::text {

/// Result of language identification.
struct LangScore {
  std::string lang;    ///< ISO-ish code: "en", "zh", "de", "fr", "es".
  double confidence;   ///< Softmax probability across known languages.
};

/// Identify() and Score() of one text, from a single scoring pass.
struct LangVerdict {
  LangScore best;  ///< What Identify returns.
  double score;    ///< What Score returns for the requested language.
};

/// Character-trigram naive-Bayes language identifier with built-in profiles
/// (en/zh/de/fr/es) trained from embedded seed text, plus a CJK-ratio prior
/// that makes zh detection robust on short strings. Stands in for the
/// fasttext-based model of the language_id_score filter.
///
/// All profiles share one flat trigram table: a row per trigram any profile
/// has seen, holding every profile's log-prob (that profile's fallback where
/// it lacks the gram). Scoring probes once per trigram and adds the row into
/// all language accumulators in gram order, so each sum is the one a
/// per-profile lookup would produce, bit for bit.
class LanguageIdentifier {
 public:
  /// Shared instance with built-in profiles.
  static const LanguageIdentifier& Default();

  LanguageIdentifier();

  /// Adds or extends a language profile from sample text.
  void AddProfile(const std::string& lang, std::string_view seed_text);

  /// Best language and confidence for `s`. Empty input scores ("und", 0).
  LangScore Identify(std::string_view s) const;

  /// Confidence that `s` is in language `lang` (0 when unknown lang).
  double Score(std::string_view s, std::string_view lang) const;

  /// Identify(s) and Score(s, lang) from one pass over `s`.
  LangVerdict IdentifyAndScore(std::string_view s,
                               std::string_view lang) const;

  std::vector<std::string> Languages() const;

 private:
  /// Open-addressing slot: trigram hash -> table row. Key 0 marks an empty
  /// slot, so the trigram hash 0 keeps its row in zero_row_ instead.
  struct Slot {
    uint64_t key = 0;
    uint32_t row = 0;
  };
  static constexpr uint32_t kNoRow = UINT32_MAX;

  uint32_t FindRow(uint64_t key) const;
  uint32_t FindOrAddRow(uint64_t key);
  void AddLanguage(const std::string& lang);

  // Per profile, in AddProfile order.
  std::vector<std::string> langs_;
  std::vector<double> fallback_log_probs_;  // also the row of unseen grams
  std::vector<double> cjk_expectations_;    // expected CJK codepoint ratio

  std::vector<Slot> slots_;  // power-of-two size >= 2x rows_, or empty
  uint32_t rows_ = 0;
  uint32_t zero_row_ = kNoRow;
  // rows_ x langs_.size(), row-major.
  std::vector<double> log_probs_;  // the profile's fallback where !has_gram_
  std::vector<uint8_t> has_gram_;  // 1 where the profile's seeds had the gram
};

}  // namespace dj::text

#endif  // DJ_TEXT_LANG_ID_H_
