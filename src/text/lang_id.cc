#include "text/lang_id.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "text/utf8.h"

namespace dj::text {
namespace {

// Seed text per language: a few dozen high-frequency sentences capturing the
// character statistics of each language. Profiles are trigram frequencies
// over the lowercased seed.
constexpr std::string_view kSeedEn =
    "the quick brown fox jumps over the lazy dog. this is a sentence about "
    "the world and the people who live in it. we are going to describe how "
    "things work and why they matter. language models are trained on large "
    "amounts of text data collected from the web. the weather today is nice "
    "and the children are playing in the park. she said that he would come "
    "to the meeting tomorrow with the report. there is no doubt that the "
    "results of the experiment were very interesting for everyone involved. "
    "please read the following instructions carefully before you begin. it "
    "was the best of times, it was the worst of times. what do you think "
    "about the new system that they have built for processing information?";

constexpr std::string_view kSeedDe =
    "der schnelle braune fuchs springt ueber den faulen hund. das ist ein "
    "satz ueber die welt und die menschen die darin leben. wir werden "
    "beschreiben wie die dinge funktionieren und warum sie wichtig sind. "
    "das wetter ist heute schoen und die kinder spielen im park. sie sagte "
    "dass er morgen mit dem bericht zur besprechung kommen wuerde. es gibt "
    "keinen zweifel dass die ergebnisse des experiments sehr interessant "
    "waren. bitte lesen sie die folgenden anweisungen sorgfaeltig durch "
    "bevor sie beginnen. was denken sie ueber das neue system das sie "
    "gebaut haben?";

constexpr std::string_view kSeedFr =
    "le rapide renard brun saute par dessus le chien paresseux. ceci est une "
    "phrase sur le monde et les gens qui y vivent. nous allons decrire "
    "comment les choses fonctionnent et pourquoi elles sont importantes. le "
    "temps est beau aujourd'hui et les enfants jouent dans le parc. elle a "
    "dit qu'il viendrait demain a la reunion avec le rapport. il n'y a "
    "aucun doute que les resultats de l'experience etaient tres "
    "interessants. veuillez lire attentivement les instructions suivantes "
    "avant de commencer. que pensez vous du nouveau systeme qu'ils ont "
    "construit?";

constexpr std::string_view kSeedEs =
    "el rapido zorro marron salta sobre el perro perezoso. esta es una "
    "frase sobre el mundo y la gente que vive en el. vamos a describir como "
    "funcionan las cosas y por que son importantes. el tiempo es bueno hoy "
    "y los ninos juegan en el parque. ella dijo que el vendria manana a la "
    "reunion con el informe. no hay duda de que los resultados del "
    "experimento fueron muy interesantes para todos. por favor lea "
    "atentamente las siguientes instrucciones antes de comenzar. que piensa "
    "usted del nuevo sistema que han construido?";

// Chinese seed: common sentences (UTF-8 literals).
constexpr std::string_view kSeedZh =
    "\xe4\xbb\x8a\xe5\xa4\xa9\xe5\xa4\xa9\xe6\xb0\x94\xe5\xbe\x88\xe5\xa5\xbd"
    "\xe3\x80\x82\xe6\x88\x91\xe4\xbb\xac\xe5\x9c\xa8\xe5\x85\xac\xe5\x9b\xad"
    "\xe9\x87\x8c\xe6\x95\xa3\xe6\xad\xa5\xe3\x80\x82\xe8\xbf\x99\xe6\x98\xaf"
    "\xe4\xb8\x80\xe4\xb8\xaa\xe5\x85\xb3\xe4\xba\x8e\xe4\xb8\x96\xe7\x95\x8c"
    "\xe7\x9a\x84\xe5\x8f\xa5\xe5\xad\x90\xe3\x80\x82\xe5\xa4\xa7\xe5\x9e\x8b"
    "\xe8\xaf\xad\xe8\xa8\x80\xe6\xa8\xa1\xe5\x9e\x8b\xe9\x9c\x80\xe8\xa6\x81"
    "\xe5\xa4\xa7\xe9\x87\x8f\xe7\x9a\x84\xe6\x96\x87\xe6\x9c\xac\xe6\x95\xb0"
    "\xe6\x8d\xae\xe3\x80\x82\xe5\xad\xa9\xe5\xad\x90\xe4\xbb\xac\xe5\x9c\xa8"
    "\xe5\xad\xa6\xe6\xa0\xa1\xe5\xad\xa6\xe4\xb9\xa0\xe6\x95\xb0\xe5\xad\xa6"
    "\xe5\x92\x8c\xe8\xaf\xad\xe6\x96\x87\xe3\x80\x82\xe8\xaf\xb7\xe4\xbb\x94"
    "\xe7\xbb\x86\xe9\x98\x85\xe8\xaf\xbb\xe4\xb8\x8b\xe9\x9d\xa2\xe7\x9a\x84"
    "\xe8\xaf\xb4\xe6\x98\x8e\xe3\x80\x82\xe5\xae\x9e\xe9\xaa\x8c\xe7\xbb\x93"
    "\xe6\x9e\x9c\xe9\x9d\x9e\xe5\xb8\xb8\xe6\x9c\x89\xe8\xb6\xa3\xe3\x80\x82";

double CjkRatio(std::string_view s) {
  size_t pos = 0, total = 0, cjk = 0;
  uint32_t cp;
  while (pos < s.size()) {
    DecodeUtf8(s, &pos, &cp);
    if (IsWhitespaceCp(cp)) continue;
    ++total;
    if (IsCjk(cp)) ++cjk;
  }
  return total == 0 ? 0.0 : static_cast<double>(cjk) /
                                static_cast<double>(total);
}

// Calls f(h) for each 3-byte window of `s`, in order, where h is the
// FNV-1a hash of the window after AsciiToLower: the hashes
// HashedCharNgrams(AsciiToLower(s), 3) returns, without either copy.
template <typename F>
void ForEachLowerTrigram(std::string_view s, F&& f) {
  auto lower = [](char c) -> uint64_t {
    auto b = static_cast<unsigned char>(c);
    return b >= 'A' && b <= 'Z' ? b + ('a' - 'A') : b;
  };
  for (size_t i = 0; i + 3 <= s.size(); ++i) {
    uint64_t h = kFnv1a64Offset;
    h = (h ^ lower(s[i])) * kFnv1a64Prime;
    h = (h ^ lower(s[i + 1])) * kFnv1a64Prime;
    h = (h ^ lower(s[i + 2])) * kFnv1a64Prime;
    f(h);
  }
}

}  // namespace

LanguageIdentifier::LanguageIdentifier() = default;

uint32_t LanguageIdentifier::FindRow(uint64_t key) const {
  if (key == 0) return zero_row_;
  if (slots_.empty()) return kNoRow;
  const size_t mask = slots_.size() - 1;
  for (size_t i = SplitMix64(key) & mask;; i = (i + 1) & mask) {
    if (slots_[i].key == key) return slots_[i].row;
    if (slots_[i].key == 0) return kNoRow;
  }
}

uint32_t LanguageIdentifier::FindOrAddRow(uint64_t key) {
  uint32_t row = FindRow(key);
  if (row != kNoRow) return row;
  row = rows_++;
  // A new row starts as "no profile has this gram".
  log_probs_.insert(log_probs_.end(), fallback_log_probs_.begin(),
                    fallback_log_probs_.end());
  has_gram_.resize(log_probs_.size(), 0);
  if (key == 0) {
    zero_row_ = row;
    return row;
  }
  auto place = [this](Slot slot) {
    const size_t mask = slots_.size() - 1;
    size_t i = SplitMix64(slot.key) & mask;
    while (slots_[i].key != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  };
  if (2 * static_cast<size_t>(rows_) > slots_.size()) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<size_t>(64, 2 * old.size()), Slot{});
    for (const Slot& slot : old) {
      if (slot.key != 0) place(slot);
    }
  }
  place(Slot{key, row});
  return row;
}

void LanguageIdentifier::AddLanguage(const std::string& lang) {
  // Widen every row by one cell; AddProfile fills the new column.
  const size_t width = langs_.size();
  std::vector<double> log_probs(static_cast<size_t>(rows_) * (width + 1));
  std::vector<uint8_t> has_gram(log_probs.size(), 0);
  for (size_t r = 0; r < rows_; ++r) {
    std::copy_n(log_probs_.begin() + r * width, width,
                log_probs.begin() + r * (width + 1));
    std::copy_n(has_gram_.begin() + r * width, width,
                has_gram.begin() + r * (width + 1));
  }
  log_probs_ = std::move(log_probs);
  has_gram_ = std::move(has_gram);
  langs_.push_back(lang);
  fallback_log_probs_.push_back(0.0);
  cjk_expectations_.push_back(0.0);
}

void LanguageIdentifier::AddProfile(const std::string& lang,
                                    std::string_view seed_text) {
  const size_t p = static_cast<size_t>(
      std::find(langs_.begin(), langs_.end(), lang) - langs_.begin());
  if (p == langs_.size()) AddLanguage(lang);
  const size_t width = langs_.size();
  // Trigram counts of this seed, by table row.
  std::vector<uint32_t> counts;
  std::vector<uint32_t> seen;  // rows with a nonzero count
  size_t total = 0;
  ForEachLowerTrigram(seed_text, [&](uint64_t h) {
    uint32_t row = FindOrAddRow(h);
    if (row >= counts.size()) counts.resize(rows_, 0);
    if (counts[row]++ == 0) seen.push_back(row);
    ++total;
  });
  // Laplace-smoothed log probabilities; unseen grams get a fallback below
  // the rarest seen gram. A gram from an earlier seed of this profile keeps
  // its log-prob unless this seed has it too.
  double denom =
      static_cast<double>(total) + static_cast<double>(seen.size()) + 1.0;
  for (uint32_t row : seen) {
    log_probs_[row * width + p] =
        std::log((static_cast<double>(counts[row]) + 1.0) / denom);
    has_gram_[row * width + p] = 1;
  }
  fallback_log_probs_[p] = std::log(1.0 / denom) - 1.0;
  for (size_t cell = p; cell < log_probs_.size(); cell += width) {
    if (!has_gram_[cell]) log_probs_[cell] = fallback_log_probs_[p];
  }
  cjk_expectations_[p] = CjkRatio(seed_text);
}

const LanguageIdentifier& LanguageIdentifier::Default() {
  static const LanguageIdentifier* instance = [] {
    auto* id = new LanguageIdentifier();
    id->AddProfile("en", kSeedEn);
    id->AddProfile("de", kSeedDe);
    id->AddProfile("fr", kSeedFr);
    id->AddProfile("es", kSeedEs);
    id->AddProfile("zh", kSeedZh);
    return id;
  }();
  return *instance;
}

LangVerdict LanguageIdentifier::IdentifyAndScore(std::string_view s,
                                                 std::string_view lang) const {
  const size_t width = langs_.size();
  if (width == 0) return {{"und", 0.0}, 0.0};
  // Per-language log-likelihood sums, on the stack for the usual handful.
  constexpr size_t kInlineLanguages = 8;
  double inline_logp[kInlineLanguages];
  std::vector<double> heap_logp(width > kInlineLanguages ? width : 0);
  double* logp = width > kInlineLanguages ? heap_logp.data() : inline_logp;
  std::fill_n(logp, width, 0.0);
  size_t grams = 0;
  ForEachLowerTrigram(s, [&](uint64_t h) {
    uint32_t row = FindRow(h);
    const double* cells = row == kNoRow ? fallback_log_probs_.data()
                                        : &log_probs_[row * width];
    for (size_t p = 0; p < width; ++p) logp[p] += cells[p];
    ++grams;
  });
  double cjk = CjkRatio(s);
  for (size_t p = 0; p < width; ++p) {
    logp[p] = grams == 0 ? fallback_log_probs_[p]
                         : logp[p] / static_cast<double>(grams);
    // CJK-ratio prior: quadratic penalty for mismatch between the observed
    // CJK density and the language's expectation. Weighted strongly enough
    // to dominate on clearly CJK or clearly Latin text.
    double mismatch = cjk - cjk_expectations_[p];
    logp[p] -= 6.0 * mismatch * mismatch;
  }
  // Temperature-sharpened softmax; the first of equal maxima wins.
  double max_logp = logp[0];
  for (size_t p = 0; p < width; ++p) max_logp = std::max(max_logp, logp[p]);
  double z = 0;
  size_t best = 0;
  double best_e = 0;
  double target = -1;
  for (size_t p = 0; p < width; ++p) {
    double e = std::exp((logp[p] - max_logp) * 3.0);
    z += e;
    if (p == 0 || best_e < e) {
      best = p;
      best_e = e;
    }
    if (langs_[p] == lang) target = e;
  }
  return {{langs_[best], best_e / z}, target < 0 ? 0.0 : target / z};
}

LangScore LanguageIdentifier::Identify(std::string_view s) const {
  return IdentifyAndScore(s, {}).best;
}

double LanguageIdentifier::Score(std::string_view s,
                                 std::string_view lang) const {
  return IdentifyAndScore(s, lang).score;
}

std::vector<std::string> LanguageIdentifier::Languages() const {
  return langs_;
}

}  // namespace dj::text
