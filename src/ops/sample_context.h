#ifndef DJ_OPS_SAMPLE_CONTEXT_H_
#define DJ_OPS_SAMPLE_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dj::ops {

/// Per-sample cache of derived text representations (paper Sec. 7, "Context
/// management"): segmented words, split lines, sentences. When several
/// filters of one stage need the same representation of a field, it is
/// computed once here instead of once per filter.
///
/// Global counters record how many times each representation was actually
/// computed — the fusion benchmarks and tests use them to demonstrate the
/// saved work.
class SampleContext {
 public:
  explicit SampleContext(std::string_view text) : text_(text) {}

  SampleContext(const SampleContext&) = delete;
  SampleContext& operator=(const SampleContext&) = delete;

  std::string_view text() const { return text_; }

  /// Word tokens (lazily computed, cached).
  const std::vector<std::string>& Words();

  /// Lower-cased word tokens.
  const std::vector<std::string>& WordsLower();

  /// Lines (split on '\n').
  const std::vector<std::string>& Lines();

  /// Sentences (rule-based splitter).
  const std::vector<std::string>& Sentences();

  /// Paragraphs (split on blank lines).
  const std::vector<std::string>& Paragraphs();

  /// Instrumentation: total representation computations since process start.
  struct Counters {
    static std::atomic<uint64_t> words;
    static std::atomic<uint64_t> lines;
    static std::atomic<uint64_t> sentences;
    static std::atomic<uint64_t> paragraphs;
    static void Reset();
    static uint64_t Total();
  };

 private:
  std::string_view text_;
  std::optional<std::vector<std::string>> words_;
  std::optional<std::vector<std::string>> words_lower_;
  std::optional<std::vector<std::string>> lines_;
  std::optional<std::vector<std::string>> sentences_;
  std::optional<std::vector<std::string>> paragraphs_;
};

}  // namespace dj::ops

#endif  // DJ_OPS_SAMPLE_CONTEXT_H_
