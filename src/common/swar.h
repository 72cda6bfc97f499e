#ifndef DJ_COMMON_SWAR_H_
#define DJ_COMMON_SWAR_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace dj::swar {

/// Dispatch level of the data-plane kernels. Kernels come in pairs: a
/// byte-at-a-time scalar twin (the reference semantics) and an accelerated
/// body — portable 8-bytes-at-a-time SWAR, or 16-bytes-at-a-time SSE2/NEON
/// where the compiler targets them. Every accelerated kernel is required to
/// be byte-identical to its scalar twin (tests/swar_test.cc enforces this
/// differentially); the level only changes speed, never bytes.
enum class Level : int {
  kScalar = 0,  ///< byte loops (DJ_FORCE_SCALAR, or differential baseline)
  kSwar = 1,    ///< 64-bit SWAR words, portable C++
  kSse2 = 2,    ///< 128-bit SSE2 (any x86-64)
  kNeon = 3,    ///< 128-bit NEON (aarch64)
};

/// Human-readable level name ("scalar", "swar", "sse2", "neon").
const char* LevelName(Level level);

/// Highest level this binary was compiled with.
Level CompiledLevel();

/// The level kernels currently dispatch to. Resolved once from the
/// environment: DJ_FORCE_SCALAR=1 pins kScalar; otherwise CompiledLevel().
Level ActiveLevel();

/// Numeric ActiveLevel() for the `simd.kernel` metrics gauge.
inline double ActiveLevelMetric() { return static_cast<double>(ActiveLevel()); }

/// Test hook: pins the dispatch level for the current scope (process-wide;
/// not for use while other threads run kernels). Restores on destruction.
class ScopedLevel {
 public:
  explicit ScopedLevel(Level level);
  ~ScopedLevel();
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  int saved_;
};

// ---------------------------------------------------------------- kernels --
// Each kernel dispatches on ActiveLevel(); the scalar twins live in
// swar::scalar for direct differential testing.

/// Index of the first occurrence of `b`, or `n` when absent.
size_t FindByte(const char* data, size_t n, char b);

/// Length of the longest common prefix of `a` and `b`, at most `max`.
/// Word-at-a-time XOR + count-trailing-zeros instead of a byte compare.
size_t MatchLength(const uint8_t* a, const uint8_t* b, size_t max);

/// Length of the longest prefix of [data, data+n) in which no byte needs
/// JSON string escaping (byte >= 0x20, not '"', not '\\'). The serializer
/// and the JSON parser copy such spans in one append.
size_t JsonCleanSpan(const char* data, size_t n);

/// Length of the longest prefix of [data, data+n) made of ASCII bytes
/// (below 0x80): each is one codepoint, so a count needs no decoding there.
size_t AsciiSpan(const char* data, size_t n);

/// Length of the longest prefix of [data, data+n) made of ASCII text:
/// printable bytes (0x20-0x7E), '\t' and '\n'. Unicode repair copies such
/// spans unchanged.
size_t AsciiTextSpan(const char* data, size_t n);

/// Length of the longest prefix of [data, data+n) that whitespace
/// normalization copies unchanged after a byte it keeps. Stop bytes are
/// every byte up to 0x20 and the lead bytes 0xC2, 0xE2 and 0xE3 of the
/// multi-byte whitespace. A stop byte still belongs to the span when it is a
/// ' ' or '\n' followed by a non-stop byte, or the first of "\n\n" followed
/// by a non-stop byte. The end of the data counts as a stop byte, so a
/// non-empty span ends with a non-stop byte.
size_t WhitespaceCleanSpan(const char* data, size_t n);

/// Index of the first byte of the first word longer than `max_len` bytes,
/// or `n` when there is none. A word is a maximal run of bytes that are not
/// ASCII whitespace (' ', '\t', '\n', '\v', '\f', '\r'); data[0] may start
/// one.
size_t FindWordLongerThan(const char* data, size_t n, size_t max_len);

/// Appends `len` bytes to `*out` copied from `offset` bytes before its
/// current end (LZ77 match copy). Overlap-safe: offset < len is legal and
/// replicates the trailing pattern, byte-semantics identical to a
/// push_back-per-byte loop. Requires 1 <= offset <= out->size().
void AppendMatch(std::string* out, size_t offset, size_t len);

/// Word-at-a-time 64-bit checksum (multiply-xor over little-endian 8-byte
/// lanes, zero-padded tail, final avalanche). Roughly 4x the throughput of
/// the byte-serial FNV-1a it replaces in the v3 container/frame formats.
/// The value is defined by the lane math, not the dispatch level: every
/// level — including the byte-assembled scalar twin — produces the same
/// digest for the same bytes, so checksums written by one build verify
/// under any other.
uint64_t Hash64(const char* data, size_t n);
inline uint64_t Hash64(const std::string& s) {
  return Hash64(s.data(), s.size());
}

namespace scalar {
// Byte-at-a-time reference twins. Same contracts as the dispatching
// versions above; used directly by tests and as the kScalar bodies.
size_t FindByte(const char* data, size_t n, char b);
size_t MatchLength(const uint8_t* a, const uint8_t* b, size_t max);
size_t JsonCleanSpan(const char* data, size_t n);
size_t AsciiSpan(const char* data, size_t n);
size_t AsciiTextSpan(const char* data, size_t n);
size_t WhitespaceCleanSpan(const char* data, size_t n);
size_t FindWordLongerThan(const char* data, size_t n, size_t max_len);
void AppendMatch(std::string* out, size_t offset, size_t len);
uint64_t Hash64(const char* data, size_t n);
}  // namespace scalar

}  // namespace dj::swar

#endif  // DJ_COMMON_SWAR_H_
