#include "common/swar.h"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

#if defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64)
#define DJ_SWAR_HAVE_SSE2 1
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__aarch64__)
#define DJ_SWAR_HAVE_NEON 1
#include <arm_neon.h>
#endif

namespace dj::swar {
namespace {

constexpr uint64_t kOnes = 0x0101010101010101ULL;
constexpr uint64_t kHigh = 0x8080808080808080ULL;

inline uint64_t LoadWord(const char* p) {
  uint64_t w;
  std::memcpy(&w, p, 8);
  return w;
}

/// Exact per-byte zero mask: 0x80 in every byte of `x` that is zero, 0
/// elsewhere. The classic `(x - kOnes) & ~x & kHigh` has false positives in
/// bytes above a true zero (the subtraction borrows across bytes); this
/// variant sets every byte's high bit before subtracting so borrows never
/// cross, making the mask safe to iterate bit-by-bit.
inline uint64_t ZeroByteMask(uint64_t x) {
  return ~(x | ((x | kHigh) - kOnes)) & kHigh;
}

/// 0x80 in every byte of `w` equal to `b`.
inline uint64_t ByteMatchMask(uint64_t w, uint8_t b) {
  return ZeroByteMask(w ^ (kOnes * b));
}

/// 0x80 in every byte of `w` below 0x20 (byte < 0x20 iff its top three bits
/// are all zero).
inline uint64_t ControlByteMask(uint64_t w) {
  return ZeroByteMask(w & 0xE0E0E0E0E0E0E0E0ULL);
}

/// 0x80 in every byte of `w` below `bound` (1 <= bound <= 0x80). Adding
/// 0x80 - bound to the low seven bits of a byte sets its high bit exactly
/// when they are >= bound, and never carries into the next byte.
inline uint64_t LessThanMask(uint64_t w, uint8_t bound) {
  return ~((w & ~kHigh) + kOnes * (0x80u - bound)) & ~w & kHigh;
}

/// 0x80 in every byte of `w` that is ASCII whitespace: ' ' or 0x09-0x0D.
inline uint64_t AsciiSpaceMask(uint64_t w) {
  return ByteMatchMask(w, ' ') |
         (LessThanMask(w, 0x0E) & ~LessThanMask(w, 0x09));
}

/// 0x80 in every WhitespaceCleanSpan stop byte of `w`: up to 0x20, 0xC2,
/// and 0xE2 or 0xE3 (the bytes that OR 1 makes 0xE3).
inline uint64_t WhitespaceStopMask(uint64_t w) {
  return LessThanMask(w, 0x21) | ByteMatchMask(w, 0xC2) |
         ByteMatchMask(w | kOnes, 0xE3);
}

/// Gathers the high bit of every byte of a ByteMatchMask-style mask into
/// bit k for byte k.
inline uint32_t ByteMaskBits(uint64_t m) {
  return static_cast<uint32_t>(((m >> 7) * 0x0102040810204080ULL) >> 56);
}

inline bool IsAsciiSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

inline bool IsWhitespaceStop(char c) {
  const auto b = static_cast<unsigned char>(c);
  return b <= 0x20 || b == 0xC2 || b == 0xE2 || b == 0xE3;
}

/// FindWordLongerThan from data[i] on, inside a word that starts at
/// `word_start`: the scalar body and the tail of the word-wise ones.
size_t FindWordLongerThanFrom(const char* data, size_t i, size_t n,
                              size_t word_start, size_t max_len) {
  for (; i < n; ++i) {
    if (IsAsciiSpace(data[i])) {
      word_start = i + 1;
    } else if (i + 1 - word_start > max_len) {
      return word_start;
    }
  }
  return n;
}

constexpr size_t kNoLongWord = ~size_t{0};

/// One block of FindWordLongerThan: bit k of `ws` is set when data[i + k] is
/// whitespace, for a block of `width` bytes. Returns the start of a word
/// longer than `max_len` that ends in the block or runs past it, else
/// kNoLongWord; moves `*word_start` to the word open at the block's end.
inline size_t LongWordInBlock(uint32_t ws, size_t i, size_t width,
                              size_t max_len, size_t* word_start) {
  if (ws != 0) {
    if (max_len + 2 >= width) {
      // A word between two whitespace bytes of the block has at most
      // width - 2 bytes, so only the one ending at the first can be long.
      if (i + std::countr_zero(ws) - *word_start > max_len) return *word_start;
      *word_start = i + std::bit_width(ws);
    } else {
      do {
        size_t at = i + std::countr_zero(ws);
        if (at - *word_start > max_len) return *word_start;
        *word_start = at + 1;
        ws &= ws - 1;
      } while (ws != 0);
    }
  }
  if (i + width - *word_start > max_len) return *word_start;
  return kNoLongWord;
}

Level DetectCompiledLevel() {
#if defined(DJ_SWAR_HAVE_SSE2)
  return Level::kSse2;
#elif defined(DJ_SWAR_HAVE_NEON)
  return Level::kNeon;
#else
  return Level::kSwar;
#endif
}

Level ResolveLevel() {
  // The SWAR position math (count-trailing-zeros / 8) assumes little-endian
  // byte order; every supported target is little-endian, but a big-endian
  // build silently degrades to the scalar twins rather than mis-indexing.
  if constexpr (std::endian::native != std::endian::little) {
    return Level::kScalar;
  }
  const char* force = std::getenv("DJ_FORCE_SCALAR");
  if (force != nullptr && *force != '\0' && std::strcmp(force, "0") != 0) {
    return Level::kScalar;
  }
  return DetectCompiledLevel();
}

std::atomic<int> g_level{-1};

#if defined(DJ_SWAR_HAVE_SSE2)
/// 16-bit mask with bit i set when pred matches data[i].
inline int Sse2MoveMask(__m128i m) { return _mm_movemask_epi8(m); }
#endif

#if defined(DJ_SWAR_HAVE_NEON)
/// 64-bit nibble mask: 4 bits per input byte, 0xF where `eq` is 0xFF.
inline uint64_t NeonNibbleMask(uint8x16_t eq) {
  return vget_lane_u64(
      vreinterpret_u64_u8(vshrn_n_u16(vreinterpretq_u16_u8(eq), 4)), 0);
}
#endif

// ------------------------------------------------------- SWAR kernel bodies

size_t FindByteSwar(const char* data, size_t n, char b) {
  size_t i = 0;
  const auto ub = static_cast<uint8_t>(b);
  for (; i + 8 <= n; i += 8) {
    uint64_t m = ByteMatchMask(LoadWord(data + i), ub);
    if (m != 0) return i + (std::countr_zero(m) >> 3);
  }
  for (; i < n; ++i) {
    if (data[i] == b) return i;
  }
  return n;
}

size_t MatchLengthWords(const uint8_t* a, const uint8_t* b, size_t max) {
  size_t i = 0;
  for (; i + 8 <= max; i += 8) {
    uint64_t wa = LoadWord(reinterpret_cast<const char*>(a) + i);
    uint64_t wb = LoadWord(reinterpret_cast<const char*>(b) + i);
    uint64_t x = wa ^ wb;
    if (x != 0) return i + (std::countr_zero(x) >> 3);
  }
  for (; i < max; ++i) {
    if (a[i] != b[i]) return i;
  }
  return max;
}

size_t JsonCleanSpanSwar(const char* data, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w = LoadWord(data + i);
    uint64_t bad = ControlByteMask(w) | ByteMatchMask(w, '"') |
                   ByteMatchMask(w, '\\');
    if (bad != 0) return i + (std::countr_zero(bad) >> 3);
  }
  for (; i < n; ++i) {
    unsigned char c = static_cast<unsigned char>(data[i]);
    if (c < 0x20 || c == '"' || c == '\\') return i;
  }
  return n;
}

size_t AsciiSpanSwar(const char* data, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t high = LoadWord(data + i) & kHigh;
    if (high != 0) return i + (std::countr_zero(high) >> 3);
  }
  return i + scalar::AsciiSpan(data + i, n - i);
}

size_t AsciiTextSpanSwar(const char* data, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w = LoadWord(data + i);
    uint64_t control = LessThanMask(w, 0x20) & ~ByteMatchMask(w, '\t') &
                       ~ByteMatchMask(w, '\n');
    uint64_t bad = (control | ~LessThanMask(w, 0x7F)) & kHigh;
    if (bad != 0) return i + (std::countr_zero(bad) >> 3);
  }
  return i + scalar::AsciiTextSpan(data + i, n - i);
}

size_t WhitespaceCleanSpanSwar(const char* data, size_t n) {
  size_t i = 0;
  if (n >= 16) {
    uint64_t w = LoadWord(data);
    uint64_t stop = WhitespaceStopMask(w);
    uint64_t nl = ByteMatchMask(w, '\n');
    uint64_t sp = ByteMatchMask(w, ' ');
    for (; i + 16 <= n; i += 8) {
      uint64_t next = LoadWord(data + i + 8);
      uint64_t stop_next = WhitespaceStopMask(next);
      uint64_t nl_next = ByteMatchMask(next, '\n');
      // The same masks for the byte after, and two after, each byte.
      uint64_t stop1 = (stop >> 8) | (stop_next << 56);
      uint64_t stop2 = (stop >> 16) | (stop_next << 48);
      uint64_t nl1 = (nl >> 8) | (nl_next << 56);
      uint64_t ok = ~stop | ((sp | nl) & ~stop1) | (nl & nl1 & ~stop2);
      uint64_t bad = ~ok & kHigh;
      if (bad != 0) return i + (std::countr_zero(bad) >> 3);
      stop = stop_next;
      nl = nl_next;
      sp = ByteMatchMask(next, ' ');
    }
  }
  return i + scalar::WhitespaceCleanSpan(data + i, n - i);
}

size_t FindWordLongerThanSwar(const char* data, size_t n, size_t max_len) {
  size_t word_start = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint32_t ws = ByteMaskBits(AsciiSpaceMask(LoadWord(data + i)));
    size_t found = LongWordInBlock(ws, i, 8, max_len, &word_start);
    if (found != kNoLongWord) return found;
  }
  return FindWordLongerThanFrom(data, i, n, word_start, max_len);
}

// ------------------------------------------------------- SSE2 kernel bodies

#if defined(DJ_SWAR_HAVE_SSE2)
size_t FindByteSse2(const char* data, size_t n, char b) {
  const __m128i needle = _mm_set1_epi8(b);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    int m = Sse2MoveMask(_mm_cmpeq_epi8(v, needle));
    if (m != 0) {
      return i + static_cast<size_t>(
                     std::countr_zero(static_cast<unsigned>(m)));
    }
  }
  for (; i < n; ++i) {
    if (data[i] == b) return i;
  }
  return n;
}

size_t JsonCleanSpanSse2(const char* data, size_t n) {
  const __m128i quote = _mm_set1_epi8('"');
  const __m128i backslash = _mm_set1_epi8('\\');
  const __m128i space = _mm_set1_epi8(0x20);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    // v >= 0x20 (unsigned) iff max_epu8(v, 0x20) == v; invert for controls.
    __m128i printable = _mm_cmpeq_epi8(_mm_max_epu8(v, space), v);
    __m128i bad = _mm_or_si128(_mm_cmpeq_epi8(v, quote),
                               _mm_cmpeq_epi8(v, backslash));
    int m = Sse2MoveMask(bad) | (~Sse2MoveMask(printable) & 0xFFFF);
    if (m != 0) {
      return i + static_cast<size_t>(
                     std::countr_zero(static_cast<unsigned>(m)));
    }
  }
  for (; i < n; ++i) {
    unsigned char c = static_cast<unsigned char>(data[i]);
    if (c < 0x20 || c == '"' || c == '\\') return i;
  }
  return n;
}

size_t AsciiSpanSse2(const char* data, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    auto high = static_cast<unsigned>(Sse2MoveMask(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i))));
    if (high != 0) return i + static_cast<size_t>(std::countr_zero(high));
  }
  return i + scalar::AsciiSpan(data + i, n - i);
}

size_t AsciiTextSpanSse2(const char* data, size_t n) {
  const __m128i below = _mm_set1_epi8(0x1F);
  const __m128i above = _mm_set1_epi8(0x7F);
  const __m128i tab = _mm_set1_epi8('\t');
  const __m128i newline = _mm_set1_epi8('\n');
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    // Signed compares: bytes 0x80-0xFF are negative and fail the first.
    __m128i ok = _mm_or_si128(
        _mm_and_si128(_mm_cmpgt_epi8(v, below), _mm_cmplt_epi8(v, above)),
        _mm_or_si128(_mm_cmpeq_epi8(v, tab), _mm_cmpeq_epi8(v, newline)));
    unsigned bad = ~static_cast<unsigned>(Sse2MoveMask(ok)) & 0xFFFF;
    if (bad != 0) return i + static_cast<size_t>(std::countr_zero(bad));
  }
  return i + scalar::AsciiTextSpan(data + i, n - i);
}

/// Bit k set when byte k of `v` is a WhitespaceCleanSpan stop byte.
inline uint32_t Sse2WhitespaceStops(__m128i v) {
  __m128i low = _mm_cmpeq_epi8(_mm_min_epu8(v, _mm_set1_epi8(0x20)), v);
  __m128i c2 = _mm_cmpeq_epi8(v, _mm_set1_epi8(static_cast<char>(0xC2)));
  __m128i e2_e3 = _mm_cmpeq_epi8(_mm_or_si128(v, _mm_set1_epi8(1)),
                                 _mm_set1_epi8(static_cast<char>(0xE3)));
  return static_cast<uint32_t>(
      Sse2MoveMask(_mm_or_si128(_mm_or_si128(low, c2), e2_e3)));
}

size_t WhitespaceCleanSpanSse2(const char* data, size_t n) {
  const __m128i newline = _mm_set1_epi8('\n');
  const __m128i space = _mm_set1_epi8(' ');
  size_t i = 0;
  if (n >= 32) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data));
    uint32_t stop = Sse2WhitespaceStops(v);
    auto nl = static_cast<uint32_t>(Sse2MoveMask(_mm_cmpeq_epi8(v, newline)));
    auto sp = static_cast<uint32_t>(Sse2MoveMask(_mm_cmpeq_epi8(v, space)));
    for (; i + 32 <= n; i += 16) {
      __m128i next =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i + 16));
      uint32_t stop_next = Sse2WhitespaceStops(next);
      auto nl_next =
          static_cast<uint32_t>(Sse2MoveMask(_mm_cmpeq_epi8(next, newline)));
      // Bit k of the >> 1 and >> 2 masks describes byte k + 1 and k + 2.
      uint32_t stops = stop | (stop_next << 16);
      uint32_t nls = nl | (nl_next << 16);
      uint32_t ok = ~stop | ((sp | nl) & ~(stops >> 1)) |
                    (nl & (nls >> 1) & ~(stops >> 2));
      uint32_t bad = ~ok & 0xFFFF;
      if (bad != 0) return i + static_cast<size_t>(std::countr_zero(bad));
      stop = stop_next;
      nl = nl_next;
      sp = static_cast<uint32_t>(Sse2MoveMask(_mm_cmpeq_epi8(next, space)));
    }
  }
  return i + scalar::WhitespaceCleanSpan(data + i, n - i);
}

size_t FindWordLongerThanSse2(const char* data, size_t n, size_t max_len) {
  const __m128i space = _mm_set1_epi8(' ');
  const __m128i tab = _mm_set1_epi8('\t');
  const __m128i four = _mm_set1_epi8(4);
  size_t word_start = 0;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    // 0x09-0x0D are the bytes whose distance above '\t' is at most 4.
    __m128i d = _mm_sub_epi8(v, tab);
    __m128i ws = _mm_or_si128(_mm_cmpeq_epi8(v, space),
                              _mm_cmpeq_epi8(_mm_min_epu8(d, four), d));
    size_t found = LongWordInBlock(static_cast<uint32_t>(Sse2MoveMask(ws)), i,
                                   16, max_len, &word_start);
    if (found != kNoLongWord) return found;
  }
  return FindWordLongerThanFrom(data, i, n, word_start, max_len);
}
#endif  // DJ_SWAR_HAVE_SSE2

// ------------------------------------------------------- NEON kernel bodies

#if defined(DJ_SWAR_HAVE_NEON)
size_t JsonCleanSpanNeon(const char* data, size_t n) {
  const uint8x16_t quote = vdupq_n_u8('"');
  const uint8x16_t backslash = vdupq_n_u8('\\');
  const uint8x16_t space = vdupq_n_u8(0x20);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    uint8x16_t v = vld1q_u8(reinterpret_cast<const uint8_t*>(data + i));
    uint8x16_t bad = vorrq_u8(vorrq_u8(vceqq_u8(v, quote),
                                       vceqq_u8(v, backslash)),
                              vcltq_u8(v, space));
    uint64_t m = NeonNibbleMask(bad);
    if (m != 0) {
      return i + (static_cast<size_t>(std::countr_zero(m)) >> 2);
    }
  }
  for (; i < n; ++i) {
    unsigned char c = static_cast<unsigned char>(data[i]);
    if (c < 0x20 || c == '"' || c == '\\') return i;
  }
  return n;
}
#endif  // DJ_SWAR_HAVE_NEON

constexpr uint64_t kHashMul1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kHashMul2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kHashSeed = 0x84222325CBF29CE4ULL;

inline uint64_t Hash64Lane(uint64_t h, uint64_t w) {
  return (h ^ (w * kHashMul1)) * kHashMul2;
}

inline uint64_t Hash64Finish(uint64_t h) {
  h ^= h >> 32;
  h *= kHashMul1;
  h ^= h >> 29;
  return h;
}

/// Four independent accumulators, 8-byte lane i feeding stripe i mod 4.
/// A single multiply-xor chain is latency-bound (~6 cycles per 8 bytes);
/// four interleaved chains overlap those latencies and run near load
/// throughput. The stripe fold at the end reuses the lane step so the
/// digest stays sensitive to stripe order.
uint64_t Hash64Words(const char* data, size_t n) {
  uint64_t h0 = (kHashSeed + 0 * kHashMul2) ^
                (static_cast<uint64_t>(n) * kHashMul1);
  uint64_t h1 = (kHashSeed + 1 * kHashMul2) ^
                (static_cast<uint64_t>(n) * kHashMul1);
  uint64_t h2 = (kHashSeed + 2 * kHashMul2) ^
                (static_cast<uint64_t>(n) * kHashMul1);
  uint64_t h3 = (kHashSeed + 3 * kHashMul2) ^
                (static_cast<uint64_t>(n) * kHashMul1);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    h0 = Hash64Lane(h0, LoadWord(data + i));
    h1 = Hash64Lane(h1, LoadWord(data + i + 8));
    h2 = Hash64Lane(h2, LoadWord(data + i + 16));
    h3 = Hash64Lane(h3, LoadWord(data + i + 24));
  }
  uint64_t* stripes[4] = {&h0, &h1, &h2, &h3};
  size_t lane = 0;
  for (; i + 8 <= n; i += 8, ++lane) {
    *stripes[lane & 3] = Hash64Lane(*stripes[lane & 3], LoadWord(data + i));
  }
  if (i < n) {
    uint64_t w = 0;
    std::memcpy(&w, data + i, n - i);
    *stripes[lane & 3] = Hash64Lane(*stripes[lane & 3], w);
  }
  uint64_t h = Hash64Lane(Hash64Lane(Hash64Lane(h0, h1), h2), h3);
  return Hash64Finish(h);
}

/// Accelerated match-copy body shared by every non-scalar level: word-wise
/// when source and destination are at least a word apart, byte-wise for the
/// short overlapping distances (which replicate runs).
void AppendMatchWords(std::string* out, size_t offset, size_t len) {
  const size_t start = out->size();
  out->resize(start + len);
  char* dst = out->data() + start;
  const char* src = out->data() + (start - offset);
  if (offset >= 8) {
    size_t i = 0;
    for (; i + 8 <= len; i += 8) {
      uint64_t w;
      std::memcpy(&w, src + i, 8);
      std::memcpy(dst + i, &w, 8);
    }
    for (; i < len; ++i) dst[i] = src[i];
  } else {
    for (size_t i = 0; i < len; ++i) dst[i] = src[i];
  }
}

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kSwar:
      return "swar";
    case Level::kSse2:
      return "sse2";
    case Level::kNeon:
      return "neon";
  }
  return "?";
}

Level CompiledLevel() { return DetectCompiledLevel(); }

Level ActiveLevel() {
  int level = g_level.load(std::memory_order_relaxed);
  if (level < 0) {
    level = static_cast<int>(ResolveLevel());
    g_level.store(level, std::memory_order_relaxed);
  }
  return static_cast<Level>(level);
}

ScopedLevel::ScopedLevel(Level level) {
  saved_ = static_cast<int>(ActiveLevel());
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

ScopedLevel::~ScopedLevel() {
  g_level.store(saved_, std::memory_order_relaxed);
}

size_t FindByte(const char* data, size_t n, char b) {
  switch (ActiveLevel()) {
    case Level::kScalar:
      return scalar::FindByte(data, n, b);
#if defined(DJ_SWAR_HAVE_SSE2)
    case Level::kSse2:
      return FindByteSse2(data, n, b);
#endif
    default:
      return FindByteSwar(data, n, b);
  }
}

size_t MatchLength(const uint8_t* a, const uint8_t* b, size_t max) {
  if (ActiveLevel() == Level::kScalar) return scalar::MatchLength(a, b, max);
  return MatchLengthWords(a, b, max);
}

size_t JsonCleanSpan(const char* data, size_t n) {
  switch (ActiveLevel()) {
    case Level::kScalar:
      return scalar::JsonCleanSpan(data, n);
#if defined(DJ_SWAR_HAVE_SSE2)
    case Level::kSse2:
      return JsonCleanSpanSse2(data, n);
#endif
#if defined(DJ_SWAR_HAVE_NEON)
    case Level::kNeon:
      return JsonCleanSpanNeon(data, n);
#endif
    default:
      return JsonCleanSpanSwar(data, n);
  }
}

size_t AsciiSpan(const char* data, size_t n) {
  switch (ActiveLevel()) {
    case Level::kScalar:
      return scalar::AsciiSpan(data, n);
#if defined(DJ_SWAR_HAVE_SSE2)
    case Level::kSse2:
      return AsciiSpanSse2(data, n);
#endif
    default:
      return AsciiSpanSwar(data, n);
  }
}

size_t AsciiTextSpan(const char* data, size_t n) {
  switch (ActiveLevel()) {
    case Level::kScalar:
      return scalar::AsciiTextSpan(data, n);
#if defined(DJ_SWAR_HAVE_SSE2)
    case Level::kSse2:
      return AsciiTextSpanSse2(data, n);
#endif
    default:
      return AsciiTextSpanSwar(data, n);
  }
}

size_t WhitespaceCleanSpan(const char* data, size_t n) {
  switch (ActiveLevel()) {
    case Level::kScalar:
      return scalar::WhitespaceCleanSpan(data, n);
#if defined(DJ_SWAR_HAVE_SSE2)
    case Level::kSse2:
      return WhitespaceCleanSpanSse2(data, n);
#endif
    default:
      return WhitespaceCleanSpanSwar(data, n);
  }
}

size_t FindWordLongerThan(const char* data, size_t n, size_t max_len) {
  switch (ActiveLevel()) {
    case Level::kScalar:
      return scalar::FindWordLongerThan(data, n, max_len);
#if defined(DJ_SWAR_HAVE_SSE2)
    case Level::kSse2:
      return FindWordLongerThanSse2(data, n, max_len);
#endif
    default:
      return FindWordLongerThanSwar(data, n, max_len);
  }
}

void AppendMatch(std::string* out, size_t offset, size_t len) {
  if (ActiveLevel() == Level::kScalar) {
    return scalar::AppendMatch(out, offset, len);
  }
  AppendMatchWords(out, offset, len);
}

uint64_t Hash64(const char* data, size_t n) {
  if (ActiveLevel() == Level::kScalar) return scalar::Hash64(data, n);
  return Hash64Words(data, n);
}

namespace scalar {

size_t FindByte(const char* data, size_t n, char b) {
  for (size_t i = 0; i < n; ++i) {
    if (data[i] == b) return i;
  }
  return n;
}

size_t MatchLength(const uint8_t* a, const uint8_t* b, size_t max) {
  size_t i = 0;
  while (i < max && a[i] == b[i]) ++i;
  return i;
}

size_t JsonCleanSpan(const char* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    unsigned char c = static_cast<unsigned char>(data[i]);
    if (c < 0x20 || c == '"' || c == '\\') return i;
  }
  return n;
}

size_t AsciiSpan(const char* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (static_cast<unsigned char>(data[i]) >= 0x80) return i;
  }
  return n;
}

size_t AsciiTextSpan(const char* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    unsigned char c = static_cast<unsigned char>(data[i]);
    if ((c < 0x20 && c != '\t' && c != '\n') || c > 0x7E) return i;
  }
  return n;
}

size_t WhitespaceCleanSpan(const char* data, size_t n) {
  auto stop = [&](size_t k) { return k >= n || IsWhitespaceStop(data[k]); };
  size_t i = 0;
  while (i < n) {
    if (!stop(i)) {
      ++i;
    } else if ((data[i] == ' ' || data[i] == '\n') && !stop(i + 1)) {
      i += 2;
    } else if (data[i] == '\n' && i + 1 < n && data[i + 1] == '\n' &&
               !stop(i + 2)) {
      i += 3;
    } else {
      break;
    }
  }
  return i;
}

size_t FindWordLongerThan(const char* data, size_t n, size_t max_len) {
  return FindWordLongerThanFrom(data, 0, n, 0, max_len);
}

void AppendMatch(std::string* out, size_t offset, size_t len) {
  size_t from = out->size() - offset;
  for (size_t i = 0; i < len; ++i) out->push_back((*out)[from + i]);
}

uint64_t Hash64(const char* data, size_t n) {
  // Assembles each little-endian lane a byte at a time so the digest matches
  // the word-wise body on any host byte order. Lane i feeds stripe i mod 4,
  // exactly as in the accelerated body.
  uint64_t stripes[4];
  for (uint64_t j = 0; j < 4; ++j) {
    stripes[j] = (kHashSeed + j * kHashMul2) ^
                 (static_cast<uint64_t>(n) * kHashMul1);
  }
  size_t lane = 0;
  for (size_t i = 0; i < n; i += 8, ++lane) {
    uint64_t w = 0;
    size_t lane_bytes = n - i < 8 ? n - i : 8;
    for (size_t j = 0; j < lane_bytes; ++j) {
      w |= static_cast<uint64_t>(static_cast<unsigned char>(data[i + j]))
           << (8 * j);
    }
    stripes[lane & 3] = Hash64Lane(stripes[lane & 3], w);
  }
  uint64_t h = Hash64Lane(
      Hash64Lane(Hash64Lane(stripes[0], stripes[1]), stripes[2]), stripes[3]);
  return Hash64Finish(h);
}

}  // namespace scalar
}  // namespace dj::swar
