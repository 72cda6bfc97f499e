#ifndef DJ_COMMON_HASH_H_
#define DJ_COMMON_HASH_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace dj {

/// FNV-1a 64-bit offset basis and prime, for callers that fold bytes into
/// an FNV-1a hash inline (e.g. one hash per sliding window).
inline constexpr uint64_t kFnv1a64Offset = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnv1a64Prime = 0x100000001b3ULL;

/// 64-bit FNV-1a. Stable across platforms; used for cache keys and MinHash
/// base hashing.
uint64_t Fnv1a64(std::string_view data, uint64_t seed = kFnv1a64Offset);

/// SplitMix64 mixer — turns any 64-bit value into a well-distributed one.
/// Used to derive independent hash families cheaply, and as the probe index
/// of flat hash tables keyed by FNV values (whose low bits are weak).
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// 128-bit fingerprint (two independent FNV streams mixed through SplitMix).
/// Collision probability is negligible at corpus scale; used for exact
/// document deduplication.
struct Fingerprint128 {
  uint64_t lo = 0;
  uint64_t hi = 0;

  friend bool operator==(const Fingerprint128& a, const Fingerprint128& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
};

/// lo = SplitMix64(Fnv1a64(data)), hi = SplitMix64(Fnv1a64(data,
/// 0x9e3779b97f4a7c15) ^ data.size()).
Fingerprint128 Fingerprint(std::string_view data);

/// Fingerprint() of bytes fed one at a time, both FNV streams in one pass:
/// a caller can fingerprint a normalized form of its input without
/// building it.
class FingerprintBuilder {
 public:
  void Add(unsigned char c) {
    lo_ = (lo_ ^ c) * kFnv1a64Prime;
    hi_ = (hi_ ^ c) * kFnv1a64Prime;
    ++size_;
  }
  Fingerprint128 Finish() const {
    return {SplitMix64(lo_), SplitMix64(hi_ ^ size_)};
  }

 private:
  uint64_t lo_ = kFnv1a64Offset;
  uint64_t hi_ = 0x9e3779b97f4a7c15ULL;
  uint64_t size_ = 0;
};

/// Hex rendering of a fingerprint ("0123...").
std::string FingerprintHex(const Fingerprint128& fp);

/// Combines two hash values (boost::hash_combine style, 64-bit).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (SplitMix64(b) + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
}

}  // namespace dj

#endif  // DJ_COMMON_HASH_H_
