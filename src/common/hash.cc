#include "common/hash.h"

#include <cstdio>

namespace dj {

uint64_t Fnv1a64(std::string_view data, uint64_t seed) {
  uint64_t h = seed;
  for (unsigned char c : data) {
    h ^= c;
    h *= kFnv1a64Prime;
  }
  return h;
}

Fingerprint128 Fingerprint(std::string_view data) {
  Fingerprint128 fp;
  fp.lo = SplitMix64(Fnv1a64(data, kFnv1a64Offset));
  fp.hi = SplitMix64(Fnv1a64(data, 0x9e3779b97f4a7c15ULL) ^ data.size());
  return fp;
}

std::string FingerprintHex(const Fingerprint128& fp) {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(fp.hi),
                static_cast<unsigned long long>(fp.lo));
  return std::string(buf);
}

uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (SplitMix64(b) + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
}

}  // namespace dj
