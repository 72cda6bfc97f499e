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
  FingerprintBuilder fp;
  for (unsigned char c : data) fp.Add(c);
  return fp.Finish();
}

std::string FingerprintHex(const Fingerprint128& fp) {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(fp.hi),
                static_cast<unsigned long long>(fp.lo));
  return std::string(buf);
}

}  // namespace dj
