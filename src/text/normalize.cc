#include "text/normalize.h"

#include <array>
#include <unordered_set>
#include <vector>

#include "common/swar.h"
#include "text/utf8.h"

namespace dj::text {

namespace {

// Byte classes of NormalizeWhitespace. kLead marks the lead bytes of the
// multi-byte whitespace: U+00A0 (C2 A0), U+2000-U+200B (E2 80 80-8B) and
// U+3000 (E3 80 80).
enum : uint8_t { kKept = 0, kBlank, kNewline, kCr, kLead };

constexpr std::array<uint8_t, 256> kWhitespaceClass = [] {
  std::array<uint8_t, 256> t{};
  for (unsigned char c : {' ', '\t', '\f', '\v'}) t[c] = kBlank;
  t['\n'] = kNewline;
  t['\r'] = kCr;
  for (unsigned char c : {0xC2, 0xE2, 0xE3}) t[c] = kLead;
  return t;
}();

/// Length of the multi-byte whitespace codepoint at p[0], a kLead byte, or 0
/// when the bytes there encode anything else.
size_t MultiByteBlankLength(const unsigned char* p, size_t avail) {
  if (p[0] == 0xC2) return avail >= 2 && p[1] == 0xA0 ? 2 : 0;
  if (avail < 3 || p[1] != 0x80) return 0;
  if (p[0] == 0xE2) return p[2] >= 0x80 && p[2] <= 0x8B ? 3 : 0;
  return p[2] == 0x80 ? 3 : 0;
}

}  // namespace

std::string NormalizeWhitespace(std::string_view s) {
  // Only ASCII whitespace and kLead bytes act; every other byte, invalid
  // UTF-8 included, is kept as is. A kLead byte, like an ASCII byte, is
  // never a continuation byte, so a codepoint-at-a-time decode starts at
  // each of them: matching multi-byte whitespace only there finds all of it.
  const auto* p = reinterpret_cast<const unsigned char*>(s.data());
  const size_t n = s.size();
  std::string out;
  out.reserve(n);
  int pending_newlines = 0;
  bool pending_space = false;
  bool at_line_start = true;
  size_t i = 0;
  while (i < n) {
    size_t blank_length = 1;
    switch (kWhitespaceClass[p[i]]) {
      case kNewline:
        ++pending_newlines;
        pending_space = false;
        at_line_start = true;
        ++i;
        continue;
      case kCr:
        ++i;
        continue;
      case kLead:
        blank_length = MultiByteBlankLength(p + i, n - i);
        if (blank_length == 0) break;
        [[fallthrough]];
      case kBlank:
        if (!at_line_start) pending_space = true;
        i += blank_length;
        continue;
      default:
        break;
    }
    if (pending_newlines > 0) {
      if (!out.empty()) out.append(pending_newlines >= 2 ? "\n\n" : "\n");
      pending_newlines = 0;
    } else if (pending_space) {
      out.push_back(' ');
    }
    pending_space = false;
    at_line_start = false;
    // After a kept byte, the bytes the rules leave unchanged go out in one
    // copy: kept bytes, and a lone ' ', '\n' or "\n\n" between two of them.
    size_t end = i + 1 + swar::WhitespaceCleanSpan(s.data() + i + 1, n - i - 1);
    out.append(s.data() + i, end - i);
    i = end;
  }
  return out;
}

std::string NormalizePunctuation(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  size_t pos = 0;
  while (pos < s.size()) {
    size_t start = pos;
    uint32_t cp;
    DecodeUtf8(s, &pos, &cp);
    switch (cp) {
      case 0x2018:  // ' left single quote
      case 0x2019:  // ' right single quote
      case 0x201A:
      case 0x2032:
        out.push_back('\'');
        break;
      case 0x201C:  // " left double quote
      case 0x201D:  // " right double quote
      case 0x201E:
      case 0x2033:
        out.push_back('"');
        break;
      case 0x2013:  // en dash
      case 0x2014:  // em dash
      case 0x2015:
      case 0x2212:  // minus sign
        out.push_back('-');
        break;
      case 0x2026:  // ellipsis
        out.append("...");
        break;
      case 0x00A0:  // NBSP
        out.push_back(' ');
        break;
      case 0x00B7:  // middle dot
        out.push_back('.');
        break;
      default:
        // Fullwidth ASCII block FF01..FF5E maps to 0x21..0x7E.
        if (cp >= 0xFF01 && cp <= 0xFF5E) {
          out.push_back(static_cast<char>(cp - 0xFF01 + 0x21));
        } else {
          out.append(s.substr(start, pos - start));
        }
    }
  }
  return out;
}

namespace {

// The UTF-8-read-as-Latin-1 sequences FixUnicode repairs. Each starts with
// 0xC3, holds no other 0xC3 and no ASCII byte: two matches cannot overlap
// and a replacement (one ASCII byte) cannot take part in a new one, so one
// left-to-right scan gives what replacing each sequence in turn would.
struct Mojibake {
  std::string_view from;
  char to;
};
constexpr Mojibake kMojibake[] = {
    {"\xC3\xA2\xE2\x82\xAC\xE2\x84\xA2", '\''},  // â€™
    {"\xC3\xA2\xE2\x82\xAC\xC5\x93", '"'},       // â€œ
    {"\xC3\xA2\xE2\x82\xAC\xC2\x9D", '"'},       // â€<9d>
    {"\xC3\xA2\xE2\x82\xAC\xE2\x80\x9C", '-'},   // â€“
    {"\xC3\x82\xC2\xA0", ' '},                   // Â<nbsp>
};

const Mojibake* MatchMojibake(std::string_view rest) {
  for (const Mojibake& m : kMojibake) {
    if (rest.starts_with(m.from)) return &m;
  }
  return nullptr;
}

bool IsDroppedCodepoint(uint32_t cp) {
  return cp == 0xFFFD || cp == 0xFEFF || (cp >= 0x200B && cp <= 0x200F);
}

}  // namespace

std::string FixUnicode(std::string_view s) {
  // Kept bytes go out in spans; a span ends at a byte that is dropped or
  // starts a repaired sequence. Repairs come first, then the drop rules:
  // invalid UTF-8, U+FFFD, controls other than \n and \t, DEL, BOM and
  // U+200B-U+200F. A decode never spans a 0xC3 or an ASCII byte, so it reads
  // the same bytes whether or not a repair follows it.
  const size_t n = s.size();
  std::string out;
  out.reserve(n);
  size_t kept_from = 0;
  size_t i = 0;
  while (i < n) {
    i += swar::AsciiTextSpan(s.data() + i, n - i);
    if (i == n) break;
    const size_t at = i;
    const auto b = static_cast<unsigned char>(s[i]);
    if (b < 0x80) {
      ++i;  // a control other than \n and \t, or DEL
    } else {
      const Mojibake* repair = b == 0xC3 ? MatchMojibake(s.substr(i)) : nullptr;
      if (repair != nullptr) {
        out.append(s, kept_from, at - kept_from);
        out.push_back(repair->to);
        i += repair->from.size();
        kept_from = i;
        continue;
      }
      uint32_t cp;
      if (DecodeUtf8(s, &i, &cp) && !IsDroppedCodepoint(cp)) continue;
    }
    out.append(s, kept_from, at - kept_from);
    kept_from = i;
  }
  out.append(s, kept_from, n - kept_from);
  return out;
}

std::string RemoveChars(std::string_view s, std::string_view chars) {
  std::unordered_set<uint32_t> drop;
  {
    size_t pos = 0;
    uint32_t cp;
    while (pos < chars.size()) {
      DecodeUtf8(chars, &pos, &cp);
      drop.insert(cp);
    }
  }
  std::string out;
  out.reserve(s.size());
  size_t pos = 0;
  while (pos < s.size()) {
    size_t start = pos;
    uint32_t cp;
    DecodeUtf8(s, &pos, &cp);
    if (drop.count(cp) > 0) continue;
    out.append(s.substr(start, pos - start));
  }
  return out;
}

}  // namespace dj::text
