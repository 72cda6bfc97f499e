#ifndef DJ_TEXT_NORMALIZE_H_
#define DJ_TEXT_NORMALIZE_H_

#include <string>
#include <string_view>

namespace dj::text {

/// Normalizes whitespace. The whitespace set is ' ', '\t', '\f', '\v', '\r',
/// '\n', U+00A0, U+2000-U+200B and U+3000. Rules:
///   - every '\r' is dropped first;
///   - a run of whitespace without '\n' between two other characters on one
///     line becomes one ' ';
///   - whitespace at the start or end of a line is dropped, and so is every
///     newline before the first other character (leading blank lines);
///   - newlines with only whitespace between them form a run: a run of one
///     becomes "\n", a run of 2 or more (3+ included) becomes "\n\n";
///   - whitespace at the end of the input is dropped, newlines included.
/// Every other byte is kept as is, invalid UTF-8 included. The kernel copies
/// the runs the rules leave unchanged in bulk, and looks at multi-byte
/// whitespace only at the lead bytes 0xC2, 0xE2 and 0xE3.
std::string NormalizeWhitespace(std::string_view s);

/// Maps common unicode punctuation to ASCII equivalents: curly quotes to
/// straight quotes, en/em dashes to '-', ellipsis to "...", fullwidth ASCII
/// to halfwidth, NBSP to space.
std::string NormalizePunctuation(std::string_view s);

/// Repairs mojibake-style artifacts ("messy code rectification"): fixes the
/// common UTF-8-read-as-Latin-1 sequences for quotes, dashes and NBSP, then
/// drops invalid UTF-8 (byte by byte), U+FFFD, controls other than \n and
/// \t, DEL, the BOM and U+200B-U+200F. One pass: kept bytes are copied in
/// spans, and only non-ASCII bytes are decoded.
std::string FixUnicode(std::string_view s);

/// Removes every occurrence of the characters in `chars` (a UTF-8 string
/// treated as a set of codepoints).
std::string RemoveChars(std::string_view s, std::string_view chars);

}  // namespace dj::text

#endif  // DJ_TEXT_NORMALIZE_H_
