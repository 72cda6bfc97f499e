#include "ops/mappers/clean_mappers.h"

#include <cctype>

#include "common/string_util.h"

namespace dj::ops {
namespace {

bool IsEmailLocalChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '.' || c == '_' ||
         c == '%' || c == '+' || c == '-';
}

bool IsDomainChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '.' || c == '-';
}

/// Returns [begin,end) byte range of an email around the '@' at `at`, or
/// begin==end when the context is not a plausible address.
std::pair<size_t, size_t> EmailSpan(std::string_view s, size_t at) {
  size_t begin = at;
  while (begin > 0 && IsEmailLocalChar(s[begin - 1])) --begin;
  if (begin == at) return {at, at};
  size_t end = at + 1;
  while (end < s.size() && IsDomainChar(s[end])) ++end;
  // Trim trailing dots/hyphens.
  while (end > at + 1 && (s[end - 1] == '.' || s[end - 1] == '-')) --end;
  std::string_view domain = s.substr(at + 1, end - at - 1);
  size_t last_dot = domain.rfind('.');
  if (last_dot == std::string_view::npos || last_dot + 2 > domain.size()) {
    return {at, at};
  }
  // TLD must be alphabetic and >= 2 chars.
  for (size_t i = last_dot + 1; i < domain.size(); ++i) {
    if (!std::isalpha(static_cast<unsigned char>(domain[i]))) return {at, at};
  }
  if (domain.size() - last_dot - 1 < 2) return {at, at};
  return {begin, end};
}

bool LooksLikeCommentRun(std::string_view line) {
  std::string_view t = StripAsciiWhitespace(line);
  return StartsWith(t, "//") || StartsWith(t, "#") || StartsWith(t, "*") ||
         StartsWith(t, ";;");
}

bool MentionsCopyright(std::string_view block) {
  std::string lower = AsciiToLower(block);
  return Contains(lower, "copyright") || Contains(lower, "license") ||
         Contains(lower, "(c)") || Contains(lower, "all rights reserved");
}

}  // namespace

// ------------------------------------------------- CleanCopyrightMapper --

const OpDeclaration& CleanCopyrightMapper::Declaration() {
  static const OpDeclaration d =
      Declare(OpSchema("clean_copyright_mapper", OpKind::kMapper));
  return d;
}

CleanCopyrightMapper::CleanCopyrightMapper(const json::Value& config)
    : Mapper(Declaration(), config) {}

Result<std::string> CleanCopyrightMapper::TransformText(
    std::string_view input) const {
  size_t start = 0;
  while (start < input.size() &&
         std::isspace(static_cast<unsigned char>(input[start]))) {
    ++start;
  }
  std::string_view body = input.substr(start);
  // Case 1: /* ... */ block at the top.
  if (StartsWith(body, "/*")) {
    size_t close = body.find("*/");
    if (close != std::string_view::npos) {
      std::string_view block = body.substr(0, close + 2);
      if (MentionsCopyright(block)) {
        std::string_view rest = body.substr(close + 2);
        while (!rest.empty() && (rest.front() == '\n' || rest.front() == '\r')) {
          rest.remove_prefix(1);
        }
        return std::string(input.substr(0, start)) + std::string(rest);
      }
    }
    return std::string(input);
  }
  // Case 2: run of //-style comment lines at the top.
  if (LooksLikeCommentRun(body)) {
    size_t pos = 0;
    size_t block_end = 0;
    std::string_view remaining = body;
    while (!remaining.empty()) {
      size_t nl = remaining.find('\n');
      std::string_view line =
          nl == std::string_view::npos ? remaining : remaining.substr(0, nl);
      if (!LooksLikeCommentRun(line) && !StripAsciiWhitespace(line).empty()) {
        break;
      }
      size_t advance = nl == std::string_view::npos ? remaining.size() : nl + 1;
      pos += advance;
      if (LooksLikeCommentRun(line)) block_end = pos;
      if (nl == std::string_view::npos) break;
      remaining = body.substr(pos);
      if (StripAsciiWhitespace(line).empty()) break;
    }
    std::string_view block = body.substr(0, block_end);
    if (MentionsCopyright(block)) {
      return std::string(input.substr(0, start)) +
             std::string(body.substr(block_end));
    }
  }
  return std::string(input);
}

// ----------------------------------------------------- CleanEmailMapper --

const OpDeclaration& CleanEmailMapper::Declaration() {
  static const OpDeclaration d =
      Declare(OpSchema("clean_email_mapper", OpKind::kMapper)
                  .Str("repl", "", "replacement for removed addresses"));
  return d;
}

CleanEmailMapper::CleanEmailMapper(const json::Value& config)
    : Mapper(Declaration(), config), repl_(Param<std::string>("repl")) {}

Result<std::string> CleanEmailMapper::TransformText(
    std::string_view input) const {
  std::string out;
  out.reserve(input.size());
  size_t copied = 0;
  size_t i = 0;
  while ((i = input.find('@', i)) != std::string_view::npos) {
    auto [begin, end] = EmailSpan(input, i);
    if (begin == end) {
      ++i;
      continue;
    }
    out.append(input.substr(copied, begin - copied));
    out.append(repl_);
    copied = end;
    i = end;
  }
  out.append(input.substr(copied));
  return out;
}

// ------------------------------------------------------ CleanHtmlMapper --

const OpDeclaration& CleanHtmlMapper::Declaration() {
  static const OpDeclaration d =
      Declare(OpSchema("clean_html_mapper", OpKind::kMapper));
  return d;
}

CleanHtmlMapper::CleanHtmlMapper(const json::Value& config)
    : Mapper(Declaration(), config) {}

Result<std::string> CleanHtmlMapper::TransformText(
    std::string_view input) const {
  std::string out;
  out.reserve(input.size());
  size_t i = 0;
  auto skip_block = [&](std::string_view open_tag, std::string_view close_tag,
                        size_t* pos) -> bool {
    // Case-insensitive prefix match for "<script"/"<style".
    if (pos == nullptr) return false;
    std::string lower_head =
        AsciiToLower(input.substr(*pos, open_tag.size()));
    if (lower_head != open_tag) return false;
    std::string lower_all = AsciiToLower(input.substr(*pos));
    size_t close = lower_all.find(close_tag);
    if (close == std::string::npos) {
      *pos = input.size();
    } else {
      *pos += close + close_tag.size();
    }
    return true;
  };
  while (i < input.size()) {
    char c = input[i];
    if (c == '<') {
      if (skip_block("<script", "</script>", &i)) continue;
      if (skip_block("<style", "</style>", &i)) continue;
      size_t close = input.find('>', i);
      if (close == std::string_view::npos) {
        ++i;
        continue;
      }
      std::string tag = AsciiToLower(input.substr(i + 1, close - i - 1));
      if (StartsWith(tag, "br") || StartsWith(tag, "/p") ||
          StartsWith(tag, "/div") || StartsWith(tag, "/li") ||
          StartsWith(tag, "/h1") || StartsWith(tag, "/h2") ||
          StartsWith(tag, "/h3") || StartsWith(tag, "/tr")) {
        out.push_back('\n');
      }
      i = close + 1;
      continue;
    }
    if (c == '&') {
      static constexpr std::pair<std::string_view, std::string_view>
          kEntities[] = {{"&amp;", "&"},  {"&lt;", "<"},    {"&gt;", ">"},
                         {"&quot;", "\""}, {"&#39;", "'"},  {"&apos;", "'"},
                         {"&nbsp;", " "},  {"&mdash;", "-"}, {"&ndash;", "-"},
                         {"&hellip;", "..."}};
      bool replaced = false;
      for (const auto& [from, to] : kEntities) {
        if (input.substr(i, from.size()) == from) {
          out.append(to);
          i += from.size();
          replaced = true;
          break;
        }
      }
      if (replaced) continue;
    }
    out.push_back(c);
    ++i;
  }
  return out;
}

// -------------------------------------------------------- CleanIpMapper --

const OpDeclaration& CleanIpMapper::Declaration() {
  static const OpDeclaration d =
      Declare(OpSchema("clean_ip_mapper", OpKind::kMapper)
                  .Str("repl", "", "replacement for removed addresses"));
  return d;
}

CleanIpMapper::CleanIpMapper(const json::Value& config)
    : Mapper(Declaration(), config), repl_(Param<std::string>("repl")) {}

Result<std::string> CleanIpMapper::TransformText(std::string_view input) const {
  std::string out;
  out.reserve(input.size());
  size_t i = 0;
  while (i < input.size()) {
    if (std::isdigit(static_cast<unsigned char>(input[i])) &&
        (i == 0 || (!std::isdigit(static_cast<unsigned char>(input[i - 1])) &&
                    input[i - 1] != '.'))) {
      // Try to match d{1,3}(.d{1,3}){3} with octets <= 255.
      size_t p = i;
      int octets = 0;
      bool valid = true;
      while (octets < 4) {
        int digits = 0, value = 0;
        while (p < input.size() && digits < 3 &&
               std::isdigit(static_cast<unsigned char>(input[p]))) {
          value = value * 10 + (input[p] - '0');
          ++p;
          ++digits;
        }
        if (digits == 0 || value > 255) {
          valid = false;
          break;
        }
        ++octets;
        if (octets < 4) {
          if (p < input.size() && input[p] == '.') {
            ++p;
          } else {
            valid = false;
            break;
          }
        }
      }
      // Reject when followed by more digits/dots (e.g. version strings of
      // five components).
      if (valid && p < input.size() &&
          (std::isdigit(static_cast<unsigned char>(input[p])) ||
           input[p] == '.')) {
        valid = false;
      }
      if (valid) {
        out.append(repl_);
        i = p;
        continue;
      }
    }
    out.push_back(input[i]);
    ++i;
  }
  return out;
}

// ----------------------------------------------------- CleanLinksMapper --

const OpDeclaration& CleanLinksMapper::Declaration() {
  static const OpDeclaration d =
      Declare(OpSchema("clean_links_mapper", OpKind::kMapper)
                  .Str("repl", "", "replacement for removed links"));
  return d;
}

CleanLinksMapper::CleanLinksMapper(const json::Value& config)
    : Mapper(Declaration(), config), repl_(Param<std::string>("repl")) {}

Result<std::string> CleanLinksMapper::TransformText(
    std::string_view input) const {
  static constexpr std::string_view kPrefixes[] = {"http://", "https://",
                                                   "ftp://", "www."};
  std::string out;
  out.reserve(input.size());
  size_t i = 0;
  while (i < input.size()) {
    size_t match_len = 0;
    for (std::string_view prefix : kPrefixes) {
      if (input.substr(i, prefix.size()) == prefix) {
        match_len = prefix.size();
        break;
      }
    }
    // "www." must begin a token to avoid chopping inside words.
    if (match_len > 0 && input[i] == 'w' && i > 0 &&
        !std::isspace(static_cast<unsigned char>(input[i - 1])) &&
        input[i - 1] != '(' && input[i - 1] != '<' && input[i - 1] != '[') {
      match_len = 0;
    }
    if (match_len == 0) {
      out.push_back(input[i]);
      ++i;
      continue;
    }
    size_t end = i + match_len;
    while (end < input.size()) {
      char c = input[end];
      if (std::isspace(static_cast<unsigned char>(c)) || c == '"' ||
          c == '\'' || c == '<' || c == '>' || c == ')' || c == ']' ||
          c == '}') {
        break;
      }
      ++end;
    }
    // Trailing punctuation stays in the text ("see http://x.com.").
    while (end > i + match_len &&
           (input[end - 1] == '.' || input[end - 1] == ',' ||
            input[end - 1] == ';' || input[end - 1] == '!' ||
            input[end - 1] == '?')) {
      --end;
    }
    out.append(repl_);
    i = end;
  }
  return out;
}

}  // namespace dj::ops
