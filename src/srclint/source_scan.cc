#include "srclint/source_scan.h"

#include <cctype>
#include <cstring>
#include <utility>

namespace dj::srclint {
namespace {

/// A significant token. The scanner never builds a full token stream — it
/// keeps a four-token lookback window, which is all the context rules need.
struct Tok {
  enum Kind { kNone, kIdent, kPunct, kString, kNumber };
  Kind kind = kNone;
  std::string text;
};

std::string_view Trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// One open paren/brace group and what we still expect to learn from it.
struct Group {
  char opener = '(';
  int line = 0;
  // Name-extraction state for recognized instrumentation contexts.
  bool recognized = false;
  RefKind kind = RefKind::kFault;
  int name_arg = -1;
  int arg_index = 0;
  bool at_arg_start = true;
  bool captured = false;
  bool is_time_call = false;  // time(...) — for the time(nullptr) ban
  // A head literal waiting for one token of lookahead ('+' => prefix).
  bool pending_literal = false;
  std::string pending_value;
  int pending_line = 0;
};

class Scanner {
 public:
  Scanner(std::string path, std::string_view src)
      : src_(src) {
    out_.path = std::move(path);
  }

  FileScan Run() {
    while (pos_ < src_.size()) {
      Step();
    }
    FinishPending(Tok{});  // EOF resolves a trailing pending literal
    for (const Group& g : groups_) {
      Issue(g.line, std::string("unclosed '") + g.opener + "'");
    }
    return std::move(out_);
  }

 private:
  // --- low-level cursor ----------------------------------------------------
  char Peek(size_t ahead = 0) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }
  void Advance() {
    if (src_[pos_] == '\n') {
      ++line_;
      line_has_token_ = false;
    }
    ++pos_;
  }

  void Issue(int line, std::string message) {
    out_.issues.push_back({line, std::move(message)});
  }

  // --- main dispatch -------------------------------------------------------
  void Step() {
    char c = Peek();
    if (c == '\n' || std::isspace(static_cast<unsigned char>(c))) {
      Advance();
      return;
    }
    if (c == '#' && !line_has_token_) {
      ReadPreprocessor();
      return;
    }
    if (c == '/' && Peek(1) == '/') {
      ReadLineComment();
      return;
    }
    if (c == '/' && Peek(1) == '*') {
      ReadBlockComment();
      return;
    }
    if (c == '"') {
      ReadString(false);
      return;
    }
    if (c == '\'') {
      ReadCharLiteral();
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      ReadNumber();
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      ReadIdentifier();
      return;
    }
    ReadPunct();
  }

  // --- lexers --------------------------------------------------------------
  void ReadPreprocessor() {
    int start_line = line_;
    line_has_token_ = true;
    Advance();  // '#'
    while (Peek() == ' ' || Peek() == '\t') Advance();
    std::string directive;
    while (std::isalpha(static_cast<unsigned char>(Peek()))) {
      directive.push_back(Peek());
      Advance();
    }
    if (directive == "include") {
      while (Peek() == ' ' || Peek() == '\t') Advance();
      if (Peek() == '"') {
        Advance();
        std::string path;
        while (Peek() != '"' && Peek() != '\n' && Peek() != '\0') {
          path.push_back(Peek());
          Advance();
        }
        if (Peek() == '"') {
          out_.includes.push_back({start_line, std::move(path)});
        } else {
          Issue(start_line, "unterminated #include path");
        }
      }
    }
    // Consume the rest of the directive, honoring '\' line continuations
    // (this is what skips #define bodies, including DJ_FAULT's own).
    while (pos_ < src_.size()) {
      if (Peek() == '\\' && (Peek(1) == '\n' ||
                             (Peek(1) == '\r' && Peek(2) == '\n'))) {
        Advance();
        if (Peek() == '\r') Advance();
        Advance();
        continue;
      }
      if (Peek() == '\n') break;
      Advance();
    }
    history_ = {};  // a directive boundary invalidates expression context
  }

  void ReadLineComment() {
    int start_line = line_;
    Advance();
    Advance();
    std::string text;
    while (Peek() != '\n' && Peek() != '\0') {
      text.push_back(Peek());
      Advance();
    }
    // Doc-comment leaders ("///", "//!") reduce to the same text.
    std::string_view body = text;
    while (!body.empty() && (body.front() == '/' || body.front() == '!')) {
      body.remove_prefix(1);
    }
    body = Trim(body);
    if (body.rfind("srclint-", 0) == 0) ParseAnnotation(start_line, body);
  }

  void ReadBlockComment() {
    int start_line = line_;
    Advance();
    Advance();
    while (pos_ < src_.size()) {
      if (Peek() == '*' && Peek(1) == '/') {
        Advance();
        Advance();
        return;
      }
      Advance();
    }
    Issue(start_line, "unterminated block comment");
  }

  void ReadString(bool raw) {
    int start_line = line_;
    line_has_token_ = true;
    std::string value;
    if (raw) {
      // R"delim( ... )delim"
      Advance();  // '"'
      std::string delim;
      while (Peek() != '(' && Peek() != '\n' && Peek() != '\0') {
        delim.push_back(Peek());
        Advance();
      }
      if (Peek() != '(') {
        Issue(start_line, "malformed raw string delimiter");
        return;
      }
      Advance();
      std::string closer = ")" + delim + "\"";
      while (pos_ < src_.size()) {
        if (src_.compare(pos_, closer.size(), closer) == 0) {
          for (size_t i = 0; i < closer.size(); ++i) Advance();
          Emit({Tok::kString, std::move(value)}, start_line);
          return;
        }
        value.push_back(Peek());
        Advance();
      }
      Issue(start_line, "unterminated raw string literal");
      return;
    }
    Advance();  // opening '"'
    while (pos_ < src_.size()) {
      char c = Peek();
      if (c == '\\') {
        value.push_back(c);
        Advance();
        if (pos_ < src_.size()) {
          value.push_back(Peek());
          Advance();
        }
        continue;
      }
      if (c == '\n') break;
      if (c == '"') {
        Advance();
        Emit({Tok::kString, std::move(value)}, start_line);
        return;
      }
      value.push_back(c);
      Advance();
    }
    Issue(start_line, "unterminated string literal");
  }

  void ReadCharLiteral() {
    int start_line = line_;
    line_has_token_ = true;
    Advance();
    while (pos_ < src_.size()) {
      char c = Peek();
      if (c == '\\') {
        Advance();
        if (pos_ < src_.size()) Advance();
        continue;
      }
      if (c == '\n') break;
      if (c == '\'') {
        Advance();
        Emit({Tok::kNumber, "'"}, start_line);
        return;
      }
      Advance();
    }
    Issue(start_line, "unterminated character literal");
  }

  void ReadNumber() {
    int start_line = line_;
    line_has_token_ = true;
    std::string text;
    while (pos_ < src_.size()) {
      char c = Peek();
      bool exponent_sign =
          (c == '+' || c == '-') && !text.empty() &&
          (text.back() == 'e' || text.back() == 'E' ||
           text.back() == 'p' || text.back() == 'P');
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
          c == '\'' || exponent_sign) {
        text.push_back(c);
        Advance();
        continue;
      }
      break;
    }
    Emit({Tok::kNumber, std::move(text)}, start_line);
  }

  void ReadIdentifier() {
    int start_line = line_;
    line_has_token_ = true;
    std::string text;
    while (std::isalnum(static_cast<unsigned char>(Peek())) || Peek() == '_') {
      text.push_back(Peek());
      Advance();
    }
    if (text == "R" && Peek() == '"') {
      ReadString(true);
      return;
    }
    CheckBannedIdent(text, start_line);
    Emit({Tok::kIdent, std::move(text)}, start_line);
  }

  void ReadPunct() {
    int start_line = line_;
    line_has_token_ = true;
    // "::" and "->" are one token, any other byte is its own. The token is
    // built once at its final length: GCC 12 at -O3 reports a false
    // -Wmaybe-uninitialized when a one-byte string is reassigned.
    const char c = Peek();
    const bool pair =
        (c == ':' && Peek(1) == ':') || (c == '-' && Peek(1) == '>');
    std::string text(src_.substr(pos_, pair ? 2 : 1));
    if (pair) Advance();
    Advance();
    Emit({Tok::kPunct, std::move(text)}, start_line);
  }

  // --- token consumer ------------------------------------------------------
  const Tok& Back(size_t n) const {  // n=0 => most recent
    static const Tok kEmpty;
    return n < history_.size() ? history_[history_.size() - 1 - n] : kEmpty;
  }

  void PushHistory(Tok tok) {
    if (history_.size() == 4) history_.erase(history_.begin());
    history_.push_back(std::move(tok));
  }

  void Emit(Tok tok, int tok_line) {
    FinishPending(tok);

    if (tok.kind == Tok::kPunct && tok.text == "(") {
      OpenGroup('(', tok_line);
      PushHistory(std::move(tok));
      return;
    }
    if (tok.kind == Tok::kPunct && tok.text == "{") {
      OpenGroup('{', tok_line);
      PushHistory(std::move(tok));
      return;
    }
    if (tok.kind == Tok::kPunct && (tok.text == ")" || tok.text == "}")) {
      CloseGroup(tok.text[0], tok_line);
      PushHistory(std::move(tok));
      return;
    }

    if (!groups_.empty()) {
      Group& g = groups_.back();
      if (tok.kind == Tok::kPunct && tok.text == ",") {
        ++g.arg_index;
        g.at_arg_start = true;
      } else if (g.at_arg_start) {
        if (g.is_time_call && tok.kind == Tok::kIdent &&
            (tok.text == "nullptr" || tok.text == "NULL")) {
          out_.banned.push_back(
              {tok_line, "determinism", "time(" + tok.text + ")"});
        }
        if (g.recognized && !g.captured && g.arg_index == g.name_arg) {
          if (tok.kind == Tok::kString) {
            g.pending_literal = true;
            g.pending_value = tok.text;
            g.pending_line = tok_line;
          } else {
            out_.dynamic_names.push_back({g.kind, tok_line});
          }
          g.captured = true;
        }
        g.at_arg_start = false;
      }
    }

    PushHistory(std::move(tok));
  }

  /// Resolves a head literal waiting on one token of lookahead: a
  /// following '+' means the name is a prefix the code extends at runtime.
  void FinishPending(const Tok& next) {
    if (groups_.empty()) return;
    Group& g = groups_.back();
    if (!g.pending_literal) return;
    bool is_prefix =
        next.kind == Tok::kPunct && next.text == "+";
    out_.names.push_back(
        {g.kind, g.pending_line, g.pending_value, is_prefix});
    g.pending_literal = false;
  }

  void OpenGroup(char opener, int tok_line) {
    Group g;
    g.opener = opener;
    g.line = tok_line;

    // Context from the lookback window: ctx1 = identifier immediately
    // before the opener, ctx2 = plain-adjacent identifier before ctx1
    // (also reachable through one '::', flagged as qualified).
    std::string ctx1;
    std::string ctx2;
    bool member_call = false;
    bool qualified2 = false;
    if (Back(0).kind == Tok::kIdent) {
      ctx1 = Back(0).text;
      const Tok& before = Back(1);
      if (before.kind == Tok::kPunct &&
          (before.text == "." || before.text == "->")) {
        member_call = true;
      } else if (before.kind == Tok::kIdent) {
        ctx2 = before.text;
      } else if (before.kind == Tok::kPunct && before.text == "::" &&
                 Back(2).kind == Tok::kIdent) {
        ctx2 = Back(2).text;
        qualified2 = true;
      }
    }

    if (opener == '(') {
      if (ctx1 == "DJ_FAULT") {
        g.recognized = true;
        g.kind = RefKind::kFault;
        g.name_arg = 0;
      } else if (ctx1 == "DJ_SCHED_POINT") {
        g.recognized = true;
        g.kind = RefKind::kSched;
        g.name_arg = 0;
      } else if (ctx1 == "DJ_OBS_SPAN") {
        g.recognized = true;
        g.kind = RefKind::kSpan;
        g.name_arg = 0;
      } else if (member_call) {
        if (ctx1 == "EmitInstant") {
          g.recognized = true;
          g.kind = RefKind::kInstant;
          g.name_arg = 0;
        } else if (ctx1 == "EmitComplete" || ctx1 == "EmitCompleteOnLane") {
          g.recognized = true;
          g.kind = RefKind::kSpan;
          g.name_arg = 0;
        } else if (ctx1 == "EmitCounter") {
          g.recognized = true;
          g.kind = RefKind::kSeries;
          g.name_arg = 0;
        } else if (ctx1 == "GetCounter" || ctx1 == "FindCounter") {
          g.recognized = true;
          g.kind = RefKind::kCounter;
          g.name_arg = 0;
        } else if (ctx1 == "GetGauge" || ctx1 == "FindGauge") {
          g.recognized = true;
          g.kind = RefKind::kGauge;
          g.name_arg = 0;
        } else if (ctx1 == "GetHistogram" || ctx1 == "FindHistogram") {
          g.recognized = true;
          g.kind = RefKind::kHistogram;
          g.name_arg = 0;
        }
      } else if (ctx1 == "OpSchema" && !(qualified2 && ctx2 == "OpSchema")) {
        // OpSchema("text_length_filter", kind) names an OP; `OpSchema::
        // OpSchema(` is the constructor's definition.
        g.recognized = true;
        g.kind = RefKind::kOp;
        g.name_arg = 0;
      } else if (ctx2 == "Span" && !qualified2) {
        // obs::Span guard(recorder, <name>, <category>) — variable
        // declarations only; `Span::Span(` definitions come through '::'.
        g.recognized = true;
        g.kind = RefKind::kSpan;
        g.name_arg = 1;
      }
      if (ctx1 == "time") g.is_time_call = true;
    } else {  // '{'
      if (ctx2 == "Mutex" && !qualified2) {
        // dj::Mutex member_{"Class.member"} — the lock-class literal.
        g.recognized = true;
        g.kind = RefKind::kLock;
        g.name_arg = 0;
      }
    }
    groups_.push_back(std::move(g));
  }

  void CloseGroup(char closer, int tok_line) {
    char want_opener = closer == ')' ? '(' : '{';
    if (groups_.empty() || groups_.back().opener != want_opener) {
      if (issue_budget_ > 0) {
        --issue_budget_;
        Issue(tok_line, std::string("unbalanced '") + closer + "'");
      }
      return;
    }
    groups_.pop_back();
  }

  // --- banned-API idents ---------------------------------------------------
  void CheckBannedIdent(const std::string& ident, int tok_line) {
    bool std_qualified = Back(0).kind == Tok::kPunct && Back(0).text == "::" &&
                         Back(1).kind == Tok::kIdent && Back(1).text == "std";
    bool member = Back(0).kind == Tok::kPunct &&
                  (Back(0).text == "." || Back(0).text == "->");
    if (std_qualified) {
      if (ident == "mutex" || ident == "lock_guard" ||
          ident == "scoped_lock" || ident == "unique_lock") {
        out_.banned.push_back({tok_line, "raw-mutex", "std::" + ident});
        return;
      }
      if (ident == "cerr" || ident == "cout") {
        out_.banned.push_back({tok_line, "raw-output", "std::" + ident});
        return;
      }
      if (ident == "random_device") {
        out_.banned.push_back({tok_line, "determinism", "std::" + ident});
        return;
      }
    }
    if (member) return;  // obj->printf(...) is someone else's method
    if (ident == "printf" || ident == "fprintf" || ident == "puts" ||
        ident == "fputs") {
      out_.banned.push_back({tok_line, "raw-output", ident});
      return;
    }
    if (ident == "rand" || ident == "srand") {
      out_.banned.push_back({tok_line, "determinism", ident + "()"});
    }
  }

  // --- srclint annotations -------------------------------------------------
  void ParseAnnotation(int tok_line, std::string_view body) {
    bool file_scope = false;
    std::string_view rest;
    enum { kAllow, kDeclare } which;
    if (body.rfind("srclint-allow-file(", 0) == 0) {
      which = kAllow;
      file_scope = true;
      rest = body.substr(std::strlen("srclint-allow-file("));
    } else if (body.rfind("srclint-allow(", 0) == 0) {
      which = kAllow;
      rest = body.substr(std::strlen("srclint-allow("));
    } else if (body.rfind("srclint-declare(", 0) == 0) {
      which = kDeclare;
      rest = body.substr(std::strlen("srclint-declare("));
    } else {
      Issue(tok_line, "malformed srclint annotation: " + std::string(body));
      return;
    }
    size_t close = rest.find(')');
    if (close == std::string_view::npos || close + 1 >= rest.size() ||
        rest[close + 1] != ':') {
      Issue(tok_line,
            "malformed srclint annotation (want '(<arg>): <text>'): " +
                std::string(body));
      return;
    }
    std::string_view arg = Trim(rest.substr(0, close));
    std::string_view text = Trim(rest.substr(close + 2));
    if (text.empty()) {
      Issue(tok_line, "srclint annotation missing text after ':': " +
                          std::string(body));
      return;
    }
    if (which == kDeclare) {
      RefKind kind;
      if (!RefKindFromName(arg, &kind)) {
        Issue(tok_line,
              "srclint-declare with unknown kind '" + std::string(arg) + "'");
        return;
      }
      bool is_prefix = !text.empty() && text.back() == '*';
      if (is_prefix) text.remove_suffix(1);
      out_.declares.push_back(
          {tok_line, kind, std::string(text), is_prefix});
      return;
    }
    Allow allow;
    allow.line = tok_line;
    allow.file_scope = file_scope;
    allow.reason = std::string(text);
    size_t until = arg.find(" until ");
    if (until != std::string_view::npos) {
      allow.check = std::string(Trim(arg.substr(0, until)));
      allow.expires =
          std::string(Trim(arg.substr(until + std::strlen(" until "))));
      if (allow.expires.size() != 10) {
        Issue(tok_line, "srclint-allow expiry must be YYYY-MM-DD: " +
                            std::string(body));
        return;
      }
    } else {
      allow.check = std::string(arg);
    }
    if (allow.check.empty()) {
      Issue(tok_line, "srclint-allow with empty check id");
      return;
    }
    out_.allows.push_back(std::move(allow));
  }

  std::string_view src_;
  size_t pos_ = 0;
  int line_ = 1;
  bool line_has_token_ = false;
  int issue_budget_ = 8;  // unbalanced-bracket reports before going quiet

  std::vector<Tok> history_;
  std::vector<Group> groups_;

  FileScan out_;
};

}  // namespace

const char* RefKindName(RefKind kind) {
  switch (kind) {
    case RefKind::kFault:
      return "fault";
    case RefKind::kSched:
      return "sched";
    case RefKind::kSpan:
      return "span";
    case RefKind::kInstant:
      return "instant";
    case RefKind::kCounter:
      return "counter";
    case RefKind::kGauge:
      return "gauge";
    case RefKind::kHistogram:
      return "histogram";
    case RefKind::kSeries:
      return "series";
    case RefKind::kLock:
      return "lock";
    case RefKind::kOp:
      return "op";
  }
  return "unknown";
}

bool RefKindFromName(std::string_view name, RefKind* out) {
  static constexpr std::pair<std::string_view, RefKind> kKinds[] = {
      {"fault", RefKind::kFault},         {"sched", RefKind::kSched},
      {"span", RefKind::kSpan},           {"instant", RefKind::kInstant},
      {"counter", RefKind::kCounter},     {"gauge", RefKind::kGauge},
      {"histogram", RefKind::kHistogram}, {"series", RefKind::kSeries},
      {"lock", RefKind::kLock},           {"op", RefKind::kOp},
  };
  for (const auto& [spelling, kind] : kKinds) {
    if (name == spelling) {
      *out = kind;
      return true;
    }
  }
  return false;
}

FileScan ScanSource(std::string path, std::string_view content) {
  return Scanner(std::move(path), content).Run();
}

}  // namespace dj::srclint
