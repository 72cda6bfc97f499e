#ifndef DJ_SRCLINT_SOURCE_SCAN_H_
#define DJ_SRCLINT_SOURCE_SCAN_H_

#include <string>
#include <string_view>
#include <vector>

namespace dj::srclint {

/// What kind of stringly-named project invariant a source reference names.
/// One enumerator per namespace the instrumentation manifest tracks.
enum class RefKind {
  kFault,       // DJ_FAULT("io.read.fail")
  kSched,       // DJ_SCHED_POINT("threadpool.drain")
  kSpan,        // DJ_OBS_SPAN / obs::Span ctor / EmitComplete[OnLane]
  kInstant,     // EmitInstant("watchdog:stall", ...)
  kCounter,     // metrics->GetCounter("executor.runs")
  kGauge,       // metrics->GetGauge("simd.kernel")
  kHistogram,   // metrics->GetHistogram("executor.unit_seconds")
  kSeries,      // spans->EmitCounter("rss_mib", ...) counter tracks
  kLock,        // dj::Mutex member_{"ThreadPool.mutex"} lock classes
  kOp,          // OpSchema("text_length_filter", ...) in src/ops
};

const char* RefKindName(RefKind kind);

/// Parses the spelling used by `srclint-declare(<kind>)` annotations
/// ("counter", "span", ...). Returns false for unknown kinds.
bool RefKindFromName(std::string_view name, RefKind* out);

/// A name the file contributes to the instrumentation manifest. When the
/// source builds the name from a literal head plus runtime parts
/// ("fault." + name), `is_prefix` is set and `name` holds only the head.
struct NameRef {
  RefKind kind;
  int line = 0;
  std::string name;
  bool is_prefix = false;
};

/// A recognized instrumentation call whose name argument does not start
/// with a string literal — the scanner cannot learn the name, so the
/// analyzer demands an inline srclint-declare (or srclint-allow).
struct DynamicNameSite {
  RefKind kind;
  int line = 0;
};

/// One quoted #include directive.
struct Include {
  int line = 0;
  std::string path;
};

/// One use of a banned API token. `check` is the check id the use falls
/// under ("raw-mutex", "raw-output", "determinism").
struct BannedUse {
  int line = 0;
  std::string check;
  std::string token;
};

/// An inline suppression: `// srclint-allow(<check>): <reason>` silences
/// findings of <check> on its own and the following line;
/// `// srclint-allow-file(<check>): <reason>` silences them for the whole
/// file. An optional ` until YYYY-MM-DD` inside the parens expires the
/// waiver: past that date the finding fires again plus an allow-expired
/// warning.
struct Allow {
  int line = 0;
  std::string check;
  bool file_scope = false;
  std::string expires;  // "" or "YYYY-MM-DD"
  std::string reason;
};

/// An inline manifest contribution: `// srclint-declare(<kind>): <name>`
/// for call sites that build names dynamically. A trailing '*' marks a
/// prefix ("io.*"). Declaring a kind also silences dynamic-name findings
/// of that kind in the file (the names are accounted for).
struct Declare {
  int line = 0;
  RefKind kind;
  std::string name;
  bool is_prefix = false;
};

/// A lexical problem (unterminated string/comment, unbalanced brackets,
/// malformed srclint annotation). Any issue fails the analyzer's
/// "parses every file" self-check.
struct ParseIssue {
  int line = 0;
  std::string message;
};

/// Everything the analyzer needs to know about one source file.
struct FileScan {
  std::string path;
  std::vector<Include> includes;
  std::vector<NameRef> names;
  std::vector<DynamicNameSite> dynamic_names;
  std::vector<BannedUse> banned;
  std::vector<Allow> allows;
  std::vector<Declare> declares;
  std::vector<ParseIssue> issues;
};

/// Token-level scan of one C++ source file. Dependency-free and fast: no
/// preprocessing, no AST — comments, strings, and preprocessor lines are
/// lexed properly, and call/declaration context comes from a short token
/// lookback. That is exactly enough to extract the project's stringly
/// named invariants without false hits inside comments or literals.
FileScan ScanSource(std::string path, std::string_view content);

}  // namespace dj::srclint

#endif  // DJ_SRCLINT_SOURCE_SCAN_H_
