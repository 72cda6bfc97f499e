#include "srclint/analyzer.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <filesystem>
#include <set>
#include <utility>

#include "common/file_util.h"
#include "srclint/source_scan.h"

namespace dj::srclint {
namespace {

/// Sends a NameRef (or declare) into the right manifest set.
void AddName(Manifest* m, RefKind kind, std::string name) {
  switch (kind) {
    case RefKind::kFault:
      m->fault_points.push_back(std::move(name));
      break;
    case RefKind::kSched:
      m->sched_points.push_back(std::move(name));
      break;
    case RefKind::kSpan:
      m->spans.push_back(std::move(name));
      break;
    case RefKind::kInstant:
      m->instants.push_back(std::move(name));
      break;
    case RefKind::kCounter:
      m->counters.push_back(std::move(name));
      break;
    case RefKind::kGauge:
      m->gauges.push_back(std::move(name));
      break;
    case RefKind::kHistogram:
      m->histograms.push_back(std::move(name));
      break;
    case RefKind::kSeries:
      m->counter_series.push_back(std::move(name));
      break;
    case RefKind::kLock:
      m->lock_classes.push_back(std::move(name));
      break;
    case RefKind::kOp:
      m->ops.push_back(std::move(name));
      break;
  }
}

const char* BannedHint(std::string_view check) {
  if (check == "raw-mutex") {
    return "use dj::Mutex / dj::MutexLock (common/mutex.h) so lock-order "
           "tracking and sched points see the lock";
  }
  if (check == "raw-output") {
    return "library code must log through DJ_LOG (common/logging.h)";
  }
  return "use a seeded dj:: RNG or an explicit clock parameter; wall-clock "
         "and global RNG break run-to-run determinism";
}

}  // namespace

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kError:
      return "error";
    case Severity::kWarning:
      return "warning";
    case Severity::kNote:
      return "note";
  }
  return "unknown";
}

std::string Finding::ToString() const {
  std::string out = file.empty() ? std::string("(tree)") : file;
  if (line > 0) {
    out += ":";
    out += std::to_string(line);
  }
  out += ": ";
  out += SeverityName(severity);
  out += " [";
  out += check;
  out += "] ";
  out += message;
  if (!hint.empty()) {
    out += "\n    hint: ";
    out += hint;
  }
  return out;
}

json::Value Finding::ToJson() const {
  json::Object o;
  o.Set("severity", SeverityName(severity));
  o.Set("check", check);
  o.Set("file", file);
  o.Set("line", static_cast<int64_t>(line));
  o.Set("message", message);
  o.Set("hint", hint);
  return json::Value(std::move(o));
}

void Report::Add(Finding finding) {
  switch (finding.severity) {
    case Severity::kError:
      ++errors;
      break;
    case Severity::kWarning:
      ++warnings;
      break;
    case Severity::kNote:
      ++notes;
      break;
  }
  findings.push_back(std::move(finding));
}

bool Report::Clean(bool warnings_as_errors) const {
  return errors == 0 && (!warnings_as_errors || warnings == 0);
}

json::Value Report::ToJson() const {
  json::Object o;
  json::Array arr;
  arr.reserve(findings.size());
  for (const Finding& f : findings) arr.push_back(f.ToJson());
  o.Set("findings", json::Value(std::move(arr)));
  o.Set("errors", static_cast<int64_t>(errors));
  o.Set("warnings", static_cast<int64_t>(warnings));
  o.Set("notes", static_cast<int64_t>(notes));
  return json::Value(std::move(o));
}

const std::vector<std::pair<std::string, std::string>>&
DefaultFileAllowlist() {
  static const std::vector<std::pair<std::string, std::string>>* kList =
      new std::vector<std::pair<std::string, std::string>>{
          // The mutex wrapper is where std::mutex is supposed to live.
          {"raw-mutex", "src/common/mutex.h"},
          // The logging sink is the one legitimate stderr writer.
          {"raw-output", "src/common/logging.cc"},
      };
  return *kList;
}

Result<SourceTree> LoadSourceTree(const std::string& root) {
  namespace fs = std::filesystem;
  SourceTree tree;
  fs::path src = fs::path(root) / "src";
  std::error_code ec;
  if (!fs::is_directory(src, ec)) {
    return Status::InvalidArgument("no src/ directory under " + root);
  }
  for (fs::recursive_directory_iterator it(src, ec), end; it != end;
       it.increment(ec)) {
    if (ec) {
      return Status::Internal("walking " + src.string() + ": " + ec.message());
    }
    if (!it->is_regular_file()) continue;
    std::string ext = it->path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    std::string rel =
        fs::relative(it->path(), fs::path(root), ec).generic_string();
    if (ec) {
      return Status::Internal("relativizing " + it->path().string());
    }
    DJ_ASSIGN_OR_RETURN(std::string content,
                        ReadFileToString(it->path().string()));
    tree.files.push_back({std::move(rel), std::move(content)});
  }
  std::sort(tree.files.begin(), tree.files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });

  auto load_optional = [&](const char* rel, bool* has, std::string* out) {
    fs::path p = fs::path(root) / rel;
    std::error_code exists_ec;
    if (!fs::exists(p, exists_ec)) return Status::Ok();
    Result<std::string> content = ReadFileToString(p.string());
    if (!content.ok()) return content.status();
    *has = true;
    *out = std::move(content).value();
    return Status::Ok();
  };
  DJ_RETURN_IF_ERROR(load_optional("srclint/manifest.json",
                                   &tree.has_manifest, &tree.manifest_text));
  DJ_RETURN_IF_ERROR(load_optional("docs/robustness.md", &tree.has_robustness,
                                   &tree.robustness_doc));
  DJ_RETURN_IF_ERROR(load_optional("docs/observability.md",
                                   &tree.has_observability,
                                   &tree.observability_doc));
  return tree;
}

std::string TodayString() {
  std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm_buf{};
  localtime_r(&now, &tm_buf);
  char buf[16];
  std::strftime(buf, sizeof(buf), "%Y-%m-%d", &tm_buf);
  return buf;
}

Report Analyze(const SourceTree& tree, const AnalyzeOptions& options) {
  const LayerPolicy& policy =
      options.policy != nullptr ? *options.policy : LayerPolicy::Default();
  const auto& file_allowlist = options.file_allowlist != nullptr
                                   ? *options.file_allowlist
                                   : DefaultFileAllowlist();
  Report report;
  Manifest m;

  std::vector<LayerEdge> edges;
  std::set<std::pair<std::string, std::string>> edge_seen;
  std::set<std::string> undeclared_layers;

  for (const SourceFile& file : tree.files) {
    FileScan scan = ScanSource(file.path, file.content);

    struct AllowState {
      const Allow* allow;
      bool used = false;
      bool expired = false;
    };
    std::vector<AllowState> allows;
    allows.reserve(scan.allows.size());
    for (const Allow& a : scan.allows) {
      AllowState st{&a};
      if (!a.expires.empty() && !options.today.empty() &&
          options.today > a.expires) {
        st.expired = true;
        report.Add({Severity::kWarning, "allow-expired", file.path, a.line,
                    "srclint-allow(" + a.check + ") expired on " + a.expires,
                    "the waived finding fires again; fix it or renew the "
                    "expiry date"});
      }
      allows.push_back(st);
    }
    // Line allows cover their own line and the next one, so both trailing
    // comments and comment-above placement work.
    auto line_allowed = [&allows](const std::string& check, int line) {
      for (AllowState& st : allows) {
        if (st.expired || st.allow->check != check) continue;
        if (st.allow->file_scope || st.allow->line == line ||
            st.allow->line + 1 == line) {
          st.used = true;
          return true;
        }
      }
      return false;
    };
    auto builtin_allowed = [&](const std::string& check) {
      for (const auto& [c, path] : file_allowlist) {
        if (c == check && path == file.path) return true;
      }
      return false;
    };

    for (const ParseIssue& issue : scan.issues) {
      report.Add({Severity::kError, "parse", file.path, issue.line,
                  issue.message, ""});
    }

    for (const BannedUse& b : scan.banned) {
      if (builtin_allowed(b.check) || line_allowed(b.check, b.line)) continue;
      report.Add({Severity::kError, b.check, file.path, b.line,
                  "banned API '" + b.token + "'", BannedHint(b.check)});
    }

    std::set<RefKind> declared_kinds;
    for (const Declare& d : scan.declares) {
      declared_kinds.insert(d.kind);
      AddName(&m, d.kind, d.is_prefix ? d.name + "*" : d.name);
    }

    for (const NameRef& n : scan.names) {
      AddName(&m, n.kind, n.is_prefix ? n.name + "*" : n.name);
    }

    for (const DynamicNameSite& d : scan.dynamic_names) {
      if (declared_kinds.count(d.kind) != 0) continue;
      if (line_allowed("dynamic-name", d.line)) continue;
      report.Add(
          {Severity::kError, "dynamic-name", file.path, d.line,
           std::string("dynamically built ") + RefKindName(d.kind) +
               " name — the manifest cannot account for it",
           std::string("add '// srclint-declare(") + RefKindName(d.kind) +
               "): <name-or-prefix*>' naming what this site emits"});
    }

    std::string from = LayerOfPath(file.path);
    if (!from.empty()) {
      if (!policy.Knows(from) && undeclared_layers.insert(from).second) {
        report.Add({Severity::kError, "layering", file.path, 0,
                    "layer '" + from + "' is not declared in the layering "
                    "policy",
                    "add it to LayerPolicy::Default() and the DESIGN.md "
                    "table"});
      }
      for (const Include& inc : scan.includes) {
        std::string to = LayerOfInclude(inc.path);
        if (to.empty() || to == from) continue;
        if (edge_seen.insert({from, to}).second) {
          edges.push_back({from, to, file.path, inc.line, inc.path});
        }
        if (!policy.Allowed(from, to) && !line_allowed("layering", inc.line)) {
          report.Add({Severity::kError, "layering", file.path, inc.line,
                      "layer '" + from + "' may not include \"" + inc.path +
                          "\" (layer '" + to + "')",
                      "the layering DAG is in DESIGN.md; extending it is a "
                      "design decision, not a lint fix"});
        }
      }
    }

    for (const AllowState& st : allows) {
      if (st.used || st.expired) continue;
      report.Add({Severity::kNote, "allow-unused", file.path, st.allow->line,
                  "srclint-allow(" + st.allow->check +
                      ") did not match any finding",
                  "remove the annotation if the violation is gone"});
    }
  }

  for (const std::string& cycle : FindLayerCycles(edges)) {
    report.Add({Severity::kError, "include-cycle", "", 0,
                "include cycle between layers: " + cycle,
                "break the cycle by moving the shared piece down the DAG"});
  }

  m.Normalize();
  report.manifest = m;

  if (options.check_manifest) {
    std::string text = m.ToText();
    if (!tree.has_manifest) {
      report.Add({Severity::kError, "manifest-drift", tree.manifest_path, 0,
                  "no committed instrumentation manifest",
                  "run dj_srclint --update-manifest and commit the result"});
    } else if (text != tree.manifest_text) {
      Result<Manifest> committed = Manifest::FromText(tree.manifest_text);
      if (!committed.ok()) {
        report.Add({Severity::kError, "manifest-drift", tree.manifest_path, 0,
                    "committed manifest does not parse: " +
                        committed.status().message(),
                    "run dj_srclint --update-manifest and commit the result"});
      } else {
        std::vector<std::string> diffs = m.DiffAgainst(committed.value());
        constexpr size_t kMaxDiffs = 50;
        for (size_t i = 0; i < diffs.size() && i < kMaxDiffs; ++i) {
          report.Add({Severity::kError, "manifest-drift", tree.manifest_path,
                      0, diffs[i],
                      "run dj_srclint --update-manifest and commit the "
                      "result"});
        }
        if (diffs.size() > kMaxDiffs) {
          report.Add({Severity::kError, "manifest-drift", tree.manifest_path,
                      0,
                      std::to_string(diffs.size() - kMaxDiffs) +
                          " further manifest differences suppressed",
                      ""});
        }
        if (diffs.empty()) {
          report.Add({Severity::kError, "manifest-drift", tree.manifest_path,
                      0,
                      "manifest content matches but serialization differs",
                      "regenerate with dj_srclint --update-manifest"});
        }
      }
    }
  }

  if (options.check_docs) {
    if (!tree.has_robustness) {
      if (!m.fault_points.empty()) {
        report.Add({Severity::kError, "doc-fault", "docs/robustness.md", 0,
                    "fault points exist but docs/robustness.md is missing",
                    ""});
      }
    } else {
      for (const std::string& name : m.fault_points) {
        if (!name.empty() && name.back() == '*') continue;
        if (tree.robustness_doc.find(name) == std::string::npos) {
          report.Add({Severity::kError, "doc-fault", "docs/robustness.md", 0,
                      "fault point '" + name + "' is not documented",
                      "add it to the fault catalogue in docs/robustness.md"});
        }
      }
    }
    std::set<std::string> families;
    auto collect = [&families](const std::vector<std::string>& set) {
      for (const std::string& entry : set) {
        std::string_view name = entry;
        if (!name.empty() && name.back() == '*') name.remove_suffix(1);
        if (name.empty()) continue;
        size_t dot = name.find('.');
        families.insert(std::string(
            dot == std::string_view::npos ? name : name.substr(0, dot)));
      }
    };
    collect(m.counters);
    collect(m.gauges);
    collect(m.histograms);
    if (!tree.has_observability) {
      if (!families.empty()) {
        report.Add({Severity::kError, "doc-metric", "docs/observability.md", 0,
                    "metrics exist but docs/observability.md is missing", ""});
      }
    } else {
      for (const std::string& family : families) {
        std::string needle = family + ".";
        if (tree.observability_doc.find(needle) == std::string::npos &&
            tree.observability_doc.find(family) == std::string::npos) {
          report.Add({Severity::kError, "doc-metric", "docs/observability.md",
                      0,
                      "metric family '" + family + "' is not documented",
                      "add it to docs/observability.md"});
        }
      }
    }
  }

  return report;
}

}  // namespace dj::srclint
