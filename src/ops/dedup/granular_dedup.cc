#include "ops/dedup/granular_dedup.h"

#include <optional>
#include <unordered_set>

#include "common/hash.h"
#include "common/string_util.h"
#include "obs/span.h"
#include "text/utf8.h"

namespace dj::ops {

GranularDeduplicatorBase::GranularDeduplicatorBase(
    const OpDeclaration& declaration, const json::Value& config)
    : Deduplicator(declaration, config),
      min_unit_length_(Param<int64_t>("min_unit_length")) {}

OpDeclaration GranularDeduplicatorBase::Declare(OpSchema schema) {
  return {std::move(schema.Int(
              "min_unit_length", 8, 0, kParamInf,
              "units shorter than this many bytes are never deduped")),
          OpEffects().Reads("@text_key").Writes("@text_key")};
}

Status GranularDeduplicatorBase::ComputeHash(data::RowRef row,
                                             SampleContext* ctx) {
  const json::Value* v = row.Get(text_key());
  std::string_view text =
      (v != nullptr && v->is_string()) ? std::string_view(v->as_string())
                                       : std::string_view();
  std::optional<SampleContext> local;
  if (ctx == nullptr) {
    local.emplace(text);
    ctx = &*local;
  }
  std::vector<uint64_t> hashes;
  for (const std::string& unit : SplitUnits(ctx)) {
    std::string key = AsciiToLower(StripAsciiWhitespace(unit));
    hashes.push_back(Fnv1a64(key));
  }
  unit_hashes_[row.row()] = std::move(hashes);
  return Status::Ok();
}

Result<data::Dataset> GranularDeduplicatorBase::Deduplicate(
    data::Dataset dataset, ThreadPool* pool,
    std::vector<DuplicatePair>* pairs) {
  size_t n = dataset.NumRows();
  unit_hashes_.assign(n, {});
  {
    DJ_OBS_SPAN("granular_dedup.compute_hashes");
    if (pool != nullptr && pool->num_threads() > 1) {
      pool->ParallelFor(n, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          ComputeHash(dataset.Row(i), nullptr);
        }
      });
    } else {
      for (size_t i = 0; i < n; ++i) ComputeHash(dataset.Row(i), nullptr);
    }
  }
  // Sequential pass: first occurrence of each unit wins, later ones are
  // removed from their samples.
  DJ_OBS_SPAN("granular_dedup.rewrite_units");
  std::unordered_set<uint64_t> seen;
  std::vector<size_t> keep_rows;
  keep_rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    data::RowRef row = dataset.Row(i);
    const json::Value* v = row.Get(text_key());
    if (v == nullptr || !v->is_string()) {
      keep_rows.push_back(i);
      continue;
    }
    SampleContext ctx(v->as_string());
    std::vector<std::string> units = SplitUnits(&ctx);
    const std::vector<uint64_t>& hashes = unit_hashes_[i];
    std::string rebuilt;
    bool changed = false;
    size_t kept_units = 0;
    for (size_t u = 0; u < units.size(); ++u) {
      bool is_dup = false;
      if (text::CodepointCount(units[u]) >=
          static_cast<size_t>(min_unit_length_)) {
        is_dup = !seen.insert(hashes[u]).second;
      }
      if (is_dup) {
        changed = true;
        continue;
      }
      if (kept_units > 0) rebuilt.append(Joiner());
      rebuilt += units[u];
      ++kept_units;
    }
    if (!changed) {
      keep_rows.push_back(i);
      continue;
    }
    if (kept_units == 0) {
      if (pairs != nullptr) {
        // Whole sample was duplicate boilerplate; report against itself.
        pairs->push_back({i, i, 1.0});
      }
      continue;  // drop empty sample
    }
    DJ_RETURN_IF_ERROR(row.Set(text_key(), json::Value(std::move(rebuilt))));
    keep_rows.push_back(i);
  }
  return dataset.Select(keep_rows);
}

const OpDeclaration& ParagraphExactDeduplicator::Declaration() {
  static const OpDeclaration d = Declare(
      OpSchema("paragraph_exact_deduplicator", OpKind::kDeduplicator));
  return d;
}

ParagraphExactDeduplicator::ParagraphExactDeduplicator(
    const json::Value& config)
    : GranularDeduplicatorBase(Declaration(), config) {}

std::vector<std::string> ParagraphExactDeduplicator::SplitUnits(
    SampleContext* ctx) const {
  return ctx->Paragraphs();
}

const OpDeclaration& SentenceExactDeduplicator::Declaration() {
  static const OpDeclaration d = Declare(
      OpSchema("sentence_exact_deduplicator", OpKind::kDeduplicator));
  return d;
}

SentenceExactDeduplicator::SentenceExactDeduplicator(const json::Value& config)
    : GranularDeduplicatorBase(Declaration(), config) {}

std::vector<std::string> SentenceExactDeduplicator::SplitUnits(
    SampleContext* ctx) const {
  return ctx->Sentences();
}

}  // namespace dj::ops
