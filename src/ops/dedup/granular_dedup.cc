#include "ops/dedup/granular_dedup.h"

#include <cctype>
#include <unordered_set>

#include "common/hash.h"
#include "common/string_util.h"
#include "obs/span.h"
#include "ops/dedup/minhash.h"
#include "text/sentence.h"
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

Status GranularDeduplicatorBase::ComputeHash(data::RowRef row) {
  std::vector<Unit>& units = units_[row.row()];
  const json::Value* v = row.Get(text_key());
  if (v == nullptr || !v->is_string()) return Status::Ok();
  for (const std::string& unit : SplitUnits(v->as_string())) {
    // Fnv1a64 of the unit trimmed and ASCII-lowercased, folded inline.
    uint64_t hash = kFnv1a64Offset;
    for (char c : StripAsciiWhitespace(unit)) {
      hash ^= static_cast<unsigned char>(
          std::tolower(static_cast<unsigned char>(c)));
      hash *= kFnv1a64Prime;
    }
    units.push_back({hash,
                     text::CodepointCount(unit) >=
                         static_cast<size_t>(min_unit_length_),
                     false});
  }
  return Status::Ok();
}

Result<data::Dataset> GranularDeduplicatorBase::Deduplicate(
    data::Dataset dataset, ThreadPool* pool,
    std::vector<DuplicatePair>* pairs) {
  size_t n = dataset.NumRows();
  units_.assign(n, {});
  {
    DJ_OBS_SPAN("granular_dedup.compute_hashes");
    DJ_RETURN_IF_ERROR(ForEachIndex(
        pool, n, [&](size_t i) { return ComputeHash(dataset.Row(i)); }));
  }
  DJ_OBS_SPAN("granular_dedup.rewrite_units");
  // Serial walk over the hashes alone, rows then units in order: the first
  // occurrence of each unit wins, later ones are marked for removal.
  size_t total_units = 0;
  for (const std::vector<Unit>& units : units_) total_units += units.size();
  std::unordered_set<uint64_t> seen;
  seen.reserve(total_units);
  std::vector<size_t> keep_rows;
  std::vector<size_t> rewrite_rows;
  keep_rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    size_t duplicates = 0;
    for (Unit& unit : units_[i]) {
      unit.duplicate = unit.eligible && !seen.insert(unit.hash).second;
      if (unit.duplicate) ++duplicates;
    }
    if (duplicates == 0) {
      keep_rows.push_back(i);
    } else if (duplicates < units_[i].size()) {
      keep_rows.push_back(i);
      rewrite_rows.push_back(i);
    } else if (pairs != nullptr) {
      // Whole sample was duplicate boilerplate; report against itself. The
      // row is dropped.
      pairs->push_back({i, i, 1.0});
    }
  }
  // Rebuild the changed rows in parallel from their surviving units.
  DJ_RETURN_IF_ERROR(ForEachIndex(pool, rewrite_rows.size(), [&](size_t k) {
    data::RowRef row = dataset.Row(rewrite_rows[k]);
    const std::vector<Unit>& units = units_[rewrite_rows[k]];
    std::vector<std::string> texts = SplitUnits(row.GetText(text_key()));
    std::string rebuilt;
    size_t kept = 0;
    for (size_t u = 0; u < texts.size(); ++u) {
      if (units[u].duplicate) continue;
      if (kept++ > 0) rebuilt.append(Joiner());
      rebuilt += texts[u];
    }
    return row.Set(text_key(), json::Value(std::move(rebuilt)));
  }));
  return std::move(dataset).TakeSelect(keep_rows);
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
    std::string_view text) const {
  return text::SplitParagraphs(text);
}

const OpDeclaration& SentenceExactDeduplicator::Declaration() {
  static const OpDeclaration d = Declare(
      OpSchema("sentence_exact_deduplicator", OpKind::kDeduplicator));
  return d;
}

SentenceExactDeduplicator::SentenceExactDeduplicator(const json::Value& config)
    : GranularDeduplicatorBase(Declaration(), config) {}

std::vector<std::string> SentenceExactDeduplicator::SplitUnits(
    std::string_view text) const {
  return text::SplitSentences(text);
}

}  // namespace dj::ops
