#include "ops/registry.h"

#include "common/logging.h"
#include "ops/dedup/document_dedup.h"
#include "ops/dedup/granular_dedup.h"
#include "ops/filters/field_filters.h"
#include "ops/filters/lexicon_filters.h"
#include "ops/filters/model_filters.h"
#include "ops/filters/stats_filters.h"
#include "ops/formatters/formatters.h"
#include "ops/mappers/clean_mappers.h"
#include "ops/mappers/latex_mappers.h"
#include "ops/mappers/text_mappers.h"

namespace dj::ops {

OpRegistry& OpRegistry::Global() {
  static OpRegistry* registry = [] {
    auto* r = new OpRegistry();
    RegisterBuiltinOps(r);
    return r;
  }();
  return *registry;
}

void OpRegistry::Register(const OpDeclaration* declaration, Factory factory) {
  const std::string& name = declaration->schema.op_name();
  for (Entry& entry : entries_) {
    if (entry.declaration->schema.op_name() == name) {
      DJ_LOG(Warning) << "re-registering OP '" << name << "'";
      entry = {declaration, std::move(factory)};
      return;
    }
  }
  entries_.push_back({declaration, std::move(factory)});
}

Result<std::unique_ptr<Op>> OpRegistry::Create(
    std::string_view name, const json::Value& config) const {
  for (const Entry& entry : entries_) {
    if (entry.declaration->schema.op_name() == name) {
      return entry.factory(config);
    }
  }
  return Status::NotFound("unknown OP '" + std::string(name) +
                          "' (see OpRegistry::Names)");
}

std::vector<std::string> OpRegistry::Names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    out.push_back(entry.declaration->schema.op_name());
  }
  return out;
}

const OpDeclaration* OpRegistry::Find(std::string_view name) const {
  for (const Entry& entry : entries_) {
    if (entry.declaration->schema.op_name() == name) return entry.declaration;
  }
  return nullptr;
}

std::vector<const OpDeclaration*> OpRegistry::Declarations() const {
  std::vector<const OpDeclaration*> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) out.push_back(entry.declaration);
  return out;
}

void RegisterBuiltinOps(OpRegistry* r) {
  // Formatters (6).
  r->Register<JsonlFormatter>();
  r->Register<JsonFormatter>();
  r->Register<TxtFormatter>();
  r->Register<CsvFormatter>();
  r->Register<TsvFormatter>();
  r->Register<CodeFormatter>();

  // Mappers (20).
  r->Register<CleanCopyrightMapper>();
  r->Register<CleanEmailMapper>();
  r->Register<CleanHtmlMapper>();
  r->Register<CleanIpMapper>();
  r->Register<CleanLinksMapper>();
  r->Register<ExpandMacroMapper>();
  r->Register<FixUnicodeMapper>();
  r->Register<LowerCaseMapper>();
  r->Register<PunctuationNormalizationMapper>();
  r->Register<RemoveBibliographyMapper>();
  r->Register<RemoveCommentsMapper>();
  r->Register<RemoveHeaderMapper>();
  r->Register<RemoveLongWordsMapper>();
  r->Register<RemoveRepeatSentencesMapper>();
  r->Register<RemoveSpecificCharsMapper>();
  r->Register<RemoveTableTextMapper>();
  r->Register<RemoveWordsWithIncorrectSubstringsMapper>();
  r->Register<SentenceSplitMapper>();
  r->Register<WhitespaceNormalizationMapper>();
  r->Register<ChineseConvertMapper>();

  // Filters (22).
  r->Register<AlphanumericFilter>();
  r->Register<AverageLineLengthFilter>();
  r->Register<CharacterRepetitionFilter>();
  r->Register<MaximumLineLengthFilter>();
  r->Register<SpecialCharactersFilter>();
  r->Register<TextLengthFilter>();
  r->Register<TokenNumFilter>();
  r->Register<WordNumFilter>();
  r->Register<WordRepetitionFilter>();
  r->Register<ParagraphNumFilter>();
  r->Register<SentenceNumFilter>();
  r->Register<FlaggedWordsFilter>();
  r->Register<StopwordsFilter>();
  r->Register<TextActionFilter>();
  r->Register<TextEntityDependencyFilter>();
  r->Register<LanguageIdScoreFilter>();
  r->Register<PerplexityFilter>();
  r->Register<QualityScoreFilter>();
  r->Register<SuffixFilter>();
  r->Register<SpecifiedFieldFilter>();
  r->Register<SpecifiedNumericFieldFilter>();
  r->Register<FieldExistsFilter>();

  // Deduplicators (6).
  r->Register<DocumentExactDeduplicator>();
  r->Register<DocumentMinHashDeduplicator>();
  r->Register<DocumentSimHashDeduplicator>();
  r->Register<ParagraphExactDeduplicator>();
  r->Register<SentenceExactDeduplicator>();
  r->Register<NgramOverlapDeduplicator>();
}

}  // namespace dj::ops
