#ifndef DJ_OPS_MAPPERS_LATEX_MAPPERS_H_
#define DJ_OPS_MAPPERS_LATEX_MAPPERS_H_

#include <string>
#include <vector>

#include "ops/op_base.h"

namespace dj::ops {

/// expand_macro_mapper: inlines simple LaTeX \newcommand / \def macros that
/// take no arguments, so downstream filters see the expanded text (paper OP
/// usage: LaTeX source files).
class ExpandMacroMapper : public Mapper {
 public:
  static const OpDeclaration& Declaration();
  explicit ExpandMacroMapper(const json::Value& config);
  Result<std::string> TransformText(std::string_view input) const override;
};

/// remove_bibliography_mapper: truncates the document at the bibliography
/// (\begin{thebibliography}, \bibliography{...}, or a "References" heading).
class RemoveBibliographyMapper : public Mapper {
 public:
  static const OpDeclaration& Declaration();
  explicit RemoveBibliographyMapper(const json::Value& config);
  Result<std::string> TransformText(std::string_view input) const override;
};

/// remove_comments_mapper: removes LaTeX % line comments (keeping escaped
/// \%); with param `inline_only=false` whole comment lines are dropped and
/// trailing comments trimmed.
class RemoveCommentsMapper : public Mapper {
 public:
  static const OpDeclaration& Declaration();
  explicit RemoveCommentsMapper(const json::Value& config);
  Result<std::string> TransformText(std::string_view input) const override;
};

/// remove_header_mapper: drops the LaTeX preamble — everything before
/// \begin{document} when present, otherwise leading \documentclass /
/// \usepackage / \title / \author / \maketitle lines. With param
/// `drop_no_head=true` (default) documents without any recognizable header
/// are kept unchanged.
class RemoveHeaderMapper : public Mapper {
 public:
  static const OpDeclaration& Declaration();
  explicit RemoveHeaderMapper(const json::Value& config);
  Result<std::string> TransformText(std::string_view input) const override;
};

/// remove_table_text_mapper: removes table-like runs of lines — LaTeX
/// tabular environments and plain-text tables (lines dominated by '|', '&',
/// or aligned number columns), which read as noise to language models.
class RemoveTableTextMapper : public Mapper {
 public:
  static const OpDeclaration& Declaration();
  explicit RemoveTableTextMapper(const json::Value& config);
  Result<std::string> TransformText(std::string_view input) const override;

 private:
  int64_t min_col_count_;
};

}  // namespace dj::ops

#endif  // DJ_OPS_MAPPERS_LATEX_MAPPERS_H_
