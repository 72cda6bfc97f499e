#ifndef DJ_OPS_MAPPERS_CLEAN_MAPPERS_H_
#define DJ_OPS_MAPPERS_CLEAN_MAPPERS_H_

#include <vector>

#include "ops/op_base.h"

namespace dj::ops {

/// clean_copyright_mapper: removes a leading comment block (/* */ or runs of
/// //, #, * lines) when it mentions copyright/license — the boilerplate
/// header of source files (paper OP example: "clean copyright").
/// Params: none beyond text_key.
class CleanCopyrightMapper : public Mapper {
 public:
  static const OpDeclaration& Declaration();
  explicit CleanCopyrightMapper(const json::Value& config);
  Result<std::string> TransformText(std::string_view input) const override;
};

/// clean_email_mapper: removes email addresses.
/// Params: repl (string, default "").
class CleanEmailMapper : public Mapper {
 public:
  static const OpDeclaration& Declaration();
  explicit CleanEmailMapper(const json::Value& config);
  Result<std::string> TransformText(std::string_view input) const override;

 private:
  std::string repl_;
};

/// clean_html_mapper: strips HTML markup — drops <script>/<style> blocks,
/// turns <br> and block-level closes into newlines, removes remaining tags,
/// unescapes common entities.
class CleanHtmlMapper : public Mapper {
 public:
  static const OpDeclaration& Declaration();
  explicit CleanHtmlMapper(const json::Value& config);
  Result<std::string> TransformText(std::string_view input) const override;
};

/// clean_ip_mapper: removes IPv4 addresses (each octet <= 255).
/// Params: repl (string, default "").
class CleanIpMapper : public Mapper {
 public:
  static const OpDeclaration& Declaration();
  explicit CleanIpMapper(const json::Value& config);
  Result<std::string> TransformText(std::string_view input) const override;

 private:
  std::string repl_;
};

/// clean_links_mapper: removes http(s)/ftp URLs and www.-prefixed links.
/// Params: repl (string, default "").
class CleanLinksMapper : public Mapper {
 public:
  static const OpDeclaration& Declaration();
  explicit CleanLinksMapper(const json::Value& config);
  Result<std::string> TransformText(std::string_view input) const override;

 private:
  std::string repl_;
};

}  // namespace dj::ops

#endif  // DJ_OPS_MAPPERS_CLEAN_MAPPERS_H_
