#ifndef DJ_OPS_REGISTRY_H_
#define DJ_OPS_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "json/value.h"
#include "ops/op_base.h"

namespace dj::ops {

/// Factory registry mapping OP names to their declarations and
/// constructors. Built-in OPs are registered explicitly by
/// RegisterBuiltinOps (no static-initializer magic, which is fragile with
/// static libraries); users register their own OPs the same way — the
/// paper's "Advanced Extension" path.
class OpRegistry {
 public:
  /// Process-wide registry with all built-in OPs registered.
  static OpRegistry& Global();

  /// Registers OP class T: its declaration T::Declaration() (schema: name,
  /// kind, params with defaults and ranges; effects) under the schema's
  /// name, instantiated as T(config). The registry keeps a pointer to that
  /// function-local static, the same one T's constructor passes to Op.
  /// Re-registering a name replaces the entry (useful for tests); a warning
  /// is logged.
  template <typename T>
  void Register() {
    Register(&T::Declaration(),
             [](const json::Value& config) -> Result<std::unique_ptr<Op>> {
               return std::unique_ptr<Op>(new T(config));
             });
  }

  /// Instantiates the OP `name` with `config` (a JSON object of params).
  Result<std::unique_ptr<Op>> Create(std::string_view name,
                                     const json::Value& config) const;

  std::vector<std::string> Names() const;

  /// Declaration of `name`, or nullptr when no such OP is registered.
  const OpDeclaration* Find(std::string_view name) const;
  /// Every registered declaration, in registration order.
  std::vector<const OpDeclaration*> Declarations() const;

 private:
  using Factory =
      std::function<Result<std::unique_ptr<Op>>(const json::Value& config)>;

  void Register(const OpDeclaration* declaration, Factory factory);

  struct Entry {
    const OpDeclaration* declaration;
    Factory factory;
  };
  std::vector<Entry> entries_;
};

/// Registers every built-in OP into `registry`. Idempotent.
void RegisterBuiltinOps(OpRegistry* registry);

}  // namespace dj::ops

#endif  // DJ_OPS_REGISTRY_H_
