#ifndef DJ_JSON_VALUE_H_
#define DJ_JSON_VALUE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace dj::json {

class Value;

/// Ordered object representation. Insertion order is preserved so that
/// serialized recipes and samples round-trip stably (important for
/// config-hash based caching).
class Object {
 public:
  using Entry = std::pair<std::string, Value>;

  Object();
  Object(const Object&);
  Object(Object&&) noexcept;
  Object& operator=(const Object&);
  Object& operator=(Object&&) noexcept;
  ~Object();

  /// Returns the value for `key`, or nullptr.
  const Value* Find(std::string_view key) const;
  Value* Find(std::string_view key);

  bool Contains(std::string_view key) const { return Find(key) != nullptr; }

  /// Inserts or overwrites.
  void Set(std::string key, Value value);

  /// Inserts keeping keys in lexicographic order (overwrites in place).
  /// Used for the "stats" object so its serialized form, which is part of
  /// the exported bytes, is independent of the order OPs computed the
  /// stats in.
  void SetSorted(std::string key, Value value);

  /// Removes `key` if present; returns whether it was present.
  bool Erase(std::string_view key);

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  const std::vector<Entry>& entries() const { return entries_; }
  std::vector<Entry>& entries() { return entries_; }

  friend bool operator==(const Object& a, const Object& b);

 private:
  std::vector<Entry> entries_;
};

using Array = std::vector<Value>;

/// JSON value: null / bool / int64 / double / string / array / object.
/// Integers and doubles are kept distinct (token counts must not silently
/// become floats).
class Value {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}                // NOLINT
  Value(bool b) : data_(b) {}                              // NOLINT
  Value(int i) : data_(static_cast<int64_t>(i)) {}         // NOLINT
  Value(int64_t i) : data_(i) {}                           // NOLINT
  Value(uint64_t i) : data_(static_cast<int64_t>(i)) {}    // NOLINT
  Value(double d) : data_(d) {}                            // NOLINT
  Value(const char* s) : data_(std::string(s)) {}          // NOLINT
  Value(std::string s) : data_(std::move(s)) {}            // NOLINT
  Value(std::string_view s) : data_(std::string(s)) {}     // NOLINT
  Value(Array a) : data_(std::move(a)) {}                  // NOLINT
  Value(Object o) : data_(std::move(o)) {}                 // NOLINT

  Type type() const { return static_cast<Type>(data_.index()); }

  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_int() const { return type() == Type::kInt; }
  bool is_double() const { return type() == Type::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  bool as_bool() const { return std::get<bool>(data_); }
  int64_t as_int() const { return std::get<int64_t>(data_); }
  double as_double() const {
    if (is_int()) return static_cast<double>(std::get<int64_t>(data_));
    return std::get<double>(data_);
  }
  const std::string& as_string() const { return std::get<std::string>(data_); }
  std::string& as_string() { return std::get<std::string>(data_); }
  const Array& as_array() const { return std::get<Array>(data_); }
  Array& as_array() { return std::get<Array>(data_); }
  const Object& as_object() const { return std::get<Object>(data_); }
  Object& as_object() { return std::get<Object>(data_); }

  /// Convenience lookups with defaults for config-style access; they return
  /// the default when the value is not an object, the key is missing, or the
  /// type does not match.
  bool GetBool(std::string_view key, bool def) const;
  int64_t GetInt(std::string_view key, int64_t def) const;
  double GetDouble(std::string_view key, double def) const;
  std::string GetString(std::string_view key, std::string_view def) const;

  friend bool operator==(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

 private:
  std::variant<std::nullptr_t, bool, int64_t, double, std::string, Array,
               Object>
      data_;
};

}  // namespace dj::json

#endif  // DJ_JSON_VALUE_H_
