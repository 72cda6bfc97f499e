#ifndef DJ_DATA_DATASET_H_
#define DJ_DATA_DATASET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/sample.h"
#include "json/value.h"

namespace dj::data {

class Dataset;

/// Zero-copy view of one row of a columnar Dataset. Path access resolves the
/// first segment to a column and the remainder inside the cell value, giving
/// the nested "text.instruction" addressing of the paper without
/// materializing row objects.
class RowRef {
 public:
  RowRef(Dataset* dataset, size_t row) : dataset_(dataset), row_(row) {}

  size_t row() const { return row_; }

  /// Nested lookup; nullptr when the column or nested key is absent.
  const json::Value* Get(std::string_view dot_path) const;
  json::Value* GetMutable(std::string_view dot_path);

  /// Writes `value` at `dot_path`. The first path segment must name an
  /// existing column (use Dataset::EnsureColumn before parallel sections);
  /// nested objects inside the cell are created as needed.
  Status Set(std::string_view dot_path, json::Value value);

  /// The string at `dot_path`, or "" when missing / not a string.
  std::string_view GetText(std::string_view dot_path = kTextField) const;

  /// The numeric value at `dot_path`, or `def`.
  double GetNumber(std::string_view dot_path, double def = 0.0) const;

 private:
  Dataset* dataset_;
  size_t row_;
};

/// Column-oriented in-memory dataset: the unified intermediate representation
/// (paper Sec. 4.1), standing in for HuggingFace-datasets/Arrow. Cells are
/// JSON values; top-level fields ("text", "meta", "stats", ...) are columns.
class Dataset {
 public:
  Dataset() = default;

  Dataset(const Dataset&) = default;
  Dataset(Dataset&&) noexcept = default;
  Dataset& operator=(const Dataset&) = default;
  Dataset& operator=(Dataset&&) noexcept = default;

  /// Builds a columnar dataset from row objects; the column set is the union
  /// of all top-level keys, missing cells become null.
  static Dataset FromSamples(std::vector<Sample> samples);

  /// Builds a single-column ("text") dataset.
  static Dataset FromTexts(std::vector<std::string> texts);

  /// Builds a dataset directly from named columns (the fast path of the
  /// binary codec: no per-row object churn). All columns must have the same
  /// length and names must be unique.
  static Result<Dataset> FromColumns(
      std::vector<std::string> names,
      std::vector<std::vector<json::Value>> columns);

  size_t NumRows() const { return num_rows_; }
  size_t NumColumns() const { return columns_.size(); }
  bool Empty() const { return num_rows_ == 0; }

  std::vector<std::string> ColumnNames() const;
  bool HasColumn(std::string_view name) const;

  /// Adds an all-null column if absent. Metadata-only when present.
  void EnsureColumn(std::string_view name);

  /// Renames a column; metadata-only (the "lazy" unification of Sec. 7).
  Status RenameColumn(std::string_view from, std::string_view to);

  /// Direct cell access. Row/column must exist.
  const json::Value& Cell(std::string_view column, size_t row) const;
  json::Value* MutableCell(std::string_view column, size_t row);

  /// Full column access; nullptr when absent.
  const std::vector<json::Value>* Column(std::string_view name) const;

  RowRef Row(size_t row) { return RowRef(this, row); }

  /// Const nested lookup without a row view: value at `dot_path` in `row`,
  /// or nullptr.
  const json::Value* GetPath(size_t row, std::string_view dot_path) const;
  /// String at `dot_path` in `row`, or "".
  std::string_view GetTextAt(size_t row,
                             std::string_view dot_path = kTextField) const;
  /// Number at `dot_path` in `row`, or `def`.
  double GetNumberAt(size_t row, std::string_view dot_path,
                     double def = 0.0) const;
  /// Materializes row `row` into a Sample copy.
  Sample MaterializeRow(size_t row) const;
  /// Appends one row from a Sample (missing columns are added).
  void AppendSample(const Sample& sample);

  /// Returns a dataset with rows at `indices` (in the given order).
  Dataset Select(const std::vector<size_t>& indices) const;

  /// Move counterpart of Select for consumed datasets: cells at `indices`
  /// are moved out instead of copied. `indices` must be strictly increasing
  /// (each source row consumed at most once). `*this` is left empty.
  Dataset TakeSelect(const std::vector<size_t>& indices) &&;

  /// Returns rows [begin, end).
  Dataset Slice(size_t begin, size_t end) const;

  /// Appends all rows of `other` (column union, missing cells null).
  void Concat(const Dataset& other);

  /// Move counterpart: `other`'s cells are moved in (it is left empty).
  /// Used by the parallel data plane to gather per-chunk partial datasets
  /// without re-copying every cell.
  void Concat(Dataset&& other);

  /// Approximate heap footprint in bytes (cells + column metadata); used by
  /// the end-to-end resource benchmarks.
  uint64_t ApproxMemoryBytes() const;

  /// Materializes all rows (for tests and small tools).
  std::vector<Sample> ToSamples() const;

 private:
  friend class RowRef;

  struct ColumnData {
    std::string name;
    std::vector<json::Value> cells;
  };

  ColumnData* FindColumn(std::string_view name);
  const ColumnData* FindColumn(std::string_view name) const;

  std::vector<ColumnData> columns_;
  size_t num_rows_ = 0;
};

/// Approximate recursive heap size of a JSON value in bytes.
uint64_t ApproxValueBytes(const json::Value& v);

}  // namespace dj::data

#endif  // DJ_DATA_DATASET_H_
