#include "data/dataset.h"

#include <cassert>
#include <iterator>

namespace dj::data {

// ---------------------------------------------------------------- RowRef --

const json::Value* RowRef::Get(std::string_view dot_path) const {
  size_t dot = dot_path.find('.');
  std::string_view head =
      dot == std::string_view::npos ? dot_path : dot_path.substr(0, dot);
  const Dataset::ColumnData* col = dataset_->FindColumn(head);
  if (col == nullptr) return nullptr;
  const json::Value* cell = &col->cells[row_];
  if (dot == std::string_view::npos) return cell;
  if (!cell->is_object()) return nullptr;
  return FindPath(cell->as_object(), dot_path.substr(dot + 1));
}

json::Value* RowRef::GetMutable(std::string_view dot_path) {
  return const_cast<json::Value*>(
      static_cast<const RowRef*>(this)->Get(dot_path));
}

Status RowRef::Set(std::string_view dot_path, json::Value value) {
  size_t dot = dot_path.find('.');
  std::string_view head =
      dot == std::string_view::npos ? dot_path : dot_path.substr(0, dot);
  Dataset::ColumnData* col = dataset_->FindColumn(head);
  if (col == nullptr) {
    return Status::NotFound("column '" + std::string(head) +
                            "' does not exist; call EnsureColumn first");
  }
  json::Value* cell = &col->cells[row_];
  if (dot == std::string_view::npos) {
    *cell = std::move(value);
    return Status::Ok();
  }
  if (!cell->is_object()) {
    if (!cell->is_null()) {
      return Status::InvalidArgument("cell '" + std::string(head) +
                                     "' is not an object");
    }
    *cell = json::Value(json::Object());
  }
  if (!SetPath(cell->as_object(), dot_path.substr(dot + 1),
               std::move(value))) {
    return Status::InvalidArgument("non-object segment in path '" +
                                   std::string(dot_path) + "'");
  }
  return Status::Ok();
}

std::string_view RowRef::GetText(std::string_view dot_path) const {
  const json::Value* v = Get(dot_path);
  if (v == nullptr || !v->is_string()) return {};
  return v->as_string();
}

double RowRef::GetNumber(std::string_view dot_path, double def) const {
  const json::Value* v = Get(dot_path);
  if (v == nullptr || !v->is_number()) return def;
  return v->as_double();
}

Sample RowRef::Materialize() const { return dataset_->MaterializeRow(row_); }

// --------------------------------------------------------------- Dataset --

Dataset Dataset::FromSamples(std::vector<Sample> samples) {
  Dataset ds;
  for (const Sample& s : samples) ds.AppendSample(s);
  return ds;
}

Dataset Dataset::FromTexts(std::vector<std::string> texts) {
  Dataset ds;
  ColumnData col;
  col.name = std::string(kTextField);
  col.cells.reserve(texts.size());
  for (auto& t : texts) col.cells.emplace_back(std::move(t));
  ds.num_rows_ = col.cells.size();
  ds.columns_.push_back(std::move(col));
  return ds;
}

std::vector<std::string> Dataset::ColumnNames() const {
  std::vector<std::string> names;
  names.reserve(columns_.size());
  for (const auto& c : columns_) names.push_back(c.name);
  return names;
}

bool Dataset::HasColumn(std::string_view name) const {
  return FindColumn(name) != nullptr;
}

void Dataset::EnsureColumn(std::string_view name) {
  if (FindColumn(name) != nullptr) return;
  ColumnData col;
  col.name = std::string(name);
  col.cells.assign(num_rows_, json::Value(nullptr));
  columns_.push_back(std::move(col));
}

Status Dataset::RenameColumn(std::string_view from, std::string_view to) {
  if (FindColumn(to) != nullptr) {
    return Status::AlreadyExists("column '" + std::string(to) + "' exists");
  }
  ColumnData* col = FindColumn(from);
  if (col == nullptr) {
    return Status::NotFound("column '" + std::string(from) + "' not found");
  }
  col->name = std::string(to);
  return Status::Ok();
}

const json::Value& Dataset::Cell(std::string_view column, size_t row) const {
  const ColumnData* col = FindColumn(column);
  assert(col != nullptr && row < num_rows_);
  return col->cells[row];
}

json::Value* Dataset::MutableCell(std::string_view column, size_t row) {
  ColumnData* col = FindColumn(column);
  if (col == nullptr || row >= num_rows_) return nullptr;
  return &col->cells[row];
}

const std::vector<json::Value>* Dataset::Column(std::string_view name) const {
  const ColumnData* col = FindColumn(name);
  return col == nullptr ? nullptr : &col->cells;
}

const json::Value* Dataset::GetPath(size_t row,
                                    std::string_view dot_path) const {
  size_t dot = dot_path.find('.');
  std::string_view head =
      dot == std::string_view::npos ? dot_path : dot_path.substr(0, dot);
  const ColumnData* col = FindColumn(head);
  if (col == nullptr || row >= num_rows_) return nullptr;
  const json::Value* cell = &col->cells[row];
  if (dot == std::string_view::npos) return cell;
  if (!cell->is_object()) return nullptr;
  return FindPath(cell->as_object(), dot_path.substr(dot + 1));
}

std::string_view Dataset::GetTextAt(size_t row,
                                    std::string_view dot_path) const {
  const json::Value* v = GetPath(row, dot_path);
  if (v == nullptr || !v->is_string()) return {};
  return v->as_string();
}

double Dataset::GetNumberAt(size_t row, std::string_view dot_path,
                            double def) const {
  const json::Value* v = GetPath(row, dot_path);
  if (v == nullptr || !v->is_number()) return def;
  return v->as_double();
}

Sample Dataset::MaterializeRow(size_t row) const {
  json::Object fields;
  for (const auto& col : columns_) {
    if (col.cells[row].is_null()) continue;
    fields.Set(col.name, col.cells[row]);
  }
  return Sample(std::move(fields));
}

void Dataset::AppendSample(const Sample& sample) {
  // Extend existing columns with this row's values (or null).
  for (auto& col : columns_) {
    const json::Value* v = sample.fields().Find(col.name);
    col.cells.push_back(v != nullptr ? *v : json::Value(nullptr));
  }
  // Any new top-level keys become new columns, backfilled with nulls.
  for (const auto& [key, value] : sample.fields().entries()) {
    if (FindColumn(key) != nullptr) continue;
    ColumnData col;
    col.name = key;
    col.cells.assign(num_rows_, json::Value(nullptr));
    col.cells.push_back(value);
    columns_.push_back(std::move(col));
  }
  ++num_rows_;
}

Dataset Dataset::Select(const std::vector<size_t>& indices) const {
  Dataset out;
  out.num_rows_ = indices.size();
  out.columns_.reserve(columns_.size());
  for (const auto& col : columns_) {
    ColumnData nc;
    nc.name = col.name;
    nc.cells.reserve(indices.size());
    for (size_t idx : indices) {
      assert(idx < num_rows_);
      nc.cells.push_back(col.cells[idx]);
    }
    out.columns_.push_back(std::move(nc));
  }
  return out;
}

Dataset Dataset::TakeSelect(const std::vector<size_t>& indices) && {
  Dataset out;
  out.num_rows_ = indices.size();
  out.columns_.reserve(columns_.size());
  for (auto& col : columns_) {
    ColumnData nc;
    nc.name = std::move(col.name);
    nc.cells.reserve(indices.size());
    for (size_t idx : indices) {
      assert(idx < num_rows_);
      nc.cells.push_back(std::move(col.cells[idx]));
    }
    out.columns_.push_back(std::move(nc));
  }
  columns_.clear();
  num_rows_ = 0;
  return out;
}

Result<Dataset> Dataset::FromColumns(
    std::vector<std::string> names,
    std::vector<std::vector<json::Value>> columns) {
  if (names.size() != columns.size()) {
    return Status::InvalidArgument("FromColumns: names/columns size mismatch");
  }
  Dataset ds;
  ds.num_rows_ = columns.empty() ? 0 : columns.front().size();
  ds.columns_.reserve(names.size());
  for (size_t c = 0; c < names.size(); ++c) {
    if (columns[c].size() != ds.num_rows_) {
      return Status::InvalidArgument("FromColumns: ragged column '" +
                                     names[c] + "'");
    }
    if (ds.FindColumn(names[c]) != nullptr) {
      return Status::InvalidArgument("FromColumns: duplicate column '" +
                                     names[c] + "'");
    }
    ColumnData col;
    col.name = std::move(names[c]);
    col.cells = std::move(columns[c]);
    ds.columns_.push_back(std::move(col));
  }
  return ds;
}

Dataset Dataset::Slice(size_t begin, size_t end) const {
  if (end > num_rows_) end = num_rows_;
  if (begin > end) begin = end;
  std::vector<size_t> indices;
  indices.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) indices.push_back(i);
  return Select(indices);
}

void Dataset::Concat(const Dataset& other) {
  // Pad columns missing on either side with nulls.
  for (auto& col : columns_) {
    const ColumnData* oc = other.FindColumn(col.name);
    if (oc != nullptr) {
      col.cells.insert(col.cells.end(), oc->cells.begin(), oc->cells.end());
    } else {
      col.cells.resize(col.cells.size() + other.num_rows_,
                       json::Value(nullptr));
    }
  }
  for (const auto& oc : other.columns_) {
    if (FindColumn(oc.name) != nullptr) continue;
    ColumnData nc;
    nc.name = oc.name;
    nc.cells.assign(num_rows_, json::Value(nullptr));
    nc.cells.insert(nc.cells.end(), oc.cells.begin(), oc.cells.end());
    columns_.push_back(std::move(nc));
  }
  num_rows_ += other.num_rows_;
}

void Dataset::Concat(Dataset&& other) {
  for (auto& col : columns_) {
    ColumnData* oc = other.FindColumn(col.name);
    if (oc != nullptr) {
      col.cells.insert(col.cells.end(),
                       std::make_move_iterator(oc->cells.begin()),
                       std::make_move_iterator(oc->cells.end()));
    } else {
      col.cells.resize(col.cells.size() + other.num_rows_,
                       json::Value(nullptr));
    }
  }
  for (auto& oc : other.columns_) {
    if (FindColumn(oc.name) != nullptr) continue;
    ColumnData nc;
    nc.name = std::move(oc.name);
    nc.cells.assign(num_rows_, json::Value(nullptr));
    nc.cells.insert(nc.cells.end(),
                    std::make_move_iterator(oc.cells.begin()),
                    std::make_move_iterator(oc.cells.end()));
    columns_.push_back(std::move(nc));
  }
  num_rows_ += other.num_rows_;
  other.columns_.clear();
  other.num_rows_ = 0;
}

uint64_t ApproxValueBytes(const json::Value& v) {
  constexpr uint64_t kBase = sizeof(json::Value);
  switch (v.type()) {
    case json::Value::Type::kString:
      return kBase + v.as_string().capacity();
    case json::Value::Type::kArray: {
      uint64_t total = kBase;
      for (const auto& e : v.as_array()) total += ApproxValueBytes(e);
      return total;
    }
    case json::Value::Type::kObject: {
      uint64_t total = kBase;
      for (const auto& [key, value] : v.as_object().entries()) {
        total += key.capacity() + ApproxValueBytes(value);
      }
      return total;
    }
    default:
      return kBase;
  }
}

uint64_t Dataset::ApproxMemoryBytes() const {
  uint64_t total = 0;
  for (const auto& col : columns_) {
    total += col.name.capacity() + sizeof(ColumnData);
    for (const auto& cell : col.cells) total += ApproxValueBytes(cell);
  }
  return total;
}

std::vector<Sample> Dataset::ToSamples() const {
  std::vector<Sample> out;
  out.reserve(num_rows_);
  for (size_t i = 0; i < num_rows_; ++i) out.push_back(MaterializeRow(i));
  return out;
}

Dataset::ColumnData* Dataset::FindColumn(std::string_view name) {
  for (auto& c : columns_) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const Dataset::ColumnData* Dataset::FindColumn(std::string_view name) const {
  for (const auto& c : columns_) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

}  // namespace dj::data
