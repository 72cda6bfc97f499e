#ifndef DJ_CORE_TRACER_H_
#define DJ_CORE_TRACER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace dj::core {

/// Records per-OP sample changes during a run (paper Sec. 5.2, the Tracer
/// tool): pre/post edits for Mappers, discarded samples for Filters, and
/// duplicate pairs for Deduplicators. At most `limit` entries are kept per
/// OP, but totals keep counting. Thread-safe.
class Tracer {
 public:
  struct MapperEdit {
    std::string op_name;
    size_t row;
    std::string before;
    std::string after;
  };
  struct FilteredSample {
    std::string op_name;
    size_t row;
    std::string text;
    std::string stats_json;  ///< the stats that caused the drop
  };
  struct DuplicateRecord {
    std::string op_name;
    std::string kept_text;
    std::string removed_text;
    double similarity;
  };
  struct OpTotals {
    std::string op_name;
    uint64_t edited = 0;
    uint64_t filtered = 0;
    uint64_t duplicates = 0;
  };

  explicit Tracer(size_t limit_per_op = 10) : limit_(limit_per_op) {}

  void RecordEdit(std::string_view op_name, size_t row,
                  std::string_view before, std::string_view after);
  void RecordFiltered(std::string_view op_name, size_t row,
                      std::string_view text, std::string_view stats_json);
  void RecordDuplicate(std::string_view op_name, std::string_view kept,
                       std::string_view removed, double similarity);

  // Locked snapshots, by value: worker threads may still be appending when
  // a reader asks for the records, so handing out references to the live
  // vectors would race with reallocation.
  std::vector<MapperEdit> edits() const;
  std::vector<FilteredSample> filtered() const;
  std::vector<DuplicateRecord> duplicates() const;

  /// Per-OP totals, in first-seen order.
  std::vector<OpTotals> Totals() const;

  /// Human-readable summary table.
  std::string Summary() const;

  /// Writes trace-<kind>.jsonl files into `dir`.
  Status WriteTo(const std::string& dir) const;

 private:
  OpTotals* TotalsFor(std::string_view op_name) DJ_REQUIRES(mutex_);

  size_t limit_;
  mutable Mutex mutex_{"Tracer.mutex"};
  std::vector<MapperEdit> edits_ DJ_GUARDED_BY(mutex_);
  std::vector<FilteredSample> filtered_ DJ_GUARDED_BY(mutex_);
  std::vector<DuplicateRecord> duplicates_ DJ_GUARDED_BY(mutex_);
  std::vector<OpTotals> totals_ DJ_GUARDED_BY(mutex_);
};

}  // namespace dj::core

#endif  // DJ_CORE_TRACER_H_
