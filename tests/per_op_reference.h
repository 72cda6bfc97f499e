#ifndef DJ_TESTS_PER_OP_REFERENCE_H_
#define DJ_TESTS_PER_OP_REFERENCE_H_

#include <memory>
#include <utility>
#include <vector>

#include "core/executor.h"

namespace dj {

/// The reference a filter stage is checked against: one Executor::Run per
/// OP. A single-OP run cannot form a stage, so every filter runs as a unit
/// of its own over the rows the OPs before it kept.
inline Result<data::Dataset> RunPerOp(
    data::Dataset dataset, const std::vector<std::unique_ptr<ops::Op>>& ops,
    core::Executor::Options options = {}) {
  core::Executor executor(std::move(options));
  for (const auto& op : ops) {
    DJ_ASSIGN_OR_RETURN(
        dataset, executor.Run(std::move(dataset),
                              std::vector<const ops::Op*>{op.get()}));
  }
  return dataset;
}

}  // namespace dj

#endif  // DJ_TESTS_PER_OP_REFERENCE_H_
