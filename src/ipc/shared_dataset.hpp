// Kept only for perfbench/perfbench.cpp, which mounts a segment before
// it builds the ranks' CI test. Forked ranks read the caller's dataset
// through the pages they inherit at fork, so the "segment" is a shallow
// Dataset copy: it shares the source's buffers and copies no bytes.
#pragma once

#include <utility>

#include "dataset/dataset.hpp"

namespace fastbns {

class SharedDatasetSegment {
 public:
  [[nodiscard]] static SharedDatasetSegment create(const Dataset& source) {
    return SharedDatasetSegment(source);
  }

  [[nodiscard]] const Dataset& dataset() const noexcept { return view_; }

 private:
  explicit SharedDatasetSegment(Dataset view) : view_(std::move(view)) {}

  Dataset view_;
};

}  // namespace fastbns
