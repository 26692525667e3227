// Discrete random variable metadata.
#pragma once

#include <cstdint>
#include <string>

namespace fastbns {

struct Variable {
  std::string name;
  std::int32_t cardinality = 2;
};

}  // namespace fastbns
