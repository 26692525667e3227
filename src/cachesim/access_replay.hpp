// Replays the contingency-table data-access stream of a CI-test trace
// through the cache simulator under a chosen storage layout — the
// machinery behind the Table IV reproduction.
#pragma once

#include <cstdint>
#include <vector>

#include "cachesim/cache_model.hpp"
#include "cachesim/trace_ci_test.hpp"

namespace fastbns {

struct ReplayConfig {
  std::int64_t num_samples = 0;
  std::int32_t num_vars = 0;
  /// Bytes per stored value (the paper's analysis assumes 4; this library
  /// stores 1-byte values — both are supported).
  std::int32_t value_bytes = 1;
  bool column_major = true;
  CacheConfig l1{32 * 1024, 64, 8};
  CacheConfig last_level{16 * 1024 * 1024, 64, 16};
};

struct ReplayResult {
  CacheStats l1;
  CacheStats last_level;
};

/// For every traced CI test, touches the addresses of the |z|+2 variables
/// across all samples in the order the contingency build reads them
/// (sample-by-sample), and accumulates cache statistics.
[[nodiscard]] ReplayResult replay_trace(const std::vector<TracedCiCall>& trace,
                                        const ReplayConfig& config);

}  // namespace fastbns
