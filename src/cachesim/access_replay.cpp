#include "cachesim/access_replay.hpp"

namespace fastbns {

ReplayResult replay_trace(const std::vector<TracedCiCall>& trace,
                          const ReplayConfig& config) {
  MemoryHierarchy hierarchy(config.l1, config.last_level);
  const auto m = static_cast<std::uint64_t>(config.num_samples);
  const auto n = static_cast<std::uint64_t>(config.num_vars);
  const auto value_bytes = static_cast<std::uint64_t>(config.value_bytes);

  std::vector<std::uint64_t> vars;
  for (const TracedCiCall& call : trace) {
    vars.clear();
    vars.push_back(static_cast<std::uint64_t>(call.x));
    vars.push_back(static_cast<std::uint64_t>(call.y));
    for (const VarId z : call.z) vars.push_back(static_cast<std::uint64_t>(z));

    for (std::uint64_t s = 0; s < m; ++s) {
      for (const std::uint64_t v : vars) {
        // Column-major: data[v][s] — contiguous per variable.
        // Row-major:    data[s][v] — strided by n per sample.
        const std::uint64_t element =
            config.column_major ? v * m + s : s * n + v;
        hierarchy.access(element * value_bytes);
      }
    }
  }
  return ReplayResult{hierarchy.l1(), hierarchy.last_level()};
}

}  // namespace fastbns
