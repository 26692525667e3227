#include "engine/skeleton_engine.hpp"

#include "pc/pair_index.hpp"

namespace fastbns {

std::int64_t SkeletonEngine::run_depth_zero(VarId num_nodes,
                                            const CiTest& prototype,
                                            const PcOptions& options,
                                            std::span<std::uint64_t> removed) {
  std::vector<EdgeWork> works = build_depth_zero_works(
      num_nodes, options.group_endpoints && supports_endpoint_grouping());
  const std::int64_t tests = run_depth(works, /*depth=*/0, prototype, options);
  for (const EdgeWork& work : works) {
    if (!work.removed()) continue;
    const std::uint64_t pair = pair_index(work.x, work.y);
    removed[pair / kPairsPerWord] |= std::uint64_t{1} << (pair % kPairsPerWord);
  }
  return tests;
}

}  // namespace fastbns
