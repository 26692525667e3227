// Factories for the builtin engines: the five paper engines plus the
// process extension. Each is defined in its own
// translation unit under src/engine/; the EngineRegistry constructor is
// their only in-tree caller — everything else selects engines by name or
// EngineKind through the registry.
#pragma once

#include <memory>

#include "engine/skeleton_engine.hpp"

namespace fastbns {

/// bnlearn-like baseline: ordered edge directions processed separately,
/// conditioning sets materialized ahead of time, no endpoint-code reuse.
[[nodiscard]] std::unique_ptr<SkeletonEngine> make_naive_sequential_engine();

/// Fast-BNS-seq: endpoint grouping + on-the-fly sets + group code reuse.
[[nodiscard]] std::unique_ptr<SkeletonEngine> make_fast_sequential_engine();

/// Edge-level parallelism (Section IV-A): static edge partition per depth
/// over the optimized kernel.
[[nodiscard]] std::unique_ptr<SkeletonEngine> make_edge_parallel_engine();

/// Sample-level parallelism (Section IV-A): sequential edge loop; the
/// parallelism lives inside the CI test's contingency-table build.
[[nodiscard]] std::unique_ptr<SkeletonEngine> make_sample_parallel_engine();

/// Fast-BNS-par (Section IV-B): CI-level parallelism; at depth >= 1 each
/// thread claims whole works from one atomic cursor.
[[nodiscard]] std::unique_ptr<SkeletonEngine> make_ci_parallel_engine();

/// Multi-process rank-partition extension: every depth the engine deals
/// its units (the pair bitmap's words at depth 0, the works after)
/// round-robin over the ranks and forks one child per rank and non-empty
/// list, which reads the CI test, the dataset and the units it inherits
/// at fork; the depth barrier is a gather of pipe frames (src/ipc/) whose
/// replies carry (word, bits) per word with a removal at depth 0 and
/// (index, x, y, accepted rank) per removal after, and the driver
/// unranks each sepset itself — bit-identical to edge-parallel,
/// supervised so a dead rank is recovered instead of hanging the run.
[[nodiscard]] std::unique_ptr<SkeletonEngine> make_process_engine();

}  // namespace fastbns
