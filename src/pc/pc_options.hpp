// Configuration of the PC-stable skeleton engines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace fastbns {

/// The builtin skeleton engines: the five of the paper's evaluation plus
/// the process extension.
enum class EngineKind : std::uint8_t {
  /// bnlearn-like baseline: ordered edge directions processed separately,
  /// conditioning sets materialized ahead of time, no endpoint-code reuse.
  kNaiveSequential,
  /// Fast-BNS-seq: endpoint grouping + on-the-fly sets + group code reuse.
  kFastSequential,
  /// Edge-level parallelism (Section IV-A): static edge partition per depth
  /// over the optimized kernel.
  kEdgeParallel,
  /// Sample-level parallelism (Section IV-A): sequential edge loop, each
  /// contingency table built by all threads with atomics. Requires a CI
  /// test configured with sample_parallel = true to actually parallelize.
  kSampleParallel,
  /// Fast-BNS-par (Section IV-B): CI-level parallelism. At depth >= 1
  /// each thread claims whole works from one atomic cursor.
  kCiParallel,
  /// Multi-process rank-partition extension: the engine deals every
  /// depth's units (the pair bitmap's words at depth 0, the works after)
  /// round-robin over rank_count ranks as explicit lists and forks one
  /// child per rank and non-empty list, which reads the CI test, the
  /// dataset and the units it inherits at fork. The per-depth commit
  /// barrier becomes a gather of length-prefixed pipe frames: replies
  /// carry (word, bits) per word with a removal at depth 0 and (index,
  /// x, y, accepted rank) per removal after, and the driver unranks each
  /// sepset itself — the fork-based first step of the roadmap's
  /// distributed (MPI-style) skeleton learning.
  kProcess,
};

/// Canonical engine name from the EngineRegistry's table (defined in
/// engine/engine_registry.cpp — the single source of the names the CLI
/// parsers accept; see also engine_from_string / list_engines there).
[[nodiscard]] std::string to_string(EngineKind kind);

struct PcOptions {
  /// The one engine selector: learn_structure, learn_skeleton and the
  /// bench runner construct this kind through the EngineRegistry.
  EngineKind engine = EngineKind::kCiParallel;
  /// OpenMP threads for parallel engines; 0 keeps the runtime default.
  int num_threads = 0;
  /// gs — the CI tests of a work that run as one group (kCiParallel
  /// only): a group runs to its end after a test in it accepts, so a gs
  /// above 1 only adds the redundant tests Figure 4 counts.
  std::int32_t group_size = 1;
  /// Cap on conditioning-set size; -1 runs to the natural PC-stable stop.
  std::int32_t max_depth = -1;
  /// Ablation toggle: treat Vi-Vj / Vj-Vi as one work unit (Section IV-C).
  /// Forced off by kNaiveSequential.
  bool group_endpoints = true;
  /// Ablation toggle: generate conditioning sets on the fly, each the
  /// successor of the last, instead of materializing them per edge.
  /// Forced off by kNaiveSequential.
  bool on_the_fly_sets = true;
  /// Significance level used by the learn_structure() convenience wrapper
  /// when it constructs the G^2 test.
  double alpha = 0.05;
  /// Cap on the contingency-table cells a single CI test may allocate;
  /// oversized tests are skipped conservatively (the edge is kept).
  /// Forwarded to CiTestOptions::max_cells by learn_structure and the
  /// bench runner.
  std::size_t max_table_cells = std::size_t{1} << 24;
  /// Benchmark stub: perfbench copies it into its CiTestRequest.
  /// validate() accepts only "auto"; tables always count through the
  /// serial kernel, and FASTBNS_SIMD=off forces its scalar passes.
  std::string table_builder = "auto";
  /// Statistic the learn_structure() wrappers construct — any
  /// list_ci_tests() name: "auto" matches the dataset kind (discrete
  /// data -> the G^2 test, continuous data -> Fisher-z), "discrete" and
  /// "gaussian" force a statistic, "oracle" is rejected at construction
  /// with a pointer to the direct pc_stable path. Resolved by
  /// stats/ci_test_factory.hpp the way engines resolve through the
  /// registry.
  std::string ci_test = "auto";
  /// Benchmark stub: perfbench reads it. Nothing in the library does,
  /// and validate() does not check it.
  std::string numa_policy = "auto";
  /// Worker ranks (forked processes) of the multi-process engine
  /// (kProcess only): 0 = auto (min(2, hardware threads) — distributed by
  /// default, degenerating to a single rank on a 1-cpu box). The engine
  /// deals rank r positions r, r + rank_count, … of each depth's units
  /// (64-pair words at depth 0, works after), so only ranks beyond a
  /// depth's unit count get nothing; rank 1
  /// is the fork-supervised degenerate case the fuzz harness sweeps.
  std::int32_t rank_count = 0;
  /// Worker threads *inside* each rank (kProcess only): 0 = auto
  /// (effective thread budget / rank_count, at least 1). Ranks use plain
  /// std::thread teams — never OpenMP, whose runtime does not survive
  /// fork() — so this is deliberately separate from num_threads.
  std::int32_t rank_threads = 0;
  /// Fault tolerance of the multi-process engine (kProcess only): how
  /// many times a rank's dead or wedged child may be respawned (a fresh
  /// fork of the same list) before the supervisor stops restarting the
  /// rank and re-partitions its works onto the surviving ranks instead. 0 = never respawn (straight to
  /// re-partition). Either way the run completes with the bit-identical
  /// result; only the recovery cost differs.
  std::int32_t max_rank_restarts = 1;
  /// Rank IPC channel of the multi-process engine (kProcess only):
  /// "auto" or "pipe", which both name the one channel it has — a
  /// fork-inherited pipe pair per rank. Checked by ipc/transport.hpp.
  std::string ipc_transport = "auto";
  /// Deterministic fault schedule (fault/fault_schedule.hpp grammar,
  /// e.g. "kill@rank=1,depth=2;corrupt-frame@rank=0,depth=1") injected
  /// into the multi-process engine's ranks and channels — the CI/test
  /// hook that exercises every recovery path. Empty = the
  /// FASTBNS_FAULT_SCHEDULE environment variable (default: no faults).
  std::string fault_schedule;

  /// Largest accepted num_threads; far beyond any machine this targets,
  /// so a mistyped thread count fails here instead of oversubscribing.
  static constexpr int kMaxThreads = 4096;
  /// Largest accepted rank_count: every rank is a forked process, so the
  /// cap is deliberately far below kMaxThreads — 1024 ranks is already
  /// beyond any single box this engine forks on.
  static constexpr std::int32_t kMaxRanks = 1024;
  /// Largest accepted max_rank_restarts: each restart forks and re-runs
  /// a list, so a budget beyond this is a typo, not a plan.
  static constexpr std::int32_t kMaxRankRestarts = 64;

  /// Throws std::invalid_argument when any field is out of range:
  /// group_size >= 1, alpha in (0, 1), max_depth >= -1, 0 <= num_threads
  /// <= kMaxThreads, 0 <= rank_count <= kMaxRanks, rank_threads likewise
  /// against kMaxThreads, rank_count x rank_threads <= kMaxThreads when
  /// both are set (the degrade rung runs every rank's threads in one
  /// process), ipc_transport a known transport (auto/pipe),
  /// table_builder "auto", ci_test a known statistic name
  /// (auto/discrete/gaussian/oracle), and max_table_cells
  /// >= 4 (a smaller cap cannot hold even the 2x2 marginal table of two
  /// binary variables, so every test would be skipped and no edge ever
  /// removed). Every rejection message names the offending value, not
  /// just the field. Self-contained field checks only; the
  /// engine-dependent max_table_cells/threads combination rule is
  /// enforced by the skeleton driver once the engine is resolved (see
  /// learn_skeleton) — both fail up front instead of mid-run inside an
  /// engine.
  void validate() const;
};

}  // namespace fastbns
