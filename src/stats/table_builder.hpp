// The CI-kernel layer: contingency-table construction, separated from
// the statistic computed on the finished counts.
//
// The paper's data-path speedups (sample-parallel builds of Section IV-A,
// the cache-friendly column streaming of Section IV-C) live in *how*
// N_xyz is counted, never in the G^2 formula evaluated afterwards. A
// TableBuilder owns exactly that counting pass, one table per build();
// DiscreteCiTest is a thin statistic layer over it. There are two: the
// serial kernel every engine counts through, and the sample-parallel
// kernel of Figure 2.
//
// Both builders are bit-identical in counts: a contingency table is a
// sum, so every kernel must produce byte-equal cell buffers for the same
// job (randomized tests pin this across shapes, cardinalities and SIMD
// dispatch tiers).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "dataset/discrete_dataset.hpp"
#include "stats/scratch_arena.hpp"

namespace fastbns {

/// Inputs shared by every table of one endpoint group: the dataset, the
/// fixed endpoint pair and its cardinalities, and the combined codes
/// x*|Y| + y per sample (the group protocol's "reuse Vi and Vj"). At most
/// one of the two code streams is set, and kernels read whichever is
/// non-empty. A context may carry no stream at all: the serial kernel's
/// bitset pass reads the endpoint columns instead, and
/// TableBuilder::reads_xy_codes says which tables need a stream.
struct TableBuildContext {
  const DiscreteDataset* data = nullptr;
  VarId x = kInvalidVar;  ///< endpoint X
  VarId y = kInvalidVar;  ///< endpoint Y
  /// Per sample x*cy + y as int32: the stream for row-major contexts
  /// and pairs with cx * cy > 255.
  std::span<const std::int32_t> xy_codes;
  /// Per sample x*cy + y as one byte: the stream for column contexts
  /// whose cx * cy <= 255 (every code fits) — a quarter of the int32
  /// stream's bytes on the hottest stream.
  std::span<const std::uint8_t> xy_codes8;
  std::int32_t cx = 0;                     ///< cardinality of X
  std::int32_t cy = 0;                     ///< cardinality of Y
  /// Stride across sample rows instead of streaming columns (the
  /// cache-unfriendly ablation path; requires a row-major buffer).
  bool row_major = false;
  /// Per-thread scratch for kernels that need index blocks; optional —
  /// kernels fall back to internal buffers when null.
  ScratchArena* scratch = nullptr;
};

/// The context of the endpoint pair (x, y) wired to `scratch`, with no
/// code stream yet.
[[nodiscard]] TableBuildContext make_endpoint_context(
    const DiscreteDataset& data, VarId x, VarId y, bool row_major,
    ScratchArena& scratch);

/// Centralized endpoint-code precomputation: fills one code stream into
/// the context's scratch arena and points the context at it. Column
/// contexts with cx * cy <= 255 get the byte stream, composed from the
/// two endpoint columns; everything else gets the int32 stream. The span
/// stays valid until the next request for the same buffer on the same
/// arena.
void add_xy_codes(TableBuildContext& context);

/// make_endpoint_context followed by add_xy_codes.
[[nodiscard]] TableBuildContext make_table_context(
    const DiscreteDataset& data, VarId x, VarId y, bool row_major,
    ScratchArena& scratch,
    bool want_packed = true);  // ignored; kept only for perfbench/perfbench.cpp

/// One table to count: the conditioning set, its combined cardinality,
/// and the output cells laid out [xy][zc] (size cx * cy * cz_total).
/// Builders zero `cells` before counting.
struct TableJob {
  std::span<const VarId> z;    ///< conditioning variables, ascending
  std::size_t cz_total = 1;    ///< prod of conditioning cardinalities
  std::span<Count> cells;      ///< out: N_xyz, size cx * cy * cz_total
};

class TableBuilder {
 public:
  virtual ~TableBuilder() = default;

  /// Kernel name for logs and bench labels.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Counts one table.
  virtual void build(const TableBuildContext& context, const TableJob& job) = 0;

  /// Whether build() reads the context's code stream for this job, so a
  /// caller can skip add_xy_codes for groups whose tables never read it.
  [[nodiscard]] virtual bool reads_xy_codes(const TableBuildContext& context,
                                            const TableJob& job) const {
    (void)context;
    (void)job;
    return true;
  }

  /// Calls build() for each job in turn. Kept only for
  /// perfbench/perfbench.cpp.
  void build_batch(const TableBuildContext& context, std::span<TableJob> jobs);

  /// Always true and unused here; kept only for perfbench/perfbench.cpp.
  [[nodiscard]] bool wants_packed_xy() const noexcept { return true; }
};

/// The serial kernel — the paper's optimized sequential scan, one pass
/// per table over the |S| conditioning columns (or rows when the context
/// says so). At the AVX2 dispatch tier (stats/simd_dispatch.hpp) it
/// counts column tables with |z| <= 1 and at most
/// table_detail::kBitsetCells cells by bitset intersection, straight from
/// the endpoint columns, and composes the cell indices of column tables
/// with |z| >= 2 vectorized; FASTBNS_SIMD=off and ScopedSimdTierOverride
/// force its scalar pass. Every tier counts the same cells.
[[nodiscard]] std::unique_ptr<TableBuilder> make_serial_table_builder();

/// Sample-parallel scan (Section IV-A): all OpenMP threads fill one table
/// with atomics. Exists to reproduce the paper's negative result; the
/// sample-parallel engine counts through it.
[[nodiscard]] std::unique_ptr<TableBuilder> make_sample_parallel_table_builder();

/// Kept only for perfbench/perfbench.cpp: "auto" and "serial" return the
/// serial kernel. Throws std::invalid_argument naming any other value.
[[nodiscard]] std::unique_ptr<TableBuilder> make_table_builder(
    std::string_view name);

}  // namespace fastbns
