// The G^2 conditional-independence test on discrete complete data (the
// paper's test).
//
// The class is a thin statistic layer: it owns the endpoint codes, the
// marginals and the G^2 evaluation, while the counting pass that fills
// N_xyz lives behind a TableBuilder kernel (stats/table_builder.hpp).
// G^2 is summed as 2 [sum N_xyz ln N_xyz - sum N_xz ln N_xz -
// sum N_yz ln N_yz + sum N_z ln N_z], each count's k ln k read from one
// process-wide table of k < 4,096 (std::log past it), so a small table
// costs no logarithm or division per cell. The table is fixed-size and
// filled once per process (on first construction, so forked ranks
// inherit it): no dataset, clone or learn pays for it in time or memory.
// The paper's data-path optimizations map onto the class's split:
//  * column-major streaming of exactly the |S|+2 variables a test touches
//    (cache-friendly storage, Section IV-C) — with an opt-in row-major
//    path so benches can ablate the layout choice;
//  * group protocol reusing the endpoint pair's context, and its combined
//    (X, Y) value codes, across the tests of one claimed work
//    (Section IV-B, "reuse Vi and Vj"); the codes are built only when a
//    table's kernel pass reads them, so groups whose tables the serial
//    kernel counts by bitset intersection never build them;
//  * workspace reuse: one allocation-free contingency buffer per test
//    instance (engines clone one instance per thread);
//  * an optional sample-parallel build (OpenMP + atomics), which exists to
//    reproduce the paper's *negative* result for sample-level parallelism.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dataset/discrete_dataset.hpp"
#include "stats/ci_test.hpp"
#include "stats/scratch_arena.hpp"
#include "stats/table_builder.hpp"

namespace fastbns {

struct CiTestOptions {
  double alpha = 0.05;
  /// Tests whose contingency table exceeds this many cells are not run;
  /// the edge is conservatively kept (result: dependent, p = 0).
  std::size_t max_cells = std::size_t{1} << 24;
  /// Build the contingency table with a row-major (cache-unfriendly) scan.
  bool use_row_major = false;
  /// Parallelize the contingency build over samples (atomics). Emulates
  /// the sample-level granularity of Section IV-A. Engines can switch
  /// this at runtime through set_sample_parallel().
  bool sample_parallel = false;
};

class DiscreteCiTest final : public CiTest {
 public:
  /// `data` must outlive the test and have the layout(s) the options need.
  DiscreteCiTest(const DiscreteDataset& data, CiTestOptions options);

  CiResult test(VarId x, VarId y, std::span<const VarId> z) override;
  void begin_group(VarId x, VarId y) override;
  CiResult test_in_group(std::span<const VarId> z) override;
  [[nodiscard]] std::unique_ptr<CiTest> clone() const override;

  /// Retargets single-table builds between the serial and the
  /// sample-parallel kernel; always supported here.
  bool set_sample_parallel(bool enabled) override;
  [[nodiscard]] bool sample_parallel_build() const noexcept override {
    return sample_parallel_build_;
  }

  [[nodiscard]] std::size_t table_cell_cap() const noexcept override {
    return options_.max_cells;
  }
  /// The serial kernel's name ("serial"), for reports.
  [[nodiscard]] std::string_view table_builder_name() const noexcept override;

  /// Folds every clone-visible knob — the dataset, the full
  /// CiTestOptions, and the runtime sample-parallel retarget — into the
  /// fingerprint the clone cache keys on, so a reconfigured prototype at
  /// a recycled address is never mistaken for the previous one.
  [[nodiscard]] std::uint64_t config_token() const noexcept override;

  [[nodiscard]] const CiTestOptions& options() const noexcept { return options_; }

 private:
  /// Combined-z cardinality of the (x, y, z) table; 0 signals "table too
  /// large" — the full cx * cy * cz cell count is what max_cells caps.
  [[nodiscard]] std::size_t conditioning_cells(VarId x, VarId y,
                                               std::span<const VarId> z) const;

  /// Points the build context at (x, y), with no code stream yet.
  void set_endpoints(VarId x, VarId y);
  /// Counts the (current pair, z) table into cells_ through the active
  /// builder, adding the context's code stream first if that builder
  /// reads it for this table and the context has none yet.
  void count(std::span<const VarId> z, std::size_t cz_total);
  /// The kernel builds go through: the serial kernel, or sample-parallel
  /// when the option / runtime hint says so.
  [[nodiscard]] TableBuilder& active_builder() const noexcept;
  /// G^2 over the counted cells, from the k ln k table, with its df and
  /// chi-square p-value.
  [[nodiscard]] CiResult evaluate(std::span<const Count> cells,
                                  std::size_t cz_total) const;

  const DiscreteDataset* data_;
  CiTestOptions options_;
  std::int32_t cx_ = 0;  ///< cardinality of current group X
  std::int32_t cy_ = 0;  ///< cardinality of current group Y
  /// Runtime mirror of options_.sample_parallel (set_sample_parallel).
  bool sample_parallel_build_ = false;

  std::unique_ptr<TableBuilder> serial_builder_;
  std::unique_ptr<TableBuilder> sample_builder_;

  /// Per-instance scratch (instances are per-thread via clone()): the
  /// endpoint-code buffers the build context points into and the serial
  /// kernel's index blocks live here, so groups stop reallocating on the
  /// hot path.
  ScratchArena scratch_;
  /// Context of the current endpoint pair; its code stream, once built,
  /// points into scratch_. This is the group memo: begin_group keeps the
  /// context when the pair is unchanged, so consecutive groups of one
  /// edge reuse a code stream already built. The memo covers only that
  /// stream — every other input a kernel reads comes straight from the
  /// dataset. The plain test() entry point deliberately has no memo: it
  /// models the unoptimized path and starts a fresh context every call.
  TableBuildContext context_;
  std::vector<Count> cells_;  ///< N_xyz, laid out [xy][zc]
  mutable std::vector<Count> margin_xz_;
  mutable std::vector<Count> margin_yz_;
  mutable std::vector<Count> margin_z_;
};

}  // namespace fastbns
