// Runtime CI-test selection: the single place a PcOptions::ci_test name
// plus a Dataset turn into a constructed statistic, mirroring how the
// EngineRegistry resolves engine names. learn_structure, the bench
// runner, and structure_tool all funnel through here, so adding a
// statistic means one factory branch — not editing three call sites.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dataset/dataset.hpp"
#include "stats/ci_test.hpp"

namespace fastbns {

/// Everything a statistic's constructor might need, extracted from
/// PcOptions (or an EngineRunConfig) by the callers. Discrete-only knobs
/// are ignored by the Gaussian branch and vice versa.
struct CiTestRequest {
  /// "auto" (match the dataset kind), "discrete" (G^2 family),
  /// "gaussian" (Fisher-z), or "oracle" (rejected here — the
  /// d-separation oracle needs a ground-truth DAG, not a dataset; build
  /// it directly and call pc_stable).
  std::string ci_test = "auto";
  double alpha = 0.05;
  // Discrete (G^2) knobs — CiTestOptions mirrors.
  std::size_t max_cells = std::size_t{1} << 24;
  /// Benchmark stub: perfbench sets it. Nothing reads it.
  std::string table_builder = "auto";
  bool use_row_major = false;
  bool sample_parallel = false;
  // Gaussian (Fisher-z) knobs.
  std::string covariance_builder = "auto";
};

/// Known ci_test names, "auto" included — the validate()/CLI vocabulary.
[[nodiscard]] std::vector<std::string> list_ci_tests();

/// Resolves "auto" against the dataset kind ("discrete" for discrete
/// data, "gaussian" for continuous); explicit names pass through.
/// Throws std::invalid_argument naming the offending value for unknown
/// names — the same message validate() produces.
[[nodiscard]] std::string resolve_ci_test_name(const std::string& name,
                                               const Dataset& data);

/// Constructs the statistic for `data`. "discrete" on continuous data
/// throws (codes cannot be conjured from doubles); "gaussian" on
/// discrete data promotes the byte codes to an owned double column store
/// (the standard trick for testing the Gaussian path on integer CSVs);
/// "oracle" always throws with a pointer to the direct pc_stable path.
[[nodiscard]] std::unique_ptr<CiTest> make_ci_test(
    const Dataset& data, const CiTestRequest& request);

}  // namespace fastbns
