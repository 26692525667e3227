// Fisher-z partial-correlation CI test on continuous data — the second
// statistic behind the CiTest seam, proving the engines are genuinely
// statistic-agnostic.
//
// Data pass and statistic are fully decoupled: construction runs one
// covariance-builder pass (stats/covariance.hpp) to produce the n x n
// correlation matrix, and every test after that is pure linear algebra —
// a Cholesky factor of the |S| x |S| conditioning block, two forward
// solves, and the partial correlation as a Schur complement, then the
// Fisher transform:
//
//   R_SS = L L^T,   u = L^-1 r_Sx,   v = L^-1 r_Sy,
//   r = (r_xy - u.v) / sqrt((1 - u.u) (1 - v.v)),
//   z = sqrt(m - |S| - 3) * atanh(r),
//   p = 2 * P(N(0,1) > |z|);         independent iff p > alpha.
//
// Clones share the correlation matrix (shared_ptr; in the fork-based
// process engine the pages are shared COW), so per-thread clones cost one
// scratch buffer, not a data pass. The per-instance factor scratch makes
// instances stateful the same way DiscreteCiTest's table workspace does —
// engines already clone per thread.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dataset/continuous_dataset.hpp"
#include "stats/ci_test.hpp"
#include "stats/covariance.hpp"

namespace fastbns {

struct GaussianCiTestOptions {
  double alpha = 0.05;
  /// Covariance builder the construction pass runs through — any
  /// list_covariance_builders() name ("auto" = blocked). The constructor
  /// throws std::invalid_argument for unknown names.
  std::string covariance_builder = "auto";
};

class GaussianCiTest final : public CiTest {
 public:
  /// Borrowing: `data` must outlive the test and every clone.
  GaussianCiTest(const ContinuousDataset& data, GaussianCiTestOptions options);

  /// Sharing: the test (and its clones) keep `data` alive — the path the
  /// CI-test factory uses when it promotes discrete codes to doubles.
  GaussianCiTest(std::shared_ptr<const ContinuousDataset> data,
                 GaussianCiTestOptions options);

  CiResult test(VarId x, VarId y, std::span<const VarId> z) override;
  [[nodiscard]] std::unique_ptr<CiTest> clone() const override;

  /// Folds the data source, alpha, and the builder choice into the clone
  /// cache fingerprint (see CiTest::config_token).
  [[nodiscard]] std::uint64_t config_token() const noexcept override;

  [[nodiscard]] const GaussianCiTestOptions& options() const noexcept {
    return options_;
  }
  /// The shared sufficient statistic (tests + benches introspect it).
  [[nodiscard]] const CorrelationMatrix& statistics() const noexcept {
    return *stats_;
  }

 private:
  GaussianCiTest(const GaussianCiTest& other) = default;

  std::shared_ptr<const ContinuousDataset> data_;
  GaussianCiTestOptions options_;
  std::shared_ptr<const CorrelationMatrix> stats_;

  /// Factor scratch: L of the conditioning block and the two forward
  /// solves ((|S| + 2) x |S|). Per instance, never shared.
  std::vector<double> scratch_;
};

}  // namespace fastbns
