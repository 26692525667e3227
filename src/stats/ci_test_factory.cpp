#include "stats/ci_test_factory.hpp"

#include <algorithm>
#include <stdexcept>

#include "stats/discrete_ci_test.hpp"
#include "stats/gaussian_ci_test.hpp"

namespace fastbns {
namespace {

[[noreturn]] void throw_unknown(const std::string& name) {
  std::string message = "ci_test \"" + name +
                        "\" is not a known CI test; known tests:";
  for (const std::string& known : list_ci_tests()) {
    message += ' ';
    message += known;
  }
  throw std::invalid_argument(message);
}

/// Promotes discrete byte codes to an owned double column store so the
/// Fisher-z path can run on integer data (rank-poor but well-defined —
/// the standard way to smoke-test a Gaussian backend on categorical
/// CSVs). Owned by the returned shared_ptr; the test keeps it alive.
std::shared_ptr<const ContinuousDataset> promote_to_continuous(
    const DiscreteDataset& data) {
  auto promoted =
      std::make_shared<ContinuousDataset>(data.num_vars(), data.num_samples());
  for (VarId v = 0; v < data.num_vars(); ++v) {
    for (Count s = 0; s < data.num_samples(); ++s) {
      promoted->set(s, v, static_cast<double>(data.value(s, v)));
    }
  }
  return promoted;
}

}  // namespace

std::vector<std::string> list_ci_tests() {
  return {"auto", "discrete", "gaussian", "oracle"};
}

std::string resolve_ci_test_name(const std::string& name,
                                 const Dataset& data) {
  const std::vector<std::string> known = list_ci_tests();
  if (std::find(known.begin(), known.end(), name) == known.end()) {
    throw_unknown(name);
  }
  if (name == "auto") {
    return data.is_discrete() ? "discrete" : "gaussian";
  }
  return name;
}

std::unique_ptr<CiTest> make_ci_test(const Dataset& data,
                                     const CiTestRequest& request) {
  const std::string resolved = resolve_ci_test_name(request.ci_test, data);
  if (resolved == "discrete") {
    if (!data.is_discrete()) {
      throw std::invalid_argument(
          "ci_test \"discrete\" requires discrete data, got a " +
          std::string(to_string(data.kind())) +
          " dataset: byte codes cannot be derived from double columns");
    }
    CiTestOptions options;
    options.alpha = request.alpha;
    options.max_cells = request.max_cells;
    options.use_row_major = request.use_row_major;
    options.sample_parallel = request.sample_parallel;
    return std::make_unique<DiscreteCiTest>(data.discrete(), options);
  }
  if (resolved == "gaussian") {
    GaussianCiTestOptions options;
    options.alpha = request.alpha;
    options.covariance_builder = request.covariance_builder;
    if (data.is_continuous()) {
      return std::make_unique<GaussianCiTest>(data.continuous_ptr(), options);
    }
    return std::make_unique<GaussianCiTest>(
        promote_to_continuous(data.discrete()), options);
  }
  // "oracle" resolves but cannot be constructed from a dataset.
  throw std::invalid_argument(
      "ci_test \"oracle\" needs a ground-truth DAG, not a dataset; "
      "construct a DSeparationOracle and call pc_stable(num_nodes, oracle, "
      "options) directly");
}

}  // namespace fastbns
