// Golden-file regression tests: the exact skeleton and separating sets of
// the alarm and insurance benchmark networks, at two alpha values, pinned
// as committed artifacts under tests/golden/.
//
// The equivalence and fuzz suites prove all engines agree with each
// other; this suite pins what they agree *on*, so a change that shifts
// every engine identically (a statistic tweak, a dataset-layout bug, an
// alpha-handling regression) still fails loudly instead of slipping
// through the cross-checks.
//
// Golden workflow (see docs/TESTING.md):
//   * The test compares a canonical serialization (edge list + sepsets +
//     an FNV-1a digest trailer) against tests/golden/<case>.golden,
//     resolved through the FASTBNS_SOURCE_DIR compile definition.
//   * To update after an intentional behaviour change, regenerate the
//     files and re-run:
//         FASTBNS_UPDATE_GOLDEN=1 ./build/test_golden_skeleton
//     then review the diff like any other code change — a golden update
//     without an explanation in the PR is a red flag, not a fix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "network/forward_sampler.hpp"
#include "network/standard_networks.hpp"
#include "pc/skeleton.hpp"
#include "stats/discrete_ci_test.hpp"

namespace fastbns {
namespace {

struct GoldenCase {
  const char* network;
  Count samples;
  std::uint64_t data_seed;
  double alpha;
  const char* file;  // under tests/golden/
};

// Two alphas per network: 0.05 (the paper's default) and 0.01 (sparser
// skeletons — different removal depths, different sepsets).
constexpr GoldenCase kCases[] = {
    {"alarm", 2000, 4242, 0.05, "alarm_a0p05.golden"},
    {"alarm", 2000, 4242, 0.01, "alarm_a0p01.golden"},
    {"insurance", 2000, 4343, 0.05, "insurance_a0p05.golden"},
    {"insurance", 2000, 4343, 0.01, "insurance_a0p01.golden"},
};

std::uint64_t fnv1a(const std::string& text) noexcept {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Canonical, diff-friendly serialization: header, ascending edge list,
/// ascending sepset list (removal depth = sepset size), digest trailer
/// over everything above it.
std::string serialize(const GoldenCase& which, const SkeletonResult& result,
                      VarId num_vars) {
  std::ostringstream out;
  out << "fastbns golden skeleton\n";
  out << "network " << which.network << " samples " << which.samples
      << " data_seed " << which.data_seed << " alpha " << which.alpha << "\n";
  auto edges = result.graph.edges();
  std::sort(edges.begin(), edges.end());
  out << "edges " << edges.size() << "\n";
  for (const auto& [u, v] : edges) {
    out << "edge " << u << " " << v << "\n";
  }
  std::ostringstream sepsets;
  std::size_t separated = 0;
  for (VarId u = 0; u < num_vars; ++u) {
    for (VarId v = u + 1; v < num_vars; ++v) {
      const std::vector<VarId>* sepset = result.sepsets.find(u, v);
      if (sepset == nullptr) continue;
      ++separated;
      sepsets << "sepset " << u << " " << v << " depth " << sepset->size()
              << " :";
      for (const VarId z : *sepset) sepsets << ' ' << z;
      sepsets << "\n";
    }
  }
  out << "sepsets " << separated << "\n" << sepsets.str();
  std::string body = out.str();
  std::ostringstream digest;
  digest << "digest " << std::hex << fnv1a(body) << "\n";
  return body + digest.str();
}

std::string golden_path(const GoldenCase& which) {
  return std::string(FASTBNS_SOURCE_DIR) + "/tests/golden/" + which.file;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

std::string run_case(const GoldenCase& which, const PcOptions& engine_options) {
  const std::optional<BayesianNetwork> network =
      benchmark_network(which.network);
  if (!network.has_value()) {
    ADD_FAILURE() << "unknown benchmark network " << which.network;
    return {};
  }
  Rng rng(which.data_seed);
  const DiscreteDataset data =
      forward_sample(*network, which.samples, rng, DataLayout::kColumnMajor);
  PcOptions options = engine_options;
  options.alpha = which.alpha;
  CiTestOptions test_options;
  test_options.alpha = which.alpha;
  const DiscreteCiTest test(data, test_options);
  const SkeletonResult result = learn_skeleton(data.num_vars(), test, options);
  return serialize(which, result, data.num_vars());
}

std::string run_case(const GoldenCase& which) {
  PcOptions options;
  options.engine = EngineKind::kFastSequential;
  return run_case(which, options);
}

TEST(GoldenSkeleton, AlarmAndInsuranceMatchCommittedDigests) {
  const bool update = std::getenv("FASTBNS_UPDATE_GOLDEN") != nullptr;
  for (const GoldenCase& which : kCases) {
    SCOPED_TRACE(which.file);
    const std::string actual = run_case(which);
    ASSERT_FALSE(actual.empty());
    const std::string path = golden_path(which);
    if (update) {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      ASSERT_TRUE(out.good()) << "cannot write " << path;
      out << actual;
      continue;
    }
    const std::optional<std::string> expected = read_file(path);
    ASSERT_TRUE(expected.has_value())
        << "missing golden file " << path
        << "; generate it with FASTBNS_UPDATE_GOLDEN=1 ./test_golden_skeleton";
    if (*expected == actual) continue;
    // Report the first differing line — a full-file dump of a few hundred
    // edges helps nobody.
    std::istringstream expected_lines(*expected);
    std::istringstream actual_lines(actual);
    std::string expected_line;
    std::string actual_line;
    int line = 0;
    while (true) {
      ++line;
      const bool more_expected =
          static_cast<bool>(std::getline(expected_lines, expected_line));
      const bool more_actual =
          static_cast<bool>(std::getline(actual_lines, actual_line));
      if (!more_expected && !more_actual) break;
      if (!more_expected || !more_actual || expected_line != actual_line) {
        ADD_FAILURE() << which.file << " line " << line << ":\n  golden: "
                      << (more_expected ? expected_line : "<end of file>")
                      << "\n  actual: "
                      << (more_actual ? actual_line : "<end of file>")
                      << "\nIf the change is intentional, refresh with "
                         "FASTBNS_UPDATE_GOLDEN=1 and review the diff.";
        break;
      }
    }
  }
}

TEST(GoldenSkeleton, ProcessEngineReproducesTheCommittedDigests) {
  // The distributed engine must agree not just with the in-process
  // engines (the fuzz suite's job) but with the pinned artifacts
  // themselves — a serialization reached through per-depth forks and the
  // gather of their replies, byte for byte. FASTBNS_GOLDEN_RANKS (default 2) sets the rank count so
  // the CI process leg can sweep it.
  std::int32_t ranks = 2;
  if (const char* env = std::getenv("FASTBNS_GOLDEN_RANKS");
      env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    ASSERT_TRUE(end != env && *end == '\0' && parsed >= 1)
        << "FASTBNS_GOLDEN_RANKS=\"" << env << "\" is not an integer >= 1";
    ranks = static_cast<std::int32_t>(parsed);
  }
  PcOptions options;
  options.engine = EngineKind::kProcess;
  options.rank_count = ranks;
  for (const GoldenCase& which : kCases) {
    SCOPED_TRACE(std::string(which.file) + " ranks=" + std::to_string(ranks));
    const std::string actual = run_case(which, options);
    ASSERT_FALSE(actual.empty());
    const std::optional<std::string> expected = read_file(golden_path(which));
    ASSERT_TRUE(expected.has_value()) << "missing golden file "
                                      << golden_path(which);
    EXPECT_EQ(*expected, actual);
  }
}

TEST(GoldenSkeleton, SerializationIsStableAndDigestCoversTheBody) {
  // Two runs of the same case serialize identically (the digest is a
  // function of the body), and the two alphas genuinely differ —
  // otherwise the alpha dimension of the golden grid pins nothing.
  const std::string a = run_case(kCases[0]);
  const std::string b = run_case(kCases[0]);
  EXPECT_EQ(a, b);
  const std::string sparser = run_case(kCases[1]);
  EXPECT_NE(a, sparser);
  const std::size_t digest_at = a.rfind("digest ");
  ASSERT_NE(digest_at, std::string::npos);
  std::ostringstream digest;
  digest << "digest " << std::hex << fnv1a(a.substr(0, digest_at)) << "\n";
  EXPECT_EQ(a.substr(digest_at), digest.str());
}

}  // namespace
}  // namespace fastbns
