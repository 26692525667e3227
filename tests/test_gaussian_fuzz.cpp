// Differential fuzz + golden pinning for the Fisher-z (Gaussian) CI
// backend — the continuous counterpart of test_engine_fuzz.cpp and
// test_golden_skeleton.cpp, carrying the `gaussian` ctest label (its own
// CI leg; see docs/TESTING.md).
//
// The harness samples linear-Gaussian SEMs (fuzz_util.hpp's
// make_gaussian_instance: seeded random DAG → random edge weights/noise
// scales → ancestral Box-Muller sampling) and asserts every registered
// engine × both covariance builders reproduces the optimized sequential
// reference's skeleton fingerprint bit for bit. FASTBNS_FUZZ_SEEDS /
// FASTBNS_FUZZ_SEED_START work exactly as in the discrete harness.
//
// The golden test pins one linear-Gaussian case as a committed artifact
// (tests/golden/gaussian_sem_a0p05.golden) through the full
// learn_structure path — factory, then the process engine at one and two
// ranks, whose forks read the correlation matrix they inherit. Refresh with
//   FASTBNS_UPDATE_GOLDEN=1 ./build/test_gaussian_fuzz
// and review the diff like any other code change.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/omp_utils.hpp"
#include "common/rng.hpp"
#include "engine/engine_registry.hpp"
#include "fuzz_util.hpp"
#include "network/linear_gaussian.hpp"
#include "network/random_network.hpp"
#include "pc/pc_stable.hpp"
#include "pc/skeleton.hpp"
#include "stats/covariance.hpp"
#include "stats/gaussian_ci_test.hpp"
#include "stats/simd_dispatch.hpp"

namespace fastbns {
namespace {

long env_long(const char* name, long fallback, long minimum) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || parsed < minimum) {
    ADD_FAILURE() << name << "=\"" << env << "\" is not an integer >= "
                  << minimum;
    return fallback;
  }
  return parsed;
}

long seed_count() { return env_long("FASTBNS_FUZZ_SEEDS", 10, 1); }
long seed_start() { return env_long("FASTBNS_FUZZ_SEED_START", 0, 0); }

TEST(GaussianFuzz, EveryEngineEveryCovarianceBuilderMatchesTheReference) {
  const std::vector<std::string> engines = list_engines();
  // "auto" is one of the two concrete builders; sweeping the concrete
  // names keeps the grid honest about which pass produced the matrix.
  const std::vector<std::string> builders = {"scalar", "blocked"};

  const auto start = static_cast<std::uint64_t>(seed_start());
  const auto end = start + static_cast<std::uint64_t>(seed_count());
  for (std::uint64_t seed = start; seed < end; ++seed) {
    const fuzz::GaussianFuzzInstance instance =
        fuzz::make_gaussian_instance(seed);
    const VarId n = instance.data.num_vars();

    PcOptions reference_options;
    reference_options.engine = engine_from_string("fastbns-seq");
    reference_options.ci_test = "gaussian";
    GaussianCiTestOptions reference_test_options;
    reference_test_options.covariance_builder = "scalar";
    const GaussianCiTest reference_test(instance.data,
                                        reference_test_options);
    const fuzz::SkeletonFingerprint reference = fuzz::fingerprint(
        learn_skeleton(n, reference_test, reference_options), n);

    // Same per-seed scheduling knobs as the discrete harness.
    const auto gs = static_cast<std::int32_t>(1 + seed % 8);
    const std::int32_t rank_count[] = {1, 2, 4};
    const auto ranks = rank_count[seed % 3];
    const auto rank_threads = static_cast<std::int32_t>(1 + seed % 2);

    for (const std::string& engine : engines) {
      for (const std::string& builder : builders) {
        PcOptions options;
        options.engine = engine_from_string(engine);
        options.num_threads = 0;  // OMP_NUM_THREADS drives concurrency
        options.group_size = gs;
        options.rank_count = ranks;
        options.rank_threads = rank_threads;
        options.ci_test = "gaussian";
        GaussianCiTestOptions test_options;
        test_options.covariance_builder = builder;
        const GaussianCiTest test(instance.data, test_options);
        const fuzz::SkeletonFingerprint actual =
            fuzz::fingerprint(learn_skeleton(n, test, options), n);
        if (actual == reference) continue;
        ADD_FAILURE() << "seed=" << seed
                      << " engine pair fastbns-seq(scalar) vs " << engine
                      << "(" << builder << ")"
                      << " gs=" << gs
                      << " ranks=" << ranks << "x" << rank_threads << ": "
                      << fuzz::describe_divergence(reference, actual, n);
      }
    }
  }
}

/// Normal columns with per-column means and scales; when n >= 3, column
/// n / 2 is constant, so the degenerate flags take both values.
ContinuousDataset grid_dataset(VarId n, Count m) {
  ContinuousDataset data(n, m);
  Rng rng(7000 + static_cast<std::uint64_t>(n) * 10007 +
          static_cast<std::uint64_t>(m));
  for (VarId v = 0; v < n; ++v) {
    const double mean = 4.0 * rng.next_double() - 2.0;
    const double scale = 0.5 + rng.next_double();
    const bool constant = n >= 3 && v == n / 2;
    for (Count s = 0; s < m; ++s) {
      data.set(s, v, constant ? 3.25 : mean + scale * rng.normal());
    }
  }
  return data;
}

/// The first entry whose bits differ, else the first differing
/// degenerate flag; empty when the matrices are identical.
std::string first_difference(const CorrelationMatrix& expected,
                             const CorrelationMatrix& actual) {
  for (VarId i = 0; i < expected.num_vars; ++i) {
    for (VarId j = 0; j < expected.num_vars; ++j) {
      if (std::bit_cast<std::uint64_t>(expected.corr(i, j)) !=
          std::bit_cast<std::uint64_t>(actual.corr(i, j))) {
        return "entry (" + std::to_string(i) + ", " + std::to_string(j) + ")";
      }
    }
  }
  for (VarId v = 0; v < expected.num_vars; ++v) {
    if (expected.is_degenerate(v) != actual.is_degenerate(v)) {
      return "degenerate flag of " + std::to_string(v);
    }
  }
  return {};
}

TEST(GaussianFuzz, BlockedBuilderKernelMatchesTheBlockedLoopBitForBit) {
  // The blocked builder runs an AVX2 kernel whose lanes each own one
  // (i, j) sum in the blocked loop's order, and falls back to that loop
  // below the AVX2 tier. Both accumulate each entry on one thread, so
  // every bit must match the loop's at 1 thread, at any thread count and
  // on either tier. The grid crosses ragged column tiles (n = 1, 3, 9,
  // 37) with sample counts on both sides of the 2,048-sample block.
  const std::unique_ptr<CovarianceBuilder> builder =
      make_covariance_builder("blocked");
  const bool kernel_runs = active_simd_tier() == SimdTier::kAvx2;
  for (const VarId n : {1, 3, 8, 9, 37}) {
    for (const Count m : {1, 2047, 2048, 2049, 5000}) {
      const ContinuousDataset data = grid_dataset(n, m);
      const auto build_at = [&](int threads, SimdTier tier) {
        const ScopedNumThreads limit(threads);
        const ScopedSimdTierOverride clamp(tier);
        return builder->build(data);
      };
      const CorrelationMatrix loop = build_at(1, SimdTier::kScalar);
      for (const int threads : {1, 2, 4}) {
        const std::string where = "n=" + std::to_string(n) +
                                  " m=" + std::to_string(m) +
                                  " threads=" + std::to_string(threads);
        EXPECT_EQ(first_difference(loop, build_at(threads, SimdTier::kScalar)),
                  "")
            << "blocked loop, " << where;
        if (kernel_runs) {
          EXPECT_EQ(first_difference(loop, build_at(threads, SimdTier::kAvx2)),
                    "")
              << "AVX2 kernel, " << where;
        }
      }
    }
  }
  if (!kernel_runs) {
    GTEST_SKIP() << "SIMD tier is " << to_string(active_simd_tier())
                 << ", below avx2: only the blocked loop was checked";
  }
}

// ---------------------------------------------------------------------------
// Golden pinning: one linear-Gaussian SEM, serialized exactly like the
// discrete golden cases (ascending edges, ascending sepsets, FNV-1a
// digest trailer).

std::uint64_t fnv1a(const std::string& text) noexcept {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

constexpr VarId kGoldenNodes = 20;
constexpr std::int64_t kGoldenEdges = 28;
constexpr std::uint64_t kGoldenNetworkSeed = 777;
constexpr std::uint64_t kGoldenSemSeed = 778;
constexpr Count kGoldenSamples = 2000;
constexpr double kGoldenAlpha = 0.05;

Dataset golden_dataset() {
  RandomNetworkConfig config;
  config.num_nodes = kGoldenNodes;
  config.num_edges = kGoldenEdges;
  config.seed = kGoldenNetworkSeed;
  const BayesianNetwork network = generate_random_network(config);
  Rng rng(kGoldenSemSeed);
  const LinearGaussianSem sem = random_linear_gaussian_sem(network.dag(), rng);
  return Dataset(sample_linear_gaussian(sem, kGoldenSamples, rng));
}

std::string serialize(const SkeletonResult& result, VarId num_vars) {
  std::ostringstream out;
  out << "fastbns golden skeleton\n";
  out << "network linear-gaussian-sem nodes " << kGoldenNodes << " edges "
      << kGoldenEdges << " network_seed " << kGoldenNetworkSeed
      << " sem_seed " << kGoldenSemSeed << " samples " << kGoldenSamples
      << " alpha " << kGoldenAlpha << "\n";
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

std::string golden_path() {
  return std::string(FASTBNS_SOURCE_DIR) +
         "/tests/golden/gaussian_sem_a0p05.golden";
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

TEST(GaussianGolden, LinearGaussianSemMatchesCommittedDigestAtRanks1And2) {
  const bool update = std::getenv("FASTBNS_UPDATE_GOLDEN") != nullptr;
  const Dataset data = golden_dataset();

  // The sequential reference generates (and, under FASTBNS_UPDATE_GOLDEN,
  // refreshes) the artifact; the process engine then reproduces it at one
  // and two ranks, which read the inherited correlation matrix.
  PcOptions reference_options;
  reference_options.engine = EngineKind::kFastSequential;
  reference_options.ci_test = "gaussian";
  reference_options.alpha = kGoldenAlpha;
  const std::string actual = serialize(
      learn_structure(data, reference_options).skeleton, data.num_vars());
  const std::string path = golden_path();
  if (update) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
  } else {
    const std::optional<std::string> expected = read_file(path);
    ASSERT_TRUE(expected.has_value())
        << "missing golden file " << path
        << "; generate it with FASTBNS_UPDATE_GOLDEN=1 ./test_gaussian_fuzz";
    EXPECT_EQ(*expected, actual);
  }

  for (const std::int32_t ranks : {1, 2}) {
    SCOPED_TRACE("ranks=" + std::to_string(ranks));
    PcOptions options;
    options.engine = EngineKind::kProcess;
    options.rank_count = ranks;
    options.ci_test = "gaussian";
    options.alpha = kGoldenAlpha;
    const std::string from_process = serialize(
        learn_structure(data, options).skeleton, data.num_vars());
    EXPECT_EQ(from_process, actual);
  }
}

}  // namespace
}  // namespace fastbns
