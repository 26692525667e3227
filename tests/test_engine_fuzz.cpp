// The cross-engine differential fuzz harness.
//
// "Result-identical" is the library's central claim, and with six
// registered engines, each counting at the scalar and at the vector SIMD
// tier, hand-picked networks no longer cover the combination space. This
// harness machine-checks the claim at scale: a seeded loop of random DAG
// (random_network) → forward-sampled dataset → every registered engine ×
// both dispatch tiers (the active tier only, when it is already scalar),
// asserting the bit-identical skeleton adjacency, separating sets and
// removal depths against the optimized sequential reference at the
// scalar tier. On a mismatch the failure message is a complete
// reproducer: the seed, the engine pair (reference vs subject), the tier
// (FASTBNS_SIMD=off forces scalar) and per-seed knobs (gs, ranks), and
// the first divergent edge.
//
// Seed sweep: FASTBNS_FUZZ_SEEDS overrides the default of 10 seeds (the
// `fuzz` ctest label's CI leg pins 10 at OMP_NUM_THREADS=nproc; raise it
// locally for a deeper soak, e.g. FASTBNS_FUZZ_SEEDS=100), and
// FASTBNS_FUZZ_SEED_START (default 0) re-bases the range — so the exact
// reproducer for a CI failure at seed 9 is FASTBNS_FUZZ_SEED_START=9
// FASTBNS_FUZZ_SEEDS=1. Malformed values fail the test instead of
// silently shrinking a soak run to the default. Thread counts are
// deliberately left at the OpenMP default (num_threads = 0) so the
// environment's OMP_NUM_THREADS sweep varies the concurrency every
// configuration actually runs at.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "engine/engine_registry.hpp"
#include "fuzz_util.hpp"
#include "pc/skeleton.hpp"
#include "stats/discrete_ci_test.hpp"
#include "stats/simd_dispatch.hpp"

namespace fastbns {
namespace {

/// Strictly-parsed integer environment knob >= `minimum`; a set-but-
/// malformed value is a test failure, not a silent fallback (a typo'd
/// FASTBNS_FUZZ_SEEDS=1OO must not quietly soak 10 seeds).
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

TEST(EngineFuzz, EveryEngineAtEveryTierMatchesTheSequentialReference) {
  const std::vector<std::string> engines = list_engines();
  const EngineRegistry& registry = EngineRegistry::instance();
  std::vector<SimdTier> tiers{SimdTier::kScalar};
  if (active_simd_tier() != SimdTier::kScalar) {
    tiers.push_back(active_simd_tier());
  }

  const auto start = static_cast<std::uint64_t>(seed_start());
  const auto end = start + static_cast<std::uint64_t>(seed_count());
  for (std::uint64_t seed = start; seed < end; ++seed) {
    const fuzz::FuzzInstance instance = fuzz::make_instance(seed);
    const VarId n = instance.data.num_vars();

    fuzz::SkeletonFingerprint reference;
    {
      const ScopedSimdTierOverride scalar(SimdTier::kScalar);
      PcOptions reference_options;
      reference_options.engine = engine_from_string("fastbns-seq");
      const DiscreteCiTest reference_test(instance.data, {});
      reference = fuzz::fingerprint(
          learn_skeleton(n, reference_test, reference_options), n);
    }

    // Per-seed knobs, so the sweep varies scheduling shape as well as
    // data: CI-level group sizes cycle 1..8.
    const auto gs = static_cast<std::int32_t>(1 + seed % 8);
    // The process engine forks this many worker ranks per configuration;
    // cycling 1/2/4 (with a 1-or-2 thread team inside each) exercises
    // the degenerate single-rank group, an even split, and more ranks
    // than this instance has work per depth.
    const std::int32_t rank_count[] = {1, 2, 4};
    const auto ranks = rank_count[seed % 3];
    const auto rank_threads = static_cast<std::int32_t>(1 + seed % 2);

    for (const std::string& engine : engines) {
      for (const SimdTier tier : tiers) {
        const ScopedSimdTierOverride guard(tier);
        PcOptions options;
        options.engine = engine_from_string(engine);
        options.num_threads = 0;  // OMP_NUM_THREADS drives concurrency
        options.group_size = gs;
        options.rank_count = ranks;
        options.rank_threads = rank_threads;
        CiTestOptions test_options;
        test_options.sample_parallel =
            registry.create(options.engine)->wants_sample_parallel_test();
        const DiscreteCiTest test(instance.data, test_options);
        const fuzz::SkeletonFingerprint actual =
            fuzz::fingerprint(learn_skeleton(n, test, options), n);
        if (actual == reference) continue;
        ADD_FAILURE() << "seed=" << seed
                      << " engine pair fastbns-seq(scalar) vs " << engine
                      << "(tier " << to_string(tier) << ")"
                      << " gs=" << gs
                      << " ranks=" << ranks << "x" << rank_threads << ": "
                      << fuzz::describe_divergence(reference, actual, n);
      }
    }
  }
}

TEST(EngineFuzz, FingerprintDivergenceReporterNamesTheFirstDivergentEdge) {
  // The reporter is the harness's debugging surface; pin that each
  // divergence class names the offending edge (and removal depths for
  // sepset mismatches) so a fuzz failure is actionable from the log
  // alone.
  fuzz::SkeletonFingerprint a;
  a.edges = {{0, 1}, {1, 2}};
  a.sepsets = {{{0, 2}, {1}}};
  fuzz::SkeletonFingerprint b = a;
  EXPECT_TRUE(a == b);
  EXPECT_EQ(fuzz::describe_divergence(a, b, 3), "");

  b.edges = {{0, 1}};  // (1, 2) missing
  EXPECT_NE(fuzz::describe_divergence(a, b, 3).find("(1, 2)"),
            std::string::npos);

  b = a;
  b.sepsets = {{{0, 2}, {}}};  // removal depth 1 vs 0
  const std::string message = fuzz::describe_divergence(a, b, 3);
  EXPECT_NE(message.find("(0, 2)"), std::string::npos);
  EXPECT_NE(message.find("removal depth 1"), std::string::npos);
  EXPECT_NE(message.find("removal depth 0"), std::string::npos);

  b = a;
  b.sepsets.clear();  // sepset expected but missing
  EXPECT_NE(fuzz::describe_divergence(a, b, 3).find("(0, 2)"),
            std::string::npos);
}

}  // namespace
}  // namespace fastbns
