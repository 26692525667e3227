// Runtime CPU dispatch for the SIMD data paths.
//
// The serial table builder (stats/serial_table_builder.cpp) compiles its
// AVX2 index composition, and the blocked covariance builder its AVX2
// kernel, behind per-function target attributes, so the library builds
// on any x86 toolchain without -mavx2 and still runs the AVX2 pass when
// the *executing* CPU supports it. This header is the single source of
// that decision: a cached CPUID probe, clamped down by the FASTBNS_SIMD
// environment variable ("off"/"scalar", "avx2"; "sse4.2" means "no
// AVX2" and caps at scalar) and by a programmatic override tests use to
// force the scalar tier on hardware that would otherwise never take it.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace fastbns {

/// Dispatch tiers, ordered: a higher tier implies every lower one.
enum class SimdTier : std::uint8_t {
  kScalar = 0,  ///< portable scalar passes, no vector instructions
  kAvx2 = 1,    ///< 256-bit index composition (8 samples per op)
};

[[nodiscard]] std::string_view to_string(SimdTier tier) noexcept;

/// Highest tier the running CPU supports (CPUID, probed once).
[[nodiscard]] SimdTier detected_simd_tier() noexcept;

/// Tier the SIMD data paths dispatch to right now: the detected tier,
/// clamped down by FASTBNS_SIMD (read once per process) and by the
/// current override. Never exceeds detected_simd_tier(), so the
/// dispatcher cannot select instructions the CPU lacks.
[[nodiscard]] SimdTier active_simd_tier() noexcept;

/// Clamps active_simd_tier() to `tier` until cleared with std::nullopt.
/// Not thread-safe; intended for test setup and single-threaded CLI
/// startup.
void set_simd_tier_override(std::optional<SimdTier> tier) noexcept;

/// RAII override for tests that pin the fallback paths.
class ScopedSimdTierOverride {
 public:
  explicit ScopedSimdTierOverride(SimdTier tier) noexcept {
    set_simd_tier_override(tier);
  }
  ~ScopedSimdTierOverride() { set_simd_tier_override(std::nullopt); }
  ScopedSimdTierOverride(const ScopedSimdTierOverride&) = delete;
  ScopedSimdTierOverride& operator=(const ScopedSimdTierOverride&) = delete;
};

}  // namespace fastbns
