#include "stats/simd_dispatch.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <string>

namespace fastbns {
namespace {

#if defined(__x86_64__) || defined(__i386__)
SimdTier probe_cpu() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") ? SimdTier::kAvx2 : SimdTier::kScalar;
}
#else
SimdTier probe_cpu() noexcept { return SimdTier::kScalar; }
#endif

/// FASTBNS_SIMD cap, read once; absent/empty/unknown leave the detected
/// tier in force (unknown values must not silently disable the kernel).
SimdTier env_cap() noexcept {
  const char* raw = std::getenv("FASTBNS_SIMD");
  if (raw == nullptr) return SimdTier::kAvx2;
  std::string value(raw);
  std::transform(value.begin(), value.end(), value.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  // "sse4.2" and its spellings name a CPU without AVX2: the scalar tier.
  if (value == "off" || value == "0" || value == "scalar" || value == "none" ||
      value == "sse4.2" || value == "sse42" || value == "sse") {
    return SimdTier::kScalar;
  }
  return SimdTier::kAvx2;
}

std::optional<SimdTier>& override_slot() noexcept {
  static std::optional<SimdTier> slot;
  return slot;
}

}  // namespace

std::string_view to_string(SimdTier tier) noexcept {
  return tier == SimdTier::kAvx2 ? "avx2" : "scalar";
}

SimdTier detected_simd_tier() noexcept {
  static const SimdTier tier = probe_cpu();
  return tier;
}

SimdTier active_simd_tier() noexcept {
  static const SimdTier capped = std::min(detected_simd_tier(), env_cap());
  const std::optional<SimdTier>& override = override_slot();
  return override.has_value() ? std::min(capped, *override) : capped;
}

void set_simd_tier_override(std::optional<SimdTier> tier) noexcept {
  override_slot() = tier;
}

}  // namespace fastbns
