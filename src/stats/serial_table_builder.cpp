// The serial counting kernel: one table per build(), the paper's
// optimized sequential scan, with the per-sample cell-index composition
// vectorized where the CPU allows.
//
// A contingency count is a scatter (++cells[idx]) and scatters do not
// vectorize profitably on x86 without conflict detection — but the index
// arithmetic feeding them does: idx = (((xy * c0 + z0) * c1 + z1) * ...)
// is a Horner chain over byte-wide code columns, and AVX2 evaluates it
// for 8 samples per instruction. The vector pass therefore composes a
// block of indices vectorized, then retires the increments scalar,
// streaming the xy codes as bytes whenever cx * cy <= 255 — a quarter of
// the int32 stream's bandwidth.
//
// The vector code is compiled behind per-function target attributes so
// the library builds without -mavx2 and dispatches at runtime
// (stats/simd_dispatch.hpp). Any table the vector pass cannot take —
// scalar dispatch tier, row-major context, |z| <= 1, cell counts past
// 32-bit indexing — goes through the scalar pass, so the kernel is
// total and counts the same cells on every tier.
#include <limits>

#include "stats/simd_dispatch.hpp"
#include "stats/table_builder.hpp"
#include "stats/table_builder_detail.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define FASTBNS_X86_SIMD 1
#endif

namespace fastbns {
namespace {

using table_detail::ZPlan;

/// Samples composed per pass; the uint32 index block (16 KiB) plus the
/// byte-wide code columns of one table stay L1-resident.
constexpr std::size_t kBlockSamples = 4096;

/// One table's flattened composition inputs: the xy codes (the stream
/// the context carries) and the conditioning columns with their Horner
/// multipliers.
struct ComposeArgs {
  const std::int32_t* xy32 = nullptr;
  const std::uint8_t* xy8 = nullptr;  ///< non-null when cx * cy <= 255
  const std::uint8_t* const* cols = nullptr;
  const std::int32_t* cards = nullptr;
  std::size_t depth = 0;
};

/// idx = ((xy * c0 + z0) * c1 + z1)... — the weight of xy works out to
/// cz_total, so this is exactly the scalar pass's xy * cz_total + zc.
inline std::uint32_t compose_one(const ComposeArgs& a, std::size_t s) {
  std::uint32_t acc = a.xy8 != nullptr
                          ? a.xy8[s]
                          : static_cast<std::uint32_t>(a.xy32[s]);
  for (std::size_t l = 0; l < a.depth; ++l) {
    acc = acc * static_cast<std::uint32_t>(a.cards[l]) + a.cols[l][s];
  }
  return acc;
}

using ComposeFn = void (*)(const ComposeArgs&, std::size_t, std::size_t,
                           std::uint32_t*);
/// Half-width variant: indices are known to fit 16 bits and the xy codes
/// are bytes — twice the lanes, half the index traffic.
using Compose16Fn = void (*)(const ComposeArgs&, std::size_t, std::size_t,
                             std::uint16_t*);

void compose_scalar(const ComposeArgs& a, std::size_t s0, std::size_t count,
                    std::uint32_t* idx) {
  for (std::size_t i = 0; i < count; ++i) idx[i] = compose_one(a, s0 + i);
}

void compose16_scalar(const ComposeArgs& a, std::size_t s0, std::size_t count,
                      std::uint16_t* idx) {
  for (std::size_t i = 0; i < count; ++i) {
    idx[i] = static_cast<std::uint16_t>(compose_one(a, s0 + i));
  }
}

#if FASTBNS_X86_SIMD

__attribute__((target("avx2"))) void compose_avx2(const ComposeArgs& a,
                                                  std::size_t s0,
                                                  std::size_t count,
                                                  std::uint32_t* idx) {
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const std::size_t s = s0 + i;
    __m256i acc =
        a.xy8 != nullptr
            ? _mm256_cvtepu8_epi32(_mm_loadl_epi64(
                  reinterpret_cast<const __m128i*>(a.xy8 + s)))
            : _mm256_loadu_si256(
                  reinterpret_cast<const __m256i*>(a.xy32 + s));
    for (std::size_t l = 0; l < a.depth; ++l) {
      const __m256i vals = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(a.cols[l] + s)));
      acc = _mm256_add_epi32(
          _mm256_mullo_epi32(acc, _mm256_set1_epi32(a.cards[l])), vals);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(idx + i), acc);
  }
  for (; i < count; ++i) idx[i] = compose_one(a, s0 + i);
}

__attribute__((target("avx2"))) void compose16_avx2(const ComposeArgs& a,
                                                    std::size_t s0,
                                                    std::size_t count,
                                                    std::uint16_t* idx) {
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const std::size_t s = s0 + i;
    __m256i acc = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a.xy8 + s)));
    for (std::size_t l = 0; l < a.depth; ++l) {
      const __m256i vals = _mm256_cvtepu8_epi16(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(a.cols[l] + s)));
      acc = _mm256_add_epi16(
          _mm256_mullo_epi16(acc, _mm256_set1_epi16(
                                      static_cast<short>(a.cards[l]))),
          vals);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(idx + i), acc);
  }
  for (; i < count; ++i) {
    idx[i] = static_cast<std::uint16_t>(compose_one(a, s0 + i));
  }
}

#endif  // FASTBNS_X86_SIMD

ComposeFn compose_for(SimdTier tier) {
#if FASTBNS_X86_SIMD
  if (tier == SimdTier::kAvx2) return &compose_avx2;
#else
  (void)tier;
#endif
  return &compose_scalar;
}

Compose16Fn compose16_for(SimdTier tier) {
#if FASTBNS_X86_SIMD
  if (tier == SimdTier::kAvx2) return &compose16_avx2;
#else
  (void)tier;
#endif
  return &compose16_scalar;
}

class SerialTableBuilder final : public TableBuilder {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "serial";
  }

  void build(const TableBuildContext& context, const TableJob& job) override {
    const SimdTier tier = active_simd_tier();
    const std::size_t d = job.z.size();
    const std::uint8_t* xy8 =
        context.xy_codes8.empty() ? nullptr : context.xy_codes8.data();
    // Tables within 65536 cells — virtually every BN table under the
    // default cell cap — take the half-width composition: twice the
    // lanes, half the index-buffer traffic.
    const bool narrow = xy8 != nullptr && job.cells.size() <= 65536;
    // Vectorization only pays past depth 1: a d=1 pass is a single
    // load-add per sample, and the index round-trip costs more than it
    // vectorizes away (measured in bench_table_builder: below 1.0x at
    // d=1), so d<=1 tables take the scalar pass — a small one the split
    // loop (count_split). The committed BENCH_table_builder.json
    // (4-vCPU x86-64, AVX2) shows the vector pass at 2.8x/3.9x the
    // scalar tier on munin1-analog tables at d=2/3.
    const bool vectorizable =
        tier != SimdTier::kScalar && !context.row_major && d >= 2 &&
        (narrow ||
         job.cells.size() <=
             static_cast<std::size_t>(
                 std::numeric_limits<std::int32_t>::max()));
    if (!vectorizable) {
      table_detail::count_single_scalar(context, job);
      return;
    }

    const std::size_t m = table_detail::num_samples(context);
    std::fill(job.cells.begin(), job.cells.end(), Count{0});
    const ZPlan plan(context, job);
    const ComposeArgs args{context.xy_codes.data(), xy8, plan.cols.data(),
                           plan.cards.data(), d};
    Count* cells = job.cells.data();

    ScratchArena& arena =
        context.scratch != nullptr ? *context.scratch : fallback_arena_;
    const Compose16Fn compose16 = compose16_for(tier);
    const ComposeFn compose32 = compose_for(tier);
    const std::span<std::uint16_t> idx16 =
        narrow ? arena.cell_indices16(kBlockSamples)
               : std::span<std::uint16_t>{};
    const std::span<std::uint32_t> idx32 =
        narrow ? std::span<std::uint32_t>{}
               : arena.cell_indices(kBlockSamples);

    for (std::size_t s0 = 0; s0 < m; s0 += kBlockSamples) {
      const std::size_t count = std::min(kBlockSamples, m - s0);
      if (narrow) {
        compose16(args, s0, count, idx16.data());
        retire(cells, idx16.data(), count);
      } else {
        compose32(args, s0, count, idx32.data());
        retire(cells, idx32.data(), count);
      }
    }
  }

 private:
  template <typename Index>
  static void retire(Count* cells, const Index* idx, std::size_t count) {
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
      ++cells[idx[i]];
      ++cells[idx[i + 1]];
      ++cells[idx[i + 2]];
      ++cells[idx[i + 3]];
    }
    for (; i < count; ++i) ++cells[idx[i]];
  }

  ScratchArena fallback_arena_;
};

}  // namespace

std::unique_ptr<TableBuilder> make_serial_table_builder() {
  return std::make_unique<SerialTableBuilder>();
}

}  // namespace fastbns
