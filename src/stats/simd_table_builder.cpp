// The SIMD counting kernel: the batched kernel's shape-run structure
// with the per-sample cell-index composition vectorized.
//
// A contingency count is a scatter (++cells[idx]) and scatters do not
// vectorize profitably on x86 without conflict detection — but the index
// arithmetic feeding them does: idx = (((xy * c0 + z0) * c1 + z1) * ...)
// is a Horner chain over byte-wide code columns, and AVX2 evaluates it
// for 8 samples per instruction (SSE4.2 for 4). The kernel therefore
// composes a block of indices vectorized, then retires the increments
// scalar; on the shape-runs of one endpoint group the xy codes are
// streamed once per block — as bytes whenever cx * cy <= 255, a quarter
// of the int32 stream's bandwidth — and shared across the run's tables.
//
// Everything is compiled behind per-function target attributes so the
// library builds without -mavx2 and dispatches at runtime
// (stats/simd_dispatch.hpp). Any run the vector pass cannot take —
// scalar dispatch tier, row-major context, marginal tables, cell counts
// past 32-bit indexing — falls back to the batched scalar pass, so the
// kernel is always total and bit-identical to the other builders.
#include <cstring>
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
/// packed code streams of one run stay L1-resident.
constexpr std::size_t kBlockSamples = 4096;

/// One job's flattened composition inputs: the shared xy codes (the
/// stream the context carries) and the job's conditioning columns with
/// their Horner multipliers.
struct ComposeArgs {
  const std::int32_t* xy32 = nullptr;
  const std::uint8_t* xy8 = nullptr;  ///< non-null when cx * cy <= 255
  const std::uint8_t* const* cols = nullptr;
  const std::int32_t* cards = nullptr;
  std::size_t depth = 0;
};

/// idx = ((xy * c0 + z0) * c1 + z1)... — the weight of xy works out to
/// cz_total, so this is exactly the scalar kernels' xy * cz_total + zc.
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

__attribute__((target("sse4.2"))) void compose_sse42(const ComposeArgs& a,
                                                     std::size_t s0,
                                                     std::size_t count,
                                                     std::uint32_t* idx) {
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const std::size_t s = s0 + i;
    __m128i acc;
    if (a.xy8 != nullptr) {
      std::int32_t bytes;
      std::memcpy(&bytes, a.xy8 + s, sizeof(bytes));
      acc = _mm_cvtepu8_epi32(_mm_cvtsi32_si128(bytes));
    } else {
      acc = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a.xy32 + s));
    }
    for (std::size_t l = 0; l < a.depth; ++l) {
      std::int32_t bytes;
      std::memcpy(&bytes, a.cols[l] + s, sizeof(bytes));
      const __m128i vals = _mm_cvtepu8_epi32(_mm_cvtsi32_si128(bytes));
      acc = _mm_add_epi32(_mm_mullo_epi32(acc, _mm_set1_epi32(a.cards[l])),
                          vals);
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(idx + i), acc);
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

__attribute__((target("sse4.2"))) void compose16_sse42(const ComposeArgs& a,
                                                       std::size_t s0,
                                                       std::size_t count,
                                                       std::uint16_t* idx) {
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const std::size_t s = s0 + i;
    __m128i acc = _mm_cvtepu8_epi16(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a.xy8 + s)));
    for (std::size_t l = 0; l < a.depth; ++l) {
      const __m128i vals = _mm_cvtepu8_epi16(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a.cols[l] + s)));
      acc = _mm_add_epi16(
          _mm_mullo_epi16(acc,
                          _mm_set1_epi16(static_cast<short>(a.cards[l]))),
          vals);
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(idx + i), acc);
  }
  for (; i < count; ++i) {
    idx[i] = static_cast<std::uint16_t>(compose_one(a, s0 + i));
  }
}

#endif  // FASTBNS_X86_SIMD

ComposeFn compose_for(SimdTier tier) {
#if FASTBNS_X86_SIMD
  if (tier == SimdTier::kAvx2) return &compose_avx2;
  if (tier == SimdTier::kSse42) return &compose_sse42;
#else
  (void)tier;
#endif
  return &compose_scalar;
}

Compose16Fn compose16_for(SimdTier tier) {
#if FASTBNS_X86_SIMD
  if (tier == SimdTier::kAvx2) return &compose16_avx2;
  if (tier == SimdTier::kSse42) return &compose16_sse42;
#else
  (void)tier;
#endif
  return &compose16_scalar;
}

class SimdTableBuilder final : public TableBuilder {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "simd";
  }

  void build(const TableBuildContext& context, const TableJob& job) override {
    // A run of one still wins: the index composition is vectorized even
    // without tables to share the pass with.
    TableJob single = job;
    const std::size_t first = 0;
    build_run(context, std::span<TableJob>(&single, 1),
              std::span<const std::size_t>(&first, 1));
  }

  void build_batch(const TableBuildContext& context,
                   std::span<TableJob> jobs) override {
    table_detail::for_each_shape_run(
        jobs, order_,
        [&](std::span<const std::size_t> run) { build_run(context, jobs, run); });
  }

 private:
  void build_run(const TableBuildContext& context, std::span<TableJob> jobs,
                 std::span<const std::size_t> run) {
    const SimdTier tier = active_simd_tier();
    const TableJob& first = jobs[run.front()];
    const std::size_t d = first.z.size();
    const std::uint8_t* xy8 =
        context.xy_codes8.empty() ? nullptr : context.xy_codes8.data();
    // Tables within 65536 cells — virtually every BN table under the
    // default cell cap — take the half-width composition: twice the
    // lanes, half the index-buffer traffic.
    const bool narrow = xy8 != nullptr && first.cells.size() <= 65536;
    // Vectorization only pays past depth 1: a d=1 pass is a single
    // load-add per sample, and the index round-trip costs more than it
    // vectorizes away (measured in bench_table_builder: below 1.0x at
    // d=1 before this fallback), so d<=1 runs take the scalar passes —
    // a single small table the split loop (count_split). The committed
    // BENCH_table_builder.json (4-vCPU x86-64, AVX2) shows this pass at
    // 1.6x/3.9x the batched pass at d=2/3 on 8-table uniform runs, and
    // 2.8x/3.9x the scalar pass on single munin1-analog tables.
    const bool vectorizable =
        tier != SimdTier::kScalar && !context.row_major && d >= 2 &&
        (narrow ||
         first.cells.size() <=
             static_cast<std::size_t>(
                 std::numeric_limits<std::int32_t>::max()));
    if (!vectorizable) {
      table_detail::count_run_scalar(context, jobs, run, plans_);
      return;
    }

    const std::size_t m = table_detail::num_samples(context);
    const std::size_t k = run.size();
    plans_.clear();
    for (const std::size_t j : run) {
      std::fill(jobs[j].cells.begin(), jobs[j].cells.end(), Count{0});
      plans_.emplace_back(context, jobs[j]);
    }

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
      for (std::size_t j = 0; j < k; ++j) {
        const ComposeArgs args{context.xy_codes.data(), xy8,
                               plans_[j].cols.data(), plans_[j].cards.data(),
                               d};
        Count* cells = jobs[run[j]].cells.data();
        if (narrow) {
          compose16(args, s0, count, idx16.data());
          retire(cells, idx16.data(), count);
        } else {
          compose32(args, s0, count, idx32.data());
          retire(cells, idx32.data(), count);
        }
      }
    }
  }

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

  std::vector<std::size_t> order_;
  std::vector<ZPlan> plans_;
  ScratchArena fallback_arena_;
};

}  // namespace

std::unique_ptr<TableBuilder> make_simd_table_builder() {
  return std::make_unique<SimdTableBuilder>();
}

}  // namespace fastbns
