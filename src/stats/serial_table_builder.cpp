// The serial counting kernel: one table per build(), the paper's
// optimized sequential scan, with the counting data path vectorized
// where the CPU allows. At the AVX2 tier it has two passes, one for each
// kind of table the engines count.
//
// Tables with |z| <= 1 and at most kBitsetCells cells — every depth-0
// and depth-1 table of low-cardinality variables, most of the tests a
// PC run makes — are counted by bitset intersection. For each block of
// 4096 samples the pass turns each byte column into one 64-bit mask per
// value (bit i set when sample i holds the value: a compare and a
// movemask per 32 samples), then N(x=a, y=b) is popcount(X_a & Y_b)
// summed over the block's words, or popcount(X_a & Y_b & Z_c) at depth
// 1, where X_a & Y_b is formed once per block and reused for every
// value of z. The pass reads the endpoint columns directly, so it needs
// no endpoint-code stream and keeps no index beyond one block's masks
// in the thread's ScratchArena.
//
// Deeper tables are a scatter (++cells[idx]), and scatters do not
// vectorize profitably on x86 without conflict detection — but the
// index arithmetic feeding them does: idx = (((xy * c0 + z0) * c1 + z1)
// * ...) is a Horner chain over byte-wide code columns, and AVX2
// evaluates it for 8 samples per instruction. The vector pass therefore
// composes a block of indices vectorized, then retires the increments
// scalar, streaming the xy codes as bytes whenever cx * cy <= 255 — a
// quarter of the int32 stream's bandwidth.
//
// Both passes are compiled behind per-function target attributes so the
// library builds without -mavx2 and dispatches at runtime
// (stats/simd_dispatch.hpp). Every table neither pass takes — scalar
// dispatch tier, row-major context, a |z| <= 1 table past kBitsetCells,
// cell counts past 32-bit indexing — goes through the scalar pass, so
// the kernel is total and counts the same cells on every tier.
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
/// byte-wide code columns of one table stay L1-resident. The bitset pass
/// masks the same blocks: (cx + cy + cz + 1) * 512 bytes of masks.
constexpr std::size_t kBlockSamples = 4096;
constexpr std::size_t kMaskWords = kBlockSamples / 64;
static_assert(DiscreteDataset::kColumnPad % 64 == 0,
              "the bitset pass loads whole 64-sample words of a column");

/// Whether build() counts this table by bitset intersection.
bool takes_bitset_pass(SimdTier tier, const TableBuildContext& context,
                       const TableJob& job) {
  return tier == SimdTier::kAvx2 && !context.row_major &&
         job.z.size() <= 1 &&
         job.cells.size() <= table_detail::kBitsetCells;
}

#if FASTBNS_X86_SIMD

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

/// Half-width variant: indices are known to fit 16 bits and the xy codes
/// are bytes — twice the lanes, half the index traffic.
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

/// Column v with its zero padding up to the next multiple of kColumnPad
/// samples, so the bitset pass loads whole 64-sample words.
const std::uint8_t* padded_column(const DiscreteDataset& data, VarId v) {
  return data.column_block().data() +
         static_cast<std::size_t>(v) *
             DiscreteDataset::column_stride(data.num_samples());
}

/// Writes the masks of one block of `count` samples of a padded column:
/// bit i of masks[v * kMaskWords + w] is set when sample 64w + i holds
/// value v, for each v < card. Bits at or past `count` stay clear, so
/// the padding is never counted. The last value's mask is what the
/// other values leave, so it costs no compare.
__attribute__((target("avx2,popcnt"))) void build_value_masks(
    const std::uint8_t* col, std::int32_t card, std::size_t count,
    std::uint64_t* masks) {
  const std::size_t words = (count + 63) / 64;
  std::uint64_t* last =
      masks + static_cast<std::size_t>(card - 1) * kMaskWords;
  for (std::size_t w = 0; w < words; ++w) {
    const __m256i lo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + 64 * w));
    const __m256i hi = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(col + 64 * w + 32));
    std::uint64_t rest = 64 * (w + 1) <= count
                             ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << (count % 64)) - 1;
    for (std::int32_t v = 0; v + 1 < card; ++v) {
      const __m256i value = _mm256_set1_epi8(static_cast<char>(v));
      const auto low = static_cast<std::uint32_t>(
          _mm256_movemask_epi8(_mm256_cmpeq_epi8(lo, value)));
      const auto high = static_cast<std::uint32_t>(
          _mm256_movemask_epi8(_mm256_cmpeq_epi8(hi, value)));
      const std::uint64_t mask =
          (static_cast<std::uint64_t>(high) << 32 | low) & rest;
      masks[static_cast<std::size_t>(v) * kMaskWords + w] = mask;
      rest &= ~mask;
    }
    last[w] = rest;
  }
}

/// The sum over `words` (at most kMaskWords) of popcount(a[w] & b[w]),
/// four words per step through a nibble lookup: a byte of `bytes` gains
/// at most 8 per step, so the kMaskWords / 4 steps of a block fit it.
__attribute__((target("avx2,popcnt"))) std::uint64_t popcount_and(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t words) {
  static_assert(kMaskWords / 4 * 8 <= 255);
  const __m256i nibble_bits =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low4 = _mm256_set1_epi8(0x0f);
  __m256i bytes = _mm256_setzero_si256();
  std::size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i v = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w)));
    bytes = _mm256_add_epi8(
        bytes,
        _mm256_add_epi8(
            _mm256_shuffle_epi8(nibble_bits, _mm256_and_si256(v, low4)),
            _mm256_shuffle_epi8(
                nibble_bits,
                _mm256_and_si256(_mm256_srli_epi16(v, 4), low4))));
  }
  const __m256i sums = _mm256_sad_epu8(bytes, _mm256_setzero_si256());
  std::uint64_t n = static_cast<std::uint64_t>(
      _mm256_extract_epi64(sums, 0) + _mm256_extract_epi64(sums, 1) +
      _mm256_extract_epi64(sums, 2) + _mm256_extract_epi64(sums, 3));
  for (; w < words; ++w) {
    n += static_cast<std::uint64_t>(_mm_popcnt_u64(a[w] & b[w]));
  }
  return n;
}

/// The bitset pass: counts a column table with |z| <= 1 block by block,
/// each cell the popcount of its values' mask intersection.
__attribute__((target("avx2,popcnt"))) void count_by_bitsets(
    const TableBuildContext& context, const TableJob& job,
    ScratchArena& arena) {
  const DiscreteDataset& data = *context.data;
  const std::size_t m = table_detail::num_samples(context);
  const auto cx = static_cast<std::size_t>(context.cx);
  const auto cy = static_cast<std::size_t>(context.cy);
  const std::size_t cz = job.cz_total;
  const std::uint8_t* xs = padded_column(data, context.x);
  const std::uint8_t* ys = padded_column(data, context.y);
  const std::uint8_t* zs =
      job.z.empty() ? nullptr : padded_column(data, job.z[0]);
  std::uint64_t* xm =
      arena.value_masks((cx + cy + cz + 1) * kMaskWords).data();
  std::uint64_t* ym = xm + cx * kMaskWords;
  std::uint64_t* zm = ym + cy * kMaskWords;
  std::uint64_t* xy = zm + cz * kMaskWords;
  Count* cells = job.cells.data();
  std::fill(job.cells.begin(), job.cells.end(), Count{0});

  for (std::size_t s0 = 0; s0 < m; s0 += kBlockSamples) {
    const std::size_t count = std::min(kBlockSamples, m - s0);
    const std::size_t words = (count + 63) / 64;
    build_value_masks(xs + s0, context.cx, count, xm);
    build_value_masks(ys + s0, context.cy, count, ym);
    if (zs != nullptr) {
      build_value_masks(zs + s0, static_cast<std::int32_t>(cz), count, zm);
    }
    for (std::size_t a = 0; a < cx; ++a) {
      for (std::size_t b = 0; b < cy; ++b) {
        const std::uint64_t* xa = xm + a * kMaskWords;
        const std::uint64_t* yb = ym + b * kMaskWords;
        Count* row = cells + (a * cy + b) * cz;
        if (zs == nullptr) {
          *row += static_cast<Count>(popcount_and(xa, yb, words));
          continue;
        }
        for (std::size_t w = 0; w < words; ++w) xy[w] = xa[w] & yb[w];
        for (std::size_t c = 0; c < cz; ++c) {
          row[c] += static_cast<Count>(
              popcount_and(xy, zm + c * kMaskWords, words));
        }
      }
    }
  }
}

#endif  // FASTBNS_X86_SIMD

class SerialTableBuilder final : public TableBuilder {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "serial";
  }

  void build(const TableBuildContext& context, const TableJob& job) override {
#if FASTBNS_X86_SIMD
    const SimdTier tier = active_simd_tier();
    ScratchArena& arena =
        context.scratch != nullptr ? *context.scratch : fallback_arena_;
    if (takes_bitset_pass(tier, context, job)) {
      count_by_bitsets(context, job, arena);
      return;
    }
    const std::size_t d = job.z.size();
    const std::uint8_t* xy8 =
        context.xy_codes8.empty() ? nullptr : context.xy_codes8.data();
    // Tables within 65536 cells — virtually every BN table under the
    // default cell cap — take the half-width composition: twice the
    // lanes, half the index-buffer traffic.
    const bool narrow = xy8 != nullptr && job.cells.size() <= 65536;
    // Index composition only pays past depth 1: a d=1 pass is a single
    // load-add per sample, and the index round-trip costs more than it
    // vectorizes away (measured in bench_table_builder: below 1.0x at
    // d=1), so a d<=1 table the bitset pass does not take goes through
    // the scalar pass. The committed BENCH_table_builder.json (4-vCPU
    // x86-64, AVX2) shows the vector pass at 3.4x/3.8x the scalar tier
    // on munin1-analog tables at d=2/3.
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

    const std::span<std::uint16_t> idx16 =
        narrow ? arena.cell_indices16(kBlockSamples)
               : std::span<std::uint16_t>{};
    const std::span<std::uint32_t> idx32 =
        narrow ? std::span<std::uint32_t>{}
               : arena.cell_indices(kBlockSamples);

    for (std::size_t s0 = 0; s0 < m; s0 += kBlockSamples) {
      const std::size_t count = std::min(kBlockSamples, m - s0);
      if (narrow) {
        compose16_avx2(args, s0, count, idx16.data());
        retire(cells, idx16.data(), count);
      } else {
        compose_avx2(args, s0, count, idx32.data());
        retire(cells, idx32.data(), count);
      }
    }
#else
    table_detail::count_single_scalar(context, job);
#endif
  }

  [[nodiscard]] bool reads_xy_codes(const TableBuildContext& context,
                                    const TableJob& job) const override {
    return !takes_bitset_pass(active_simd_tier(), context, job);
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
