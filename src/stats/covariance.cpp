#include "stats/covariance.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <utility>

#include "stats/simd_dispatch.hpp"

// The AVX2 kernel relies on SSE2 scalar doubles for its bit-identity with
// the blocked loop, so it is built on x86-64 only.
#if defined(__x86_64__)
#include <immintrin.h>
#define FASTBNS_X86_SIMD 1
#endif

namespace fastbns {
namespace {

/// Shared normalization: raw moments -> unit-diagonal correlations with
/// the degeneracy mask. Both builders funnel through this, so they can
/// only differ in the rounding of the accumulated moments themselves.
CorrelationMatrix normalize(VarId n, Count m, const std::vector<double>& sums,
                            std::vector<double>&& cross) {
  CorrelationMatrix stats;
  stats.num_vars = n;
  stats.num_samples = m;
  stats.correlation = std::move(cross);  // holds sum(x_i * x_j) on entry
  stats.degenerate.assign(static_cast<std::size_t>(n), 0);
  const auto nn = static_cast<std::size_t>(n);
  const double inv_m = 1.0 / static_cast<double>(m);

  std::vector<double> variance(nn, 0.0);
  for (std::size_t i = 0; i < nn; ++i) {
    const double mean = sums[i] * inv_m;
    const double var =
        stats.correlation[i * nn + i] * inv_m - mean * mean;
    variance[i] = var;
    // Relative guard: a column of identical values accumulates rounding
    // noise proportional to its magnitude, so the threshold scales with
    // the mean square.
    if (!(var > kDegenerateVarianceEpsilon * (1.0 + mean * mean))) {
      stats.degenerate[i] = 1;
    }
  }
  for (std::size_t i = 0; i < nn; ++i) {
    for (std::size_t j = i; j < nn; ++j) {
      double r = 0.0;
      if (i == j) {
        r = 1.0;
      } else if (stats.degenerate[i] == 0 && stats.degenerate[j] == 0) {
        const double cov = stats.correlation[i * nn + j] * inv_m -
                           (sums[i] * inv_m) * (sums[j] * inv_m);
        r = cov / std::sqrt(variance[i] * variance[j]);
        // Rounding can push a perfect correlation epsilon outside [-1, 1];
        // atanh would turn that into inf/nan.
        if (r > 1.0) r = 1.0;
        if (r < -1.0) r = -1.0;
      }
      stats.correlation[i * nn + j] = r;
      stats.correlation[j * nn + i] = r;
    }
  }
  return stats;
}

std::vector<double> column_sums(const ContinuousDataset& data) {
  const auto n = static_cast<std::size_t>(data.num_vars());
  std::vector<double> sums(n, 0.0);
  for (VarId v = 0; v < data.num_vars(); ++v) {
    double sum = 0.0;
    for (const double value : data.column(v)) sum += value;
    sums[static_cast<std::size_t>(v)] = sum;
  }
  return sums;
}

/// Baseline: one (i, j) pair at a time, one straight accumulation loop
/// per pair. Re-streams columns n times but is trivially correct.
class ScalarCovarianceBuilder final : public CovarianceBuilder {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "scalar";
  }

  [[nodiscard]] CorrelationMatrix build(
      const ContinuousDataset& data) const override {
    const auto n = static_cast<std::size_t>(data.num_vars());
    std::vector<double> cross(n * n, 0.0);
    for (VarId i = 0; i < data.num_vars(); ++i) {
      const std::span<const double> ci = data.column(i);
      for (VarId j = i; j < data.num_vars(); ++j) {
        const std::span<const double> cj = data.column(j);
        double sum = 0.0;
        for (std::size_t s = 0; s < ci.size(); ++s) sum += ci[s] * cj[s];
        cross[static_cast<std::size_t>(i) * n + static_cast<std::size_t>(j)] =
            sum;
      }
    }
    return normalize(data.num_vars(), data.num_samples(), column_sums(data),
                     std::move(cross));
  }
};

constexpr std::size_t kTile = 8;           ///< columns per tile
constexpr std::size_t kSampleBlock = 2048;  ///< samples per block

#if FASTBNS_X86_SIMD

/// One sample of a j tile in the kernel's sample-major scratch: lane l
/// holds column j_begin + l (0.0 past a ragged tile's last column).
struct alignas(64) TileRow {
  double lane[kTile];
};

constexpr std::size_t kRows = 4;  ///< i rows per register block

/// The blocked loop's exact order of operations, vectorized across matrix
/// entries instead of across samples: each SIMD lane owns one (i, j) sum.
/// Per 2,048-sample block, a thread copies its 8-column j tile into a
/// sample-major scratch (2,048 x 8 doubles, per thread), then runs every
/// row i < j_end against it, 4 rows x 8 lanes of partials held in
/// registers. Every partial starts at 0.0, multiplies, then adds in
/// ascending sample order, and goes into `cross` in ascending block
/// order, so every bit equals the blocked loop's at any thread count.
/// Threads take whole j tiles, widest (most rows) first. `sums` is folded
/// into the same pass: one lane per column of the tile, ascending over
/// all samples and never reset, which is column_sums' order.
///
/// The target must never include "fma": GCC compiles C++ with
/// -ffp-contract=fast, so with FMA available it fuses the multiply and
/// the add into one rounding, and the bits no longer match the blocked
/// loop's.
__attribute__((target("avx2"))) void accumulate_avx2(
    const ContinuousDataset& data, std::vector<double>& cross,
    std::vector<double>& sums) {
  const auto n = static_cast<std::size_t>(data.num_vars());
  const auto m = static_cast<std::size_t>(data.num_samples());
  const std::size_t tiles = (n + kTile - 1) / kTile;
  const auto num_tiles = static_cast<std::int64_t>(tiles);
#pragma omp parallel
  {
    std::vector<TileRow> scratch(kSampleBlock);
#pragma omp for schedule(dynamic)
    for (std::int64_t t = 0; t < num_tiles; ++t) {
      const std::size_t j_begin =
          (tiles - 1 - static_cast<std::size_t>(t)) * kTile;
      const std::size_t width = std::min(kTile, n - j_begin);
      const std::size_t j_end = j_begin + width;
      const double* cols[kTile] = {};
      for (std::size_t l = 0; l < width; ++l) {
        cols[l] = data.column(static_cast<VarId>(j_begin + l)).data();
      }
      __m256d column_lo = _mm256_setzero_pd();
      __m256d column_hi = _mm256_setzero_pd();
      for (std::size_t block = 0; block < m; block += kSampleBlock) {
        const std::size_t len = std::min(kSampleBlock, m - block);
        for (std::size_t s = 0; s < len; ++s) {
          for (std::size_t l = 0; l < kTile; ++l) {
            scratch[s].lane[l] = l < width ? cols[l][block + s] : 0.0;
          }
        }
        for (std::size_t s = 0; s < len; ++s) {
          column_lo =
              _mm256_add_pd(column_lo, _mm256_load_pd(scratch[s].lane));
          column_hi =
              _mm256_add_pd(column_hi, _mm256_load_pd(scratch[s].lane + 4));
        }
        for (std::size_t i = 0; i < j_end; i += kRows) {
          // A ragged last group re-reads its last row; those lanes are
          // never written back.
          const double* rows[kRows];
          for (std::size_t r = 0; r < kRows; ++r) {
            const auto row = static_cast<VarId>(std::min(i + r, j_end - 1));
            rows[r] = data.column(row).data() + block;
          }
          __m256d partial_lo[kRows];
          __m256d partial_hi[kRows];
          for (std::size_t r = 0; r < kRows; ++r) {
            partial_lo[r] = _mm256_setzero_pd();
            partial_hi[r] = _mm256_setzero_pd();
          }
          for (std::size_t s = 0; s < len; ++s) {
            const __m256d lo = _mm256_load_pd(scratch[s].lane);
            const __m256d hi = _mm256_load_pd(scratch[s].lane + 4);
            for (std::size_t r = 0; r < kRows; ++r) {
              const __m256d x = _mm256_broadcast_sd(rows[r] + s);
              partial_lo[r] =
                  _mm256_add_pd(partial_lo[r], _mm256_mul_pd(x, lo));
              partial_hi[r] =
                  _mm256_add_pd(partial_hi[r], _mm256_mul_pd(x, hi));
            }
          }
          alignas(32) double partial[kRows][kTile];
          for (std::size_t r = 0; r < kRows; ++r) {
            _mm256_store_pd(partial[r], partial_lo[r]);
            _mm256_store_pd(partial[r] + 4, partial_hi[r]);
          }
          for (std::size_t r = 0; r < kRows && i + r < j_end; ++r) {
            const std::size_t row = i + r;
            double* out = cross.data() + row * n + j_begin;
            for (std::size_t l = row > j_begin ? row - j_begin : 0; l < width;
                 ++l) {
              out[l] += partial[r][l];
            }
          }
        }
      }
      alignas(32) double column_sum[kTile];
      _mm256_store_pd(column_sum, column_lo);
      _mm256_store_pd(column_sum + 4, column_hi);
      for (std::size_t l = 0; l < width; ++l) sums[j_begin + l] = column_sum[l];
    }
  }
}

#endif  // FASTBNS_X86_SIMD

/// Cache-blocked variant: the sample stream is cut into blocks that keep
/// a tile of columns resident, and OpenMP parallelizes across tile
/// *pairs* — never across the samples of one entry — so each (i, j) sum
/// is accumulated by exactly one thread in ascending block order and the
/// matrix is bit-identical at every thread count. Each entry's per-block
/// partial is one serial add chain: without fast-math the compiler may
/// not reassociate it, so this loop runs one entry at a time. On the AVX2
/// tier, accumulate_avx2 runs the same order of operations with one SIMD
/// lane per entry; this loop is the fallback below it and off x86-64.
class BlockedCovarianceBuilder final : public CovarianceBuilder {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "blocked";
  }

  [[nodiscard]] CorrelationMatrix build(
      const ContinuousDataset& data) const override {
    const auto n = static_cast<std::size_t>(data.num_vars());
    const auto m = static_cast<std::size_t>(data.num_samples());
    std::vector<double> cross(n * n, 0.0);
#if FASTBNS_X86_SIMD
    if (active_simd_tier() == SimdTier::kAvx2) {
      std::vector<double> sums(n, 0.0);
      accumulate_avx2(data, cross, sums);
      return normalize(data.num_vars(), data.num_samples(), sums,
                       std::move(cross));
    }
#endif
    const std::size_t tiles = (n + kTile - 1) / kTile;
    // Upper-triangular tile pairs, flattened for the parallel loop.
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    pairs.reserve(tiles * (tiles + 1) / 2);
    for (std::size_t ti = 0; ti < tiles; ++ti) {
      for (std::size_t tj = ti; tj < tiles; ++tj) pairs.push_back({ti, tj});
    }
    const auto num_pairs = static_cast<std::int64_t>(pairs.size());
#pragma omp parallel for schedule(dynamic)
    for (std::int64_t p = 0; p < num_pairs; ++p) {
      const std::size_t i_begin = pairs[static_cast<std::size_t>(p)].first * kTile;
      const std::size_t j_begin = pairs[static_cast<std::size_t>(p)].second * kTile;
      const std::size_t i_end = std::min(i_begin + kTile, n);
      const std::size_t j_end = std::min(j_begin + kTile, n);
      for (std::size_t block = 0; block < m; block += kSampleBlock) {
        const std::size_t block_end = std::min(block + kSampleBlock, m);
        for (std::size_t i = i_begin; i < i_end; ++i) {
          const std::span<const double> ci =
              data.column(static_cast<VarId>(i));
          for (std::size_t j = std::max(i, j_begin); j < j_end; ++j) {
            const std::span<const double> cj =
                data.column(static_cast<VarId>(j));
            double partial = 0.0;
            for (std::size_t s = block; s < block_end; ++s) {
              partial += ci[s] * cj[s];
            }
            cross[i * n + j] += partial;
          }
        }
      }
    }
    return normalize(data.num_vars(), data.num_samples(), column_sums(data),
                     std::move(cross));
  }
};

}  // namespace

std::unique_ptr<CovarianceBuilder> make_covariance_builder(
    const std::string& name) {
  if (name == "scalar") return std::make_unique<ScalarCovarianceBuilder>();
  if (name == "blocked" || name == "auto") {
    return std::make_unique<BlockedCovarianceBuilder>();
  }
  std::string message = "make_covariance_builder: \"" + name +
                        "\" is not a known builder; known builders:";
  for (const std::string& known : list_covariance_builders()) {
    message += ' ';
    message += known;
  }
  throw std::invalid_argument(message);
}

std::vector<std::string> list_covariance_builders() {
  return {"auto", "blocked", "scalar"};
}

}  // namespace fastbns
