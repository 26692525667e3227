#include "stats/discrete_ci_test.hpp"

#include <array>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "stats/special_functions.hpp"

namespace fastbns {
namespace {

/// The conservative outcome of a test whose table exceeds max_cells: the
/// edge is kept (dependent, p = 0, df = -1 flags the skip).
constexpr CiResult oversized_result() {
  return CiResult{0.0, 0.0, -1, /*independent=*/false};
}

/// Counts below this read k ln k from the table; larger ones take the
/// logarithm. 4,096 entries (32 KiB) hold every count of a table over at
/// most 4,095 samples and the small cells of larger ones. The size is
/// fixed rather than the dataset's sample count, so a large dataset adds
/// no memory for it (m + 1 entries would be 160 KB at 20,000 samples,
/// in every forked rank too).
constexpr std::size_t kKLogKEntries = 4096;

/// k ln k for k < kKLogKEntries, with 0 ln 0 = 0. One table per process,
/// filled on first use: every test, clone and dataset reads the same one,
/// so constructing a test, which every learn does, costs a guard check
/// instead of 4,096 logarithms.
const std::array<double, kKLogKEntries>& k_log_k_table() {
  static const std::array<double, kKLogKEntries> table = [] {
    std::array<double, kKLogKEntries> values{};
    for (std::size_t k = 1; k < kKLogKEntries; ++k) {
      const double dk = static_cast<double>(k);
      values[k] = dk * std::log(dk);
    }
    return values;
  }();
  return table;
}

double k_log_k(const std::array<double, kKLogKEntries>& table, Count k) {
  const auto index = static_cast<std::size_t>(k);
  if (index < kKLogKEntries) return table[index];
  const double dk = static_cast<double>(k);
  return dk * std::log(dk);
}

}  // namespace

DiscreteCiTest::DiscreteCiTest(const DiscreteDataset& data, CiTestOptions options)
    : data_(&data),
      options_(std::move(options)),
      sample_parallel_build_(options_.sample_parallel),
      serial_builder_(make_serial_table_builder()),
      sample_builder_(make_sample_parallel_table_builder()) {
  if (options_.use_row_major || options_.sample_parallel) {
    if (!data.has_row_major() && options_.use_row_major) {
      throw std::invalid_argument(
          "DiscreteCiTest: row-major access requested but dataset has no "
          "row-major buffer");
    }
  }
  if (!options_.use_row_major && !data.has_column_major()) {
    throw std::invalid_argument(
        "DiscreteCiTest: column-major access requires a column-major buffer");
  }
  // Fill the k ln k table here, before any engine forks: the process
  // engine's ranks then inherit it instead of each filling its own.
  static_cast<void>(k_log_k_table());
}

std::size_t DiscreteCiTest::conditioning_cells(VarId x, VarId y,
                                               std::span<const VarId> z) const {
  // The cap governs the cells the test allocates: the full cx * cy * cz
  // table, not just the conditioning product.
  const auto xy_cells = static_cast<std::size_t>(data_->cardinality(x)) *
                        static_cast<std::size_t>(data_->cardinality(y));
  if (xy_cells > options_.max_cells) return 0;
  std::size_t cz_total = 1;
  for (const VarId zi : z) {
    cz_total *= static_cast<std::size_t>(data_->cardinality(zi));
    if (xy_cells * cz_total > options_.max_cells) return 0;
  }
  return cz_total;
}

void DiscreteCiTest::set_endpoints(VarId x, VarId y) {
  context_ =
      make_endpoint_context(*data_, x, y, options_.use_row_major, scratch_);
  cx_ = context_.cx;
  cy_ = context_.cy;
}

void DiscreteCiTest::count(std::span<const VarId> z, std::size_t cz_total) {
  cells_.resize(static_cast<std::size_t>(cx_) * static_cast<std::size_t>(cy_) *
                cz_total);
  const TableJob job{z, cz_total, cells_};
  TableBuilder& builder = active_builder();
  if (context_.xy_codes.empty() && context_.xy_codes8.empty() &&
      builder.reads_xy_codes(context_, job)) {
    add_xy_codes(context_);
  }
  builder.build(context_, job);
}

TableBuilder& DiscreteCiTest::active_builder() const noexcept {
  return sample_parallel_build_ ? *sample_builder_ : *serial_builder_;
}

std::string_view DiscreteCiTest::table_builder_name() const noexcept {
  return serial_builder_->name();
}

std::uint64_t DiscreteCiTest::config_token() const noexcept {
  // FNV-1a over every clone-visible knob. A collision between two
  // *different* configurations would make the clone cache keep stale
  // clones — the exact bug this fingerprint exists to prevent — so the
  // hash must stay strong and every knob must be folded in; the only
  // cheap failure mode is a knob folded in unnecessarily (a spurious
  // re-clone).
  std::uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffU;
      hash *= 1099511628211ULL;
    }
  };
  mix(reinterpret_cast<std::uintptr_t>(data_));
  std::uint64_t alpha_bits = 0;
  static_assert(sizeof(alpha_bits) == sizeof(options_.alpha));
  std::memcpy(&alpha_bits, &options_.alpha, sizeof(alpha_bits));
  mix(alpha_bits);
  mix(static_cast<std::uint64_t>(options_.max_cells));
  mix(static_cast<std::uint64_t>(options_.use_row_major));
  mix(static_cast<std::uint64_t>(options_.sample_parallel));
  mix(static_cast<std::uint64_t>(sample_parallel_build_));
  return hash;
}

bool DiscreteCiTest::set_sample_parallel(bool enabled) {
  sample_parallel_build_ = enabled;
  return true;
}

CiResult DiscreteCiTest::evaluate(std::span<const Count> cells,
                                  std::size_t cz_total) const {
  const auto cx = static_cast<std::size_t>(cx_);
  const auto cy = static_cast<std::size_t>(cy_);
  const std::array<double, kKLogKEntries>& table = k_log_k_table();

  // G^2 = 2 sum N ln(N * Nz / (Nxz * Nyz))
  //     = 2 [sum N ln N - sum Nxz ln Nxz - sum Nyz ln Nyz + sum Nz ln Nz],
  // every term an integer count's k ln k: no logarithm or division per
  // cell while the counts stay in the table.
  margin_xz_.assign(cx * cz_total, 0);
  margin_yz_.assign(cy * cz_total, 0);
  margin_z_.assign(cz_total, 0);
  double half_statistic = 0.0;
  for (std::size_t x = 0; x < cx; ++x) {
    for (std::size_t y = 0; y < cy; ++y) {
      const Count* row = cells.data() + (x * cy + y) * cz_total;
      for (std::size_t zc = 0; zc < cz_total; ++zc) {
        const Count nxyz = row[zc];
        margin_xz_[x * cz_total + zc] += nxyz;
        margin_yz_[y * cz_total + zc] += nxyz;
        margin_z_[zc] += nxyz;
        half_statistic += k_log_k(table, nxyz);
      }
    }
  }
  for (const Count n : margin_xz_) half_statistic -= k_log_k(table, n);
  for (const Count n : margin_yz_) half_statistic -= k_log_k(table, n);
  for (const Count n : margin_z_) half_statistic += k_log_k(table, n);
  double statistic = 2.0 * half_statistic;
  if (statistic < 0.0) statistic = 0.0;  // guard tiny negative round-off

  // Standard degrees of freedom: (|X|-1)(|Y|-1) * prod |Z_i|.
  const std::int64_t df = static_cast<std::int64_t>(cx - 1) *
                          static_cast<std::int64_t>(cy - 1) *
                          static_cast<std::int64_t>(cz_total);

  CiResult result;
  result.degrees_of_freedom = df;
  if (df <= 0) {
    // Degenerate table: no evidence of dependence is measurable.
    result.statistic = 0.0;
    result.p_value = 1.0;
    result.independent = true;
    return result;
  }

  result.statistic = statistic;
  result.p_value = chi_square_survival(statistic, static_cast<double>(df));
  result.independent = result.p_value > options_.alpha;
  return result;
}

CiResult DiscreteCiTest::test(VarId x, VarId y, std::span<const VarId> z) {
  const std::size_t cz_total = conditioning_cells(x, y, z);
  if (cz_total == 0) {
    ++tests_performed_;
    return oversized_result();
  }
  set_endpoints(x, y);
  count(z, cz_total);
  ++tests_performed_;
  return evaluate(cells_, cz_total);
}

void DiscreteCiTest::begin_group(VarId x, VarId y) {
  CiTest::begin_group(x, y);
  if (context_.x != x || context_.y != y) set_endpoints(x, y);
}

CiResult DiscreteCiTest::test_in_group(std::span<const VarId> z) {
  assert(group_x_ != kInvalidVar && group_y_ != kInvalidVar);
  const std::size_t cz_total = conditioning_cells(group_x_, group_y_, z);
  if (cz_total == 0) {
    ++tests_performed_;
    return oversized_result();
  }
  // The group's tables share one context, and its code stream once a
  // table needs it — the paper's "reuse Vi and Vj" memory-access saving.
  count(z, cz_total);
  ++tests_performed_;
  return evaluate(cells_, cz_total);
}

std::unique_ptr<CiTest> DiscreteCiTest::clone() const {
  auto copy = std::make_unique<DiscreteCiTest>(*data_, options_);
  // Preserve a runtime set_sample_parallel() retarget: clones must build
  // tables the way the source currently does, not the way it was
  // constructed.
  copy->sample_parallel_build_ = sample_parallel_build_;
  return copy;
}

}  // namespace fastbns
