// Internals shared by the TableBuilder kernels: the scalar and
// sample-parallel passes in table_builder.cpp and the serial kernel's
// bitset and vector passes in serial_table_builder.cpp (a separate TU so
// their per-function target attributes stay contained). Not part of the
// public API.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <span>

#include "stats/table_builder.hpp"

namespace fastbns::table_detail {

/// The most conditioning variables one table job carries. It must hold
/// every set the driver reaches (kMaxConditioningDepth in
/// pc/edge_work.hpp), which skeleton.cpp checks at compile time.
inline constexpr std::size_t kMaxDepth = 32;

/// Per-job access plan: conditioning column pointers (column-major) or
/// variable ids (row-major) plus cardinalities, gathered once per build.
/// The dataset keeps every value below its cardinality, so the codes
/// index the cells as read.
struct ZPlan {
  std::array<const std::uint8_t*, kMaxDepth> cols{};
  std::array<std::int32_t, kMaxDepth> cards{};
  std::span<const VarId> vars;
  std::size_t d = 0;

  ZPlan(const TableBuildContext& context, const TableJob& job)
      : vars(job.z), d(job.z.size()) {
    assert(d <= kMaxDepth);
    for (std::size_t i = 0; i < d; ++i) {
      const VarId v = job.z[i];
      cards[i] = context.data->cardinality(v);
      if (!context.row_major) cols[i] = context.data->column(v).data();
    }
  }

  [[nodiscard]] std::size_t code_column(std::size_t s) const {
    std::size_t zc = 0;
    for (std::size_t i = 0; i < d; ++i) {
      zc = zc * static_cast<std::size_t>(cards[i]) + cols[i][s];
    }
    return zc;
  }

  [[nodiscard]] std::size_t code_row(const DataValue* row) const {
    std::size_t zc = 0;
    for (std::size_t i = 0; i < d; ++i) {
      zc = zc * static_cast<std::size_t>(cards[i]) + row[vars[i]];
    }
    return zc;
  }
};

/// The largest table the serial kernel's bitset pass counts. The pass
/// costs one AND and popcount per cell per 64 samples, so it grows with
/// the cells while the scalar pass costs about one increment per sample:
/// on 20k uniform samples the two tie between 64 and 128 cells. 64
/// covers every depth-0 and depth-1 table of cardinality-4 variables;
/// bench_table_builder's munin1 depth-1 row (tables of 12 to 64 cells)
/// reads the AVX2 tier at 2.44x the scalar tier in the committed
/// BENCH_table_builder.json.
inline constexpr std::size_t kBitsetCells = 64;

/// Calls `fn` with a pointer to the endpoint-code stream the context
/// carries: the byte stream when set, the int32 stream otherwise.
template <typename Fn>
void with_xy_codes(const TableBuildContext& context, Fn&& fn) {
  if (!context.xy_codes8.empty()) {
    fn(context.xy_codes8.data());
  } else {
    fn(context.xy_codes.data());
  }
}

inline std::size_t num_samples(const TableBuildContext& context) {
  return static_cast<std::size_t>(context.data->num_samples());
}

inline const DataValue* row_base(const TableBuildContext& context) {
  return context.row_major ? context.data->row(0).data() : nullptr;
}

/// Counts one table into `cells`, overwriting them: ++cells[index(s)]
/// for each of the m samples.
template <typename IndexFn>
void count_one_copy(std::size_t m, std::span<Count> cells, IndexFn index) {
  std::fill(cells.begin(), cells.end(), Count{0});
  for (std::size_t s = 0; s < m; ++s) ++cells[index(s)];
}

/// Calls `fn` with the cell index of one table — index(s) is sample s's
/// cell in job.cells — specialized for marginal tables, row-major
/// contexts and |z| = 1 on columns, the general ZPlan column code
/// otherwise.
template <typename Fn>
void with_cell_index(const TableBuildContext& context, const TableJob& job,
                     Fn&& fn) {
  with_xy_codes(context, [&](const auto* codes) {
    const std::size_t cz = job.cz_total;
    if (job.z.empty()) {
      // Marginal table: the xy code is the cell index.
      fn([codes](std::size_t s) { return static_cast<std::size_t>(codes[s]); });
      return;
    }
    const ZPlan plan(context, job);
    if (context.row_major) {
      const DataValue* base = row_base(context);
      const auto n = static_cast<std::size_t>(context.data->num_vars());
      fn([&](std::size_t s) {
        return static_cast<std::size_t>(codes[s]) * cz +
               plan.code_row(base + s * n);
      });
    } else if (plan.d == 1) {
      const std::uint8_t* z0 = plan.cols[0];
      fn([=](std::size_t s) {
        return static_cast<std::size_t>(codes[s]) * cz + z0[s];
      });
    } else {
      fn([&](std::size_t s) {
        return static_cast<std::size_t>(codes[s]) * cz + plan.code_column(s);
      });
    }
  });
}

/// The serial one-table scan (the paper's optimized sequential kernel):
/// count_one_copy over with_cell_index.
void count_single_scalar(const TableBuildContext& context,
                         const TableJob& job);

}  // namespace fastbns::table_detail
