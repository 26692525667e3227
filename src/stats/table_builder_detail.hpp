// Internals shared by the TableBuilder kernels: the scalar and
// sample-parallel passes in table_builder.cpp and the serial kernel's
// vector pass in serial_table_builder.cpp (a separate TU so its
// per-function target attributes stay contained). bench_table_builder
// times the two single-table loops directly. Not part of the public API.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <span>

#include "stats/table_builder.hpp"

namespace fastbns::table_detail {

/// Hard cap tied to the driver's depth limit; matches the fixed-size
/// index buffers in edge_work.cpp.
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

/// The largest single table count_single_scalar splits (count_split):
/// the partial copies then fit 2 KB of stack, and every depth-0 and
/// depth-1 table of cardinality-4 variables fits. bench_table_builder's
/// split-limit table times both loops by depth and table size: within
/// this size the committed BENCH_table_builder_split.json reads split /
/// one copy 0.46-0.78 at depths 0 and 1 and 1.04-1.20 at depths 2 to 4,
/// so only tables with |z| <= 1 are split.
inline constexpr std::size_t kSplitCells = 64;

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

/// The same count as count_one_copy, with consecutive samples spread
/// over 4 interleaved partial copies in `partial` — cell c of copy w at
/// c * 4 + w, so it holds at least 4 * cells.size() counts — summed into
/// `cells` at the end. With one copy of a small table, neighbouring
/// samples that share a cell make each increment wait for the previous
/// one's store, and skewed columns make that the common case.
template <typename IndexFn>
void count_split(std::size_t m, std::span<Count> cells, IndexFn index,
                 Count* partial) {
  std::fill(partial, partial + cells.size() * 4, Count{0});
  std::size_t s = 0;
  for (; s + 4 <= m; s += 4) {
    ++partial[index(s) * 4];
    ++partial[index(s + 1) * 4 + 1];
    ++partial[index(s + 2) * 4 + 2];
    ++partial[index(s + 3) * 4 + 3];
  }
  for (; s < m; ++s) ++partial[index(s) * 4];
  for (std::size_t c = 0; c < cells.size(); ++c) {
    cells[c] = partial[c * 4] + partial[c * 4 + 1] + partial[c * 4 + 2] +
               partial[c * 4 + 3];
  }
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

/// The serial one-table scan (the paper's optimized sequential kernel)
/// over with_cell_index: count_split for tables of at most kSplitCells
/// cells and |z| <= 1, count_one_copy for the rest.
void count_single_scalar(const TableBuildContext& context,
                         const TableJob& job);

}  // namespace fastbns::table_detail
