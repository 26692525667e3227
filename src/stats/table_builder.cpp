#include "stats/table_builder.hpp"

#include <algorithm>
#include <stdexcept>

#include "stats/simd_dispatch.hpp"
#include "stats/table_builder_detail.hpp"

namespace fastbns {

void TableBuilder::build_batch(const TableBuildContext& context,
                               std::span<TableJob> jobs) {
  for (const TableJob& job : jobs) build(context, job);
}

TableBuildContext make_table_context(const DiscreteDataset& data, VarId x,
                                     VarId y, bool row_major,
                                     ScratchArena& scratch,
                                     bool /*want_packed*/) {
  const std::int32_t cx = data.cardinality(x);
  const std::int32_t cy = data.cardinality(y);
  const auto m = static_cast<std::size_t>(data.num_samples());
  TableBuildContext context;
  context.data = &data;
  context.cx = cx;
  context.cy = cy;
  context.row_major = row_major;
  context.scratch = &scratch;

  if (!row_major && cx * cy <= 255 && data.has_codes8(x) &&
      data.has_codes8(y)) {
    // The codes8 columns are already clamped into [0, cx) and [0, cy), so
    // every x8*cy + y8 lands in [0, cx*cy) and fits a byte.
    const std::uint8_t* xs = data.codes8(x).data();
    const std::uint8_t* ys = data.codes8(y).data();
    const std::span<std::uint8_t> codes = scratch.xy_codes8(m);
    for (std::size_t s = 0; s < m; ++s) {
      codes[s] = static_cast<std::uint8_t>(xs[s] * cy + ys[s]);
    }
    context.xy_codes8 = codes;
    return context;
  }

  // The raw buffers keep malformed values as-is (values_in_range is the
  // detector), so the endpoint codes clamp into [0, cx*cy) here: the
  // kernels increment cells through these codes without bounds checks,
  // and the clamp is what keeps even bad data inside the cell buffer —
  // the same guarantee the dataset's codes8 columns give the byte stream
  // and the z streams.
  const std::span<std::int32_t> codes = scratch.xy_codes(m);
  if (row_major) {
    // Cache-unfriendly path: stride across the sample rows.
    const auto n = static_cast<std::size_t>(data.num_vars());
    const DataValue* base = data.row(0).data();
    for (std::size_t s = 0; s < m; ++s) {
      const DataValue* row = base + s * n;
      codes[s] = std::min<std::int32_t>(row[x], cx - 1) * cy +
                 std::min<std::int32_t>(row[y], cy - 1);
    }
  } else {
    const DataValue* xs = data.column(x).data();
    const DataValue* ys = data.column(y).data();
    for (std::size_t s = 0; s < m; ++s) {
      codes[s] = std::min<std::int32_t>(xs[s], cx - 1) * cy +
                 std::min<std::int32_t>(ys[s], cy - 1);
    }
  }
  context.xy_codes = codes;
  return context;
}

namespace table_detail {

void count_single_scalar(const TableBuildContext& context,
                         const TableJob& job) {
  const std::size_t m = num_samples(context);
  with_cell_index(context, job, [&](auto index) {
    if (job.cells.size() <= kSplitCells) {
      std::array<Count, 4 * kSplitCells> partial{};
      count_split(m, job.cells, index, partial.data());
    } else {
      count_one_copy(m, job.cells, index);
    }
  });
}

void count_run_scalar(const TableBuildContext& context,
                      std::span<TableJob> jobs,
                      std::span<const std::size_t> run,
                      std::vector<ZPlan>& plans_scratch) {
  if (run.size() == 1 || jobs[run.front()].z.empty()) {
    // Nothing to share: a marginal group is one table per shape.
    for (const std::size_t j : run) count_single_scalar(context, jobs[j]);
    return;
  }

  const std::size_t m = num_samples(context);
  const std::size_t cz_total = jobs[run.front()].cz_total;
  const std::size_t d = jobs[run.front()].z.size();
  std::vector<ZPlan>& plans = plans_scratch;
  plans.clear();
  for (const std::size_t j : run) {
    std::fill(jobs[j].cells.begin(), jobs[j].cells.end(), Count{0});
    plans.emplace_back(context, jobs[j]);
  }
  const std::size_t k = run.size();
  with_xy_codes(context, [&](const auto* codes) {
    // Depth-specialized column paths: flattened pointer arrays so the
    // per-sample inner loop is the same two-load multiply-add the scalar
    // kernel runs, with the codes read shared across the run's tables.
    if (!context.row_major && (d == 1 || d == 2)) {
      std::array<Count*, kMaxFanout> out{};
      std::array<const std::uint8_t*, kMaxFanout> col0{};
      std::array<const std::uint8_t*, kMaxFanout> col1{};
      std::array<std::size_t, kMaxFanout> card1{};
      for (std::size_t j = 0; j < k; ++j) {
        out[j] = jobs[run[j]].cells.data();
        col0[j] = plans[j].cols[0];
        if (d == 2) {
          col1[j] = plans[j].cols[1];
          card1[j] = static_cast<std::size_t>(plans[j].cards[1]);
        }
      }
      if (d == 1) {
        for (std::size_t s = 0; s < m; ++s) {
          const auto xy = static_cast<std::size_t>(codes[s]) * cz_total;
          for (std::size_t j = 0; j < k; ++j) {
            ++out[j][xy + col0[j][s]];
          }
        }
      } else {
        for (std::size_t s = 0; s < m; ++s) {
          const auto xy = static_cast<std::size_t>(codes[s]) * cz_total;
          for (std::size_t j = 0; j < k; ++j) {
            ++out[j][xy + col0[j][s] * card1[j] + col1[j][s]];
          }
        }
      }
      return;
    }

    if (context.row_major) {
      const DataValue* base = row_base(context);
      const auto n = static_cast<std::size_t>(context.data->num_vars());
      for (std::size_t s = 0; s < m; ++s) {
        const DataValue* row = base + s * n;
        const auto xy = static_cast<std::size_t>(codes[s]) * cz_total;
        for (std::size_t j = 0; j < k; ++j) {
          ++jobs[run[j]].cells[xy + plans[j].code_row(row)];
        }
      }
    } else {
      for (std::size_t s = 0; s < m; ++s) {
        const auto xy = static_cast<std::size_t>(codes[s]) * cz_total;
        for (std::size_t j = 0; j < k; ++j) {
          ++jobs[run[j]].cells[xy + plans[j].code_column(s)];
        }
      }
    }
  });
}

}  // namespace table_detail

namespace {

class ScalarTableBuilder : public TableBuilder {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "scalar";
  }

  void build(const TableBuildContext& context, const TableJob& job) override {
    table_detail::count_single_scalar(context, job);
  }
};

class SampleParallelTableBuilder final : public TableBuilder {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "sample-parallel";
  }

  void build(const TableBuildContext& context, const TableJob& job) override {
    const auto m =
        static_cast<std::int64_t>(table_detail::num_samples(context));
    std::fill(job.cells.begin(), job.cells.end(), Count{0});
    Count* cells = job.cells.data();
    const table_detail::ZPlan plan(context, job);
    const DataValue* base = table_detail::row_base(context);
    const auto n = static_cast<std::size_t>(context.data->num_vars());
    const bool row_major = context.row_major;
    const std::size_t cz_total = job.cz_total;
    table_detail::with_xy_codes(context, [&](const auto* codes) {
      if (job.z.empty()) {
#pragma omp parallel for schedule(static)
        for (std::int64_t s = 0; s < m; ++s) {
#pragma omp atomic
          ++cells[codes[s]];
        }
        return;
      }
#pragma omp parallel for schedule(static)
      for (std::int64_t s = 0; s < m; ++s) {
        const auto u = static_cast<std::size_t>(s);
        const std::size_t zc =
            row_major ? plan.code_row(base + u * n) : plan.code_column(u);
        const std::size_t idx =
            static_cast<std::size_t>(codes[u]) * cz_total + zc;
#pragma omp atomic
        ++cells[idx];
      }
    });
  }
};

class BatchedTableBuilder final : public ScalarTableBuilder {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "batched";
  }

  void build_batch(const TableBuildContext& context,
                   std::span<TableJob> jobs) override {
    table_detail::for_each_shape_run(
        jobs, order_, [&](std::span<const std::size_t> run) {
          table_detail::count_run_scalar(context, jobs, run, plans_);
        });
  }

 private:
  std::vector<std::size_t> order_;
  std::vector<table_detail::ZPlan> plans_;
};

}  // namespace

std::unique_ptr<TableBuilder> make_scalar_table_builder() {
  return std::make_unique<ScalarTableBuilder>();
}

std::unique_ptr<TableBuilder> make_sample_parallel_table_builder() {
  return std::make_unique<SampleParallelTableBuilder>();
}

std::unique_ptr<TableBuilder> make_batched_table_builder() {
  return std::make_unique<BatchedTableBuilder>();
}

std::unique_ptr<TableBuilder> make_table_builder(std::string_view name) {
  if (name == "scalar") return make_scalar_table_builder();
  if (name == "sample-parallel") {
    // Installing the sample-parallel kernel as the *main* builder would
    // nest its OpenMP team inside every edge-parallel worker and serialize
    // batch entries into contended atomic builds; sample-parallel builds
    // belong to the sample-parallel engine, whose
    // wants_sample_parallel_test() puts the test on the dedicated builder.
    throw std::invalid_argument(
        "table builder \"sample-parallel\" is not name-selectable: "
        "sample-parallel builds come from --engine sample, not from the "
        "main kernel");
  }
  if (name == "batched") return make_batched_table_builder();
  if (name == "simd") return make_simd_table_builder();
  if (name == "auto") {
    // The CPU decides: the SIMD kernel when a vectorized dispatch tier is
    // active, the batched scalar kernel otherwise (the two behave
    // identically in that case — this just keeps the reported kernel
    // name honest on scalar-only hardware).
    return active_simd_tier() == SimdTier::kScalar
               ? make_batched_table_builder()
               : make_simd_table_builder();
  }
  std::string message = "unknown table builder \"" + std::string(name) +
                        "\"; known builders:";
  for (const std::string& known : list_table_builders()) {
    message += ' ';
    message += known;
  }
  throw std::invalid_argument(message);
}

std::vector<std::string> list_table_builders() {
  // "sample-parallel" is deliberately absent: that kernel is switched on
  // through CiTestOptions::sample_parallel (CiTest::set_sample_parallel),
  // never as a name-selected main builder.
  return {"auto", "batched", "scalar", "simd"};
}

}  // namespace fastbns
