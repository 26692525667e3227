#include "stats/table_builder.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "stats/table_builder_detail.hpp"

namespace fastbns {

void TableBuilder::build_batch(const TableBuildContext& context,
                               std::span<TableJob> jobs) {
  for (const TableJob& job : jobs) build(context, job);
}

TableBuildContext make_endpoint_context(const DiscreteDataset& data, VarId x,
                                        VarId y, bool row_major,
                                        ScratchArena& scratch) {
  TableBuildContext context;
  context.data = &data;
  context.x = x;
  context.y = y;
  context.cx = data.cardinality(x);
  context.cy = data.cardinality(y);
  context.row_major = row_major;
  context.scratch = &scratch;
  return context;
}

void add_xy_codes(TableBuildContext& context) {
  const DiscreteDataset& data = *context.data;
  const VarId x = context.x;
  const VarId y = context.y;
  const std::int32_t cy = context.cy;
  const auto m = static_cast<std::size_t>(data.num_samples());

  // Every stored value is below its cardinality, so each x*cy + y lands
  // in [0, cx*cy): the kernels increment cells through these codes
  // without bounds checks.
  if (!context.row_major && context.cx * cy <= 255) {
    const DataValue* xs = data.column(x).data();
    const DataValue* ys = data.column(y).data();
    const std::span<std::uint8_t> codes = context.scratch->xy_codes8(m);
    for (std::size_t s = 0; s < m; ++s) {
      codes[s] = static_cast<std::uint8_t>(xs[s] * cy + ys[s]);
    }
    context.xy_codes8 = codes;
    return;
  }

  const std::span<std::int32_t> codes = context.scratch->xy_codes(m);
  if (context.row_major) {
    // Cache-unfriendly path: stride across the sample rows.
    const auto n = static_cast<std::size_t>(data.num_vars());
    const DataValue* base = data.row(0).data();
    for (std::size_t s = 0; s < m; ++s) {
      const DataValue* row = base + s * n;
      codes[s] = row[x] * cy + row[y];
    }
  } else {
    const DataValue* xs = data.column(x).data();
    const DataValue* ys = data.column(y).data();
    for (std::size_t s = 0; s < m; ++s) codes[s] = xs[s] * cy + ys[s];
  }
  context.xy_codes = codes;
}

TableBuildContext make_table_context(const DiscreteDataset& data, VarId x,
                                     VarId y, bool row_major,
                                     ScratchArena& scratch,
                                     bool /*want_packed*/) {
  TableBuildContext context =
      make_endpoint_context(data, x, y, row_major, scratch);
  add_xy_codes(context);
  return context;
}

namespace table_detail {

void count_single_scalar(const TableBuildContext& context,
                         const TableJob& job) {
  const std::size_t m = num_samples(context);
  with_cell_index(context, job,
                  [&](auto index) { count_one_copy(m, job.cells, index); });
}

}  // namespace table_detail

namespace {

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

}  // namespace

std::unique_ptr<TableBuilder> make_sample_parallel_table_builder() {
  return std::make_unique<SampleParallelTableBuilder>();
}

std::unique_ptr<TableBuilder> make_table_builder(std::string_view name) {
  if (name == "auto" || name == "serial") return make_serial_table_builder();
  throw std::invalid_argument(
      "table builder \"" + std::string(name) +
      "\" is not selectable: \"auto\" and \"serial\" name the one serial "
      "kernel (FASTBNS_SIMD=off forces its scalar passes), and "
      "sample-parallel builds come from --engine sample");
}

}  // namespace fastbns
