// The CI-kernel contract: every TableBuilder counts the same table —
// bit-identical cells across the scalar, sample-parallel, batched and
// SIMD kernels, on randomized shapes, cardinalities and layouts, and
// equal to an independent count taken straight from the dataset. This is
// what lets DiscreteCiTest treat the builder as pluggable and lets
// engines pick the kernel per edge without changing any result.
#include "stats/table_builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "stats/discrete_ci_test.hpp"
#include "stats/simd_dispatch.hpp"
#include "stats/table_builder_detail.hpp"

namespace fastbns {
namespace {

/// Uniformly random values for the given cardinalities, in both layouts.
DiscreteDataset dataset_with_cards(std::vector<std::int32_t> cards, Count m,
                                   std::uint64_t seed) {
  const auto n = static_cast<VarId>(cards.size());
  DiscreteDataset data(n, m, cards, DataLayout::kBoth);
  Rng rng(seed);
  for (Count s = 0; s < m; ++s) {
    for (VarId v = 0; v < n; ++v) {
      data.set(s, v,
               static_cast<DataValue>(
                   rng.next_below(static_cast<std::uint64_t>(cards[v]))));
    }
  }
  return data;
}

DiscreteDataset random_dataset(VarId n, Count m, std::int32_t max_card,
                               std::uint64_t seed) {
  Rng card_rng(seed);
  std::vector<std::int32_t> cards;
  for (VarId v = 0; v < n; ++v) {
    cards.push_back(
        2 + static_cast<std::int32_t>(card_rng.next_below(
                static_cast<std::uint64_t>(max_card - 1))));
  }
  return dataset_with_cards(std::move(cards), m, seed + 1);
}

std::vector<std::int32_t> xy_codes(const DiscreteDataset& data, VarId x,
                                   VarId y) {
  std::vector<std::int32_t> codes(static_cast<std::size_t>(data.num_samples()));
  const std::int32_t cy = data.cardinality(y);
  for (Count s = 0; s < data.num_samples(); ++s) {
    codes[static_cast<std::size_t>(s)] =
        static_cast<std::int32_t>(data.value(s, x)) * cy + data.value(s, y);
  }
  return codes;
}

std::size_t cz_product(const DiscreteDataset& data,
                       const std::vector<VarId>& z) {
  std::size_t cz = 1;
  for (const VarId v : z) cz *= static_cast<std::size_t>(data.cardinality(v));
  return cz;
}

/// Independent reference count of the (x, y, z) table, read through
/// DiscreteDataset::value() with the clamp every kernel applies (values
/// capped at cardinality - 1). Shares no code with the kernels or with
/// make_table_context, so a bug common to all of them still shows.
std::vector<Count> reference_table(const DiscreteDataset& data, VarId x,
                                   VarId y, const std::vector<VarId>& z) {
  const auto clamped = [&data](Count s, VarId v) {
    return std::min(static_cast<std::size_t>(data.value(s, v)),
                    static_cast<std::size_t>(data.cardinality(v) - 1));
  };
  const auto cy = static_cast<std::size_t>(data.cardinality(y));
  const std::size_t cz = cz_product(data, z);
  std::vector<Count> cells(
      static_cast<std::size_t>(data.cardinality(x)) * cy * cz, 0);
  for (Count s = 0; s < data.num_samples(); ++s) {
    std::size_t zc = 0;
    for (const VarId v : z) {
      zc = zc * static_cast<std::size_t>(data.cardinality(v)) + clamped(s, v);
    }
    ++cells[(clamped(s, x) * cy + clamped(s, y)) * cz + zc];
  }
  return cells;
}

/// Table jobs with the sets and cell buffers their spans point into.
struct JobBatch {
  std::vector<std::vector<VarId>> zs;
  std::vector<std::vector<Count>> cells_storage;
  std::vector<TableJob> jobs;
};

/// Jobs for the given conditioning sets, cells poisoned.
JobBatch jobs_for(const DiscreteDataset& data, VarId x, VarId y,
                  std::vector<std::vector<VarId>> zs) {
  JobBatch batch;
  batch.zs = std::move(zs);
  const auto xy =
      static_cast<std::size_t>(data.cardinality(x) * data.cardinality(y));
  for (const auto& z : batch.zs) {
    batch.cells_storage.emplace_back(xy * cz_product(data, z), Count{-1});
  }
  for (std::size_t j = 0; j < batch.zs.size(); ++j) {
    batch.jobs.push_back(TableJob{batch.zs[j], cz_product(data, batch.zs[j]),
                                  batch.cells_storage[j]});
  }
  return batch;
}

/// One randomized batch of jobs for the endpoint pair (x, y): `count`
/// conditioning sets of size `depth` drawn (without the endpoints) from
/// the remaining variables.
JobBatch make_jobs(const DiscreteDataset& data, VarId x, VarId y,
                   std::size_t count, std::int32_t depth, Rng& rng) {
  std::vector<std::vector<VarId>> zs;
  for (std::size_t j = 0; j < count; ++j) {
    std::vector<VarId> z;
    while (static_cast<std::int32_t>(z.size()) < depth) {
      const auto v = static_cast<VarId>(
          rng.next_below(static_cast<std::uint64_t>(data.num_vars())));
      if (v == x || v == y) continue;
      if (std::find(z.begin(), z.end(), v) != z.end()) continue;
      z.push_back(v);
    }
    std::sort(z.begin(), z.end());
    zs.push_back(std::move(z));
  }
  return jobs_for(data, x, y, std::move(zs));
}

TEST(TableBuilder, KernelsAreBitIdenticalOnRandomizedShapes) {
  const auto scalar = make_scalar_table_builder();
  const auto sample_parallel = make_sample_parallel_table_builder();
  const auto batched = make_batched_table_builder();
  const auto simd = make_simd_table_builder();

  Rng rng(20260729);
  ScratchArena arena;
  for (int round = 0; round < 20; ++round) {
    const auto n = static_cast<VarId>(6 + rng.next_below(5));
    // Deliberately not a vector-width multiple most rounds, so the SIMD
    // kernel's tail lanes are exercised alongside its full blocks.
    const auto m = static_cast<Count>(200 + rng.next_below(800));
    const DiscreteDataset data =
        random_dataset(n, m, /*max_card=*/5, 1000 + round);
    const auto x = static_cast<VarId>(rng.next_below(
        static_cast<std::uint64_t>(n)));
    auto y = static_cast<VarId>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (y == x) y = (y + 1) % n;
    const TableBuildContext context =
        make_table_context(data, x, y, /*row_major=*/false, arena);

    const auto depth = static_cast<std::int32_t>(rng.next_below(4));
    // More jobs than the batched kernel's per-pass fanout, so the
    // shape-run chunking is exercised, with repeated sets so same-shape
    // runs actually occur.
    const std::vector<std::vector<VarId>> zs =
        make_jobs(data, x, y, 12, depth, rng).zs;

    for (TableBuilder* kernel : {scalar.get(), sample_parallel.get(),
                                 batched.get(), simd.get()}) {
      JobBatch probe = jobs_for(data, x, y, zs);
      kernel->build_batch(context, probe.jobs);
      for (std::size_t j = 0; j < probe.jobs.size(); ++j) {
        EXPECT_EQ(probe.cells_storage[j],
                  reference_table(data, x, y, probe.zs[j]))
            << kernel->name() << " round=" << round << " job=" << j
            << " depth=" << depth;
      }
    }
  }
}

TEST(TableBuilder, KernelsMatchAnIndependentCountOnEdgeShapes) {
  // Shapes random draws rarely hit, checked for every kernel through
  // build() one table at a time and through build_batch(): a constant
  // column and one that is 95% a single value (forward-sampled networks
  // are skewed like this), tables just under and just over the
  // single-table split limit, every sample count remainder mod 4, runs
  // of 1-8 tables at depths 0-3, a pair whose codes need int32, a
  // row-major context, and values above the cardinality.
  enum : VarId { kX, kY, kConst, kSkewed, kUnder, kOver, kWideX, kWideY };
  // With cx*cy = 16, one conditioning variable of card `under` fills the
  // limit exactly and one of card `under + 1` exceeds it; at depth 2 the
  // two binary columns give a 64-cell table, split through the general
  // column index.
  const auto under =
      static_cast<std::int32_t>(table_detail::kSplitCells / 16);
  ASSERT_GE(under, 2);
  const std::vector<VarId> pool{kConst, kSkewed, kUnder, kOver};
  const std::unique_ptr<TableBuilder> kernels[] = {
      make_scalar_table_builder(), make_batched_table_builder(),
      make_simd_table_builder(), make_sample_parallel_table_builder()};

  for (const Count m : {Count{1001}, Count{1002}, Count{1003}}) {
    DiscreteDataset data = dataset_with_cards(
        {4, 4, 2, 2, under, under + 1, 17, 16}, m,
        static_cast<std::uint64_t>(m));
    Rng rng(static_cast<std::uint64_t>(m) + 1);
    for (Count s = 0; s < m; ++s) {
      data.set(s, kConst, 1);
      data.set(s, kSkewed, rng.next_below(20) == 0 ? 0 : 1);
    }
    data.set(3, kX, 9);
    data.set(m - 1, kY, 200);
    data.set(m / 2, kUnder, static_cast<DataValue>(under + 3));
    ASSERT_FALSE(data.values_in_range());

    ScratchArena arena;
    const struct {
      VarId x;
      VarId y;
      bool row_major;
      const char* label;
    } pairs[] = {{kX, kY, false, "bytes"},
                 {kX, kY, true, "row-major"},
                 {kWideX, kWideY, false, "int32"}};
    for (const auto& pair : pairs) {
      const TableBuildContext context =
          make_table_context(data, pair.x, pair.y, pair.row_major, arena);
      for (std::int32_t depth = 0; depth <= 3; ++depth) {
        for (std::size_t run = 1; run <= 8; ++run) {
          std::vector<std::vector<VarId>> zs;
          std::vector<std::vector<Count>> expected;
          for (std::size_t j = 0; j < run; ++j) {
            std::vector<VarId> z;
            for (std::int32_t i = 0; i < depth; ++i) {
              z.push_back(pool[(j + static_cast<std::size_t>(i)) %
                               pool.size()]);
            }
            std::sort(z.begin(), z.end());
            expected.push_back(reference_table(data, pair.x, pair.y, z));
            zs.push_back(std::move(z));
          }
          for (const auto& kernel : kernels) {
            for (const bool batch : {false, true}) {
              JobBatch probe = jobs_for(data, pair.x, pair.y, zs);
              if (batch) {
                kernel->build_batch(context, probe.jobs);
              } else {
                for (const TableJob& job : probe.jobs) {
                  kernel->build(context, job);
                }
              }
              for (std::size_t j = 0; j < run; ++j) {
                EXPECT_EQ(probe.cells_storage[j], expected[j])
                    << pair.label << ' ' << kernel->name()
                    << (batch ? " build_batch" : " build") << " m=" << m
                    << " depth=" << depth << " run=" << run << " job=" << j;
              }
            }
          }
        }
      }
    }
  }
}

TEST(TableBuilder, RowMajorContextMatchesColumnMajor) {
  const DiscreteDataset data = random_dataset(7, 500, 4, 7);
  const std::vector<std::int32_t> codes = xy_codes(data, 1, 4);
  TableBuildContext col_context;
  col_context.data = &data;
  col_context.xy_codes = codes;
  col_context.cx = data.cardinality(1);
  col_context.cy = data.cardinality(4);
  TableBuildContext row_context = col_context;
  row_context.row_major = true;

  Rng rng(99);
  const auto scalar = make_scalar_table_builder();
  const auto batched = make_batched_table_builder();
  JobBatch col_jobs = make_jobs(data, 1, 4, 6, 2, rng);
  for (TableJob& job : col_jobs.jobs) scalar->build(col_context, job);

  JobBatch row_jobs;
  row_jobs.zs = col_jobs.zs;
  for (std::size_t j = 0; j < row_jobs.zs.size(); ++j) {
    row_jobs.cells_storage.emplace_back(col_jobs.cells_storage[j].size(),
                                        Count{-1});
    row_jobs.jobs.push_back(TableJob{row_jobs.zs[j],
                                     cz_product(data, row_jobs.zs[j]),
                                     row_jobs.cells_storage[j]});
  }
  batched->build_batch(row_context, row_jobs.jobs);
  for (std::size_t j = 0; j < row_jobs.jobs.size(); ++j) {
    EXPECT_EQ(row_jobs.cells_storage[j], col_jobs.cells_storage[j]) << j;
  }
}

TEST(TableBuilder, MixedDepthJobsSharingCzTotalStaySeparateRuns) {
  // Two sets of different size can multiply to the same cz_total (e.g.
  // {card 2, card 3} and {card 6}); a shared pass assumes one set size,
  // so the batched kernel must not fuse them into one run.
  DiscreteDataset data(5, 400, {2, 2, 2, 3, 6}, DataLayout::kColumnMajor);
  Rng rng(13);
  for (Count s = 0; s < 400; ++s) {
    for (VarId v = 0; v < 5; ++v) {
      data.set(s, v,
               static_cast<DataValue>(
                   rng.next_below(static_cast<std::uint64_t>(
                       data.cardinality(v)))));
    }
  }
  const std::vector<std::int32_t> codes = xy_codes(data, 0, 1);
  TableBuildContext context;
  context.data = &data;
  context.xy_codes = codes;
  context.cx = 2;
  context.cy = 2;

  const std::vector<VarId> pair{2, 3};    // cz = 2 * 3 = 6
  const std::vector<VarId> single{4};     // cz = 6
  std::vector<Count> pair_cells(2 * 2 * 6, -1);
  std::vector<Count> single_cells(2 * 2 * 6, -1);
  std::vector<TableJob> jobs{TableJob{pair, 6, pair_cells},
                             TableJob{single, 6, single_cells}};
  make_batched_table_builder()->build_batch(context, jobs);

  std::vector<Count> pair_expected(2 * 2 * 6, -1);
  std::vector<Count> single_expected(2 * 2 * 6, -1);
  const auto scalar = make_scalar_table_builder();
  scalar->build(context, TableJob{pair, 6, pair_expected});
  scalar->build(context, TableJob{single, 6, single_expected});
  EXPECT_EQ(pair_cells, pair_expected);
  EXPECT_EQ(single_cells, single_expected);
}

TEST(TableBuilder, MarginalTablesNeedNoConditioningColumns) {
  const DiscreteDataset data = random_dataset(5, 300, 3, 21);
  const std::vector<std::int32_t> codes = xy_codes(data, 0, 2);
  TableBuildContext context;
  context.data = &data;
  context.xy_codes = codes;
  context.cx = data.cardinality(0);
  context.cy = data.cardinality(2);

  const auto cells =
      static_cast<std::size_t>(context.cx) * static_cast<std::size_t>(context.cy);
  std::vector<Count> scalar_cells(cells, -1);
  std::vector<Count> batched_cells(cells, -1);
  std::vector<TableJob> scalar_job{TableJob{{}, 1, scalar_cells}};
  std::vector<TableJob> batched_job{TableJob{{}, 1, batched_cells}};
  make_scalar_table_builder()->build_batch(context, scalar_job);
  make_batched_table_builder()->build_batch(context, batched_job);
  EXPECT_EQ(scalar_cells, batched_cells);
  Count total = 0;
  for (const Count c : scalar_cells) total += c;
  EXPECT_EQ(total, data.num_samples());

  std::vector<Count> simd_cells(cells, -1);
  std::vector<TableJob> simd_job{TableJob{{}, 1, simd_cells}};
  make_simd_table_builder()->build_batch(context, simd_job);
  EXPECT_EQ(scalar_cells, simd_cells);
}

TEST(TableBuilder, ContextHelperMatchesManualCodes) {
  // make_table_context fills exactly one endpoint-code stream with the
  // codes every call site used to compute by hand: bytes for a column
  // context whose cx*cy fits a byte and whose endpoints have codes8
  // columns — on every dispatch tier — and int32 codes otherwise.
  const DiscreteDataset data = random_dataset(6, 333, 4, 11);
  ScratchArena arena;
  const std::vector<std::int32_t> expected = xy_codes(data, 2, 4);
  for (const SimdTier tier : {SimdTier::kScalar, detected_simd_tier()}) {
    const ScopedSimdTierOverride guard(tier);
    const TableBuildContext context =
        make_table_context(data, 2, 4, /*row_major=*/false, arena);
    EXPECT_EQ(context.cx, data.cardinality(2));
    EXPECT_EQ(context.cy, data.cardinality(4));
    EXPECT_EQ(context.scratch, &arena);
    EXPECT_TRUE(context.xy_codes.empty());
    ASSERT_EQ(context.xy_codes8.size(), expected.size());
    for (std::size_t s = 0; s < expected.size(); ++s) {
      ASSERT_EQ(context.xy_codes8[s], expected[s]) << s;
    }
  }

  const auto expect_int32_stream = [](const TableBuildContext& context,
                                      const std::vector<std::int32_t>& codes,
                                      const char* label) {
    EXPECT_TRUE(context.xy_codes8.empty()) << label;
    ASSERT_EQ(context.xy_codes.size(), codes.size()) << label;
    for (std::size_t s = 0; s < codes.size(); ++s) {
      ASSERT_EQ(context.xy_codes[s], codes[s]) << label << " sample " << s;
    }
  };

  // Row-major contexts stride across the rows.
  expect_int32_stream(
      make_table_context(data, 2, 4, /*row_major=*/true, arena), expected,
      "row-major");

  // A pair whose combined code needs more than a byte.
  const DiscreteDataset wide = dataset_with_cards({17, 16}, 300, 12);
  expect_int32_stream(
      make_table_context(wide, 0, 1, /*row_major=*/false, arena),
      xy_codes(wide, 0, 1), "cx*cy > 255");

  // Endpoints without codes8 columns: a view of a column buffer given
  // without its packed mirror.
  std::vector<DataValue> columns;
  for (VarId v = 0; v < data.num_vars(); ++v) {
    const std::span<const DataValue> column = data.column(v);
    columns.insert(columns.end(), column.begin(), column.end());
  }
  ExternalDataBuffers buffers;
  buffers.cols = columns;
  const DiscreteDataset view(data.num_vars(), data.num_samples(),
                             data.cardinalities(), buffers);
  ASSERT_FALSE(view.has_codes8(2));
  expect_int32_stream(
      make_table_context(view, 2, 4, /*row_major=*/false, arena), expected,
      "no codes8");
}

TEST(TableBuilder, MalformedValuesCannotEscapeTheCellBuffer) {
  // The kernels increment cells without bounds checks; the clamps in
  // make_table_context (endpoint codes), the dataset's codes8 columns
  // (column z streams), and ZPlan::code_row (row z streams) are what
  // contain malformed raw values. Poison every variable with
  // out-of-range values and require all kernels, in both layouts, to
  // agree and to keep every count inside the table.
  DiscreteDataset data(4, 257, {2, 3, 4, 3}, DataLayout::kBoth);
  Rng rng(424242);
  for (VarId v = 0; v < 4; ++v) {
    for (Count s = 0; s < data.num_samples(); ++s) {
      data.set(s, v,
               static_cast<DataValue>(rng.next_below(
                   static_cast<std::uint64_t>(data.cardinality(v)))));
    }
  }
  data.set(0, 0, 200);   // x endpoint out of range
  data.set(1, 1, 255);   // y endpoint out of range
  data.set(2, 2, 99);    // conditioning column out of range
  data.set(256, 3, 77);  // past the widest vector block
  ASSERT_FALSE(data.values_in_range());

  ScratchArena column_arena;
  ScratchArena row_arena;
  const TableBuildContext context =
      make_table_context(data, 0, 1, /*row_major=*/false, column_arena);
  const TableBuildContext row_context =
      make_table_context(data, 0, 1, /*row_major=*/true, row_arena);
  const auto in_range = [&](std::int32_t code) {
    return code >= 0 && code < data.cardinality(0) * data.cardinality(1);
  };
  ASSERT_FALSE(context.xy_codes8.empty());  // cx*cy = 6 fits a byte
  for (const std::uint8_t code : context.xy_codes8) {
    ASSERT_TRUE(in_range(code));
  }
  ASSERT_FALSE(row_context.xy_codes.empty());
  for (const std::int32_t code : row_context.xy_codes) {
    ASSERT_TRUE(in_range(code));
  }

  const std::vector<VarId> z{2, 3};
  const std::size_t cells = static_cast<std::size_t>(
      data.cardinality(0) * data.cardinality(1) * cz_product(data, z));
  std::vector<Count> reference(cells, Count{-1});
  TableJob job{z, cz_product(data, z), reference};
  make_scalar_table_builder()->build(context, job);
  Count total = 0;
  for (const Count c : reference) total += c;
  EXPECT_EQ(total, data.num_samples());  // every sample landed in a cell

  const auto batched = make_batched_table_builder();
  const auto simd = make_simd_table_builder();
  const struct {
    TableBuilder* builder;
    const TableBuildContext* ctx;
    const char* label;
  } cases[] = {{batched.get(), &context, "batched/col"},
               {simd.get(), &context, "simd/col"},
               {batched.get(), &row_context, "batched/row"}};
  for (const auto& c : cases) {
    std::vector<Count> probe(cells, Count{-2});
    std::vector<TableJob> jobs{TableJob{z, cz_product(data, z), probe}};
    c.builder->build_batch(*c.ctx, jobs);
    EXPECT_EQ(probe, reference) << c.label;
  }
}

/// Runs `count` jobs of the given conditioning sets through the SIMD
/// kernel and expects byte-equal cells vs the scalar kernel.
void expect_simd_matches_scalar(const DiscreteDataset& data, VarId x, VarId y,
                                const std::vector<std::vector<VarId>>& zs,
                                const char* label) {
  ScratchArena arena;
  const TableBuildContext context =
      make_table_context(data, x, y, /*row_major=*/false, arena);
  const auto xy =
      static_cast<std::size_t>(data.cardinality(x) * data.cardinality(y));

  JobBatch expected;
  expected.zs = zs;
  JobBatch actual;
  actual.zs = zs;
  for (const auto& z : zs) {
    expected.cells_storage.emplace_back(xy * cz_product(data, z), Count{-1});
    actual.cells_storage.emplace_back(xy * cz_product(data, z), Count{-2});
  }
  const auto scalar = make_scalar_table_builder();
  for (std::size_t j = 0; j < zs.size(); ++j) {
    expected.jobs.push_back(TableJob{expected.zs[j], cz_product(data, zs[j]),
                                     expected.cells_storage[j]});
    scalar->build(context, expected.jobs[j]);
    actual.jobs.push_back(TableJob{actual.zs[j], cz_product(data, zs[j]),
                                   actual.cells_storage[j]});
  }
  make_simd_table_builder()->build_batch(context, actual.jobs);
  for (std::size_t j = 0; j < zs.size(); ++j) {
    EXPECT_EQ(actual.cells_storage[j], expected.cells_storage[j])
        << label << " job=" << j;
  }
}

TEST(TableBuilder, SimdMatchesScalarAcrossCardinalityBoundaries) {
  // Cardinality 255 is the last value with a packed codes8 column; 300
  // (values still bytes, metadata past the guard) has none and the
  // kernels fall back to the raw column. The 255*300-state set also
  // pushes the table past 65536 cells, forcing the wide 32-bit index
  // path, while the smaller sets stay on the 16-bit fast path.
  const VarId n = 5;
  const Count m = 3001;
  DiscreteDataset data(n, m, {2, 3, 255, 300, 17}, DataLayout::kColumnMajor);
  EXPECT_TRUE(data.has_codes8(2));
  EXPECT_FALSE(data.has_codes8(3));
  Rng rng(255);
  for (Count s = 0; s < m; ++s) {
    for (VarId v = 0; v < n; ++v) {
      const auto card = static_cast<std::uint64_t>(
          std::min(data.cardinality(v), 256));
      data.set(s, v, static_cast<DataValue>(rng.next_below(card)));
    }
  }
  expect_simd_matches_scalar(
      data, 0, 1,
      {{2}, {3}, {2, 4}, {3, 4}, {2, 3}, {2, 4}, {3, 4}},
      "boundary-cards");
}

TEST(TableBuilder, SimdHandlesNonVectorWidthSampleCounts) {
  // 1 and 5 never fill a vector; 97 leaves scalar tails on every tier;
  // 4097 spills one sample into a second block of the SIMD pass.
  for (const Count m : {Count{1}, Count{5}, Count{97}, Count{4097}}) {
    const DiscreteDataset data =
        random_dataset(6, m, 4, 500 + static_cast<std::uint64_t>(m));
    expect_simd_matches_scalar(data, 0, 3,
                               {{1, 2}, {2, 4}, {1, 2}, {4, 5}, {1, 5}},
                               "tail-samples");
  }
}

TEST(TableBuilder, SimdForcedFallbackTiersStayBitIdentical) {
  // CPUs without AVX2 (or with FASTBNS_SIMD clamping the dispatch) must
  // count the same tables; the override forces each fallback tier.
  const DiscreteDataset data = random_dataset(7, 1203, 5, 77);
  const std::vector<std::vector<VarId>> sets{{2, 3}, {3, 4}, {2, 3}, {4, 6}};
  for (const SimdTier tier :
       {SimdTier::kScalar, SimdTier::kSse42, SimdTier::kAvx2}) {
    const ScopedSimdTierOverride guard(tier);
    // The override clamps to the detected tier, so this runs the widest
    // supported path <= tier on any hardware.
    EXPECT_LE(active_simd_tier(), tier);
    const std::string label(to_string(tier));
    expect_simd_matches_scalar(data, 0, 1, sets, label.c_str());
  }
}

TEST(TableBuilder, FactoryResolvesKernelNames) {
  for (const std::string& name : list_table_builders()) {
    const auto kernel = make_table_builder(name);
    ASSERT_NE(kernel, nullptr) << name;
    if (name != "auto") {
      EXPECT_EQ(kernel->name(), name);
    } else {
      // "auto" resolves through the CPU dispatch to a concrete kernel.
      EXPECT_TRUE(kernel->name() == "simd" || kernel->name() == "batched");
    }
  }
  EXPECT_THROW((void)make_table_builder("vectorized"), std::invalid_argument);
  // The sample-parallel kernel belongs to the sample-parallel engine,
  // never a name-selected main builder (that would nest OpenMP teams),
  // and the message points at the one engine that uses it.
  EXPECT_THROW((void)make_table_builder("sample-parallel"),
               std::invalid_argument);
  try {
    (void)make_table_builder("sample-parallel");
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("--engine sample"), std::string::npos) << message;
    EXPECT_EQ(message.find("hybrid"), std::string::npos) << message;
  }
  for (const std::string& name : list_table_builders()) {
    EXPECT_NE(name, "sample-parallel");
  }
}

TEST(DiscreteCiTestBatch, BatchEntryMatchesPerSetGroupCalls) {
  const DiscreteDataset data = random_dataset(8, 900, 4, 33);
  DiscreteCiTest one_by_one(data, {});
  DiscreteCiTest batched(data, {});
  Rng rng(5);

  for (const std::int32_t depth : {0, 1, 2, 3}) {
    JobBatch sets = make_jobs(data, 2, 5, depth == 0 ? 1 : 9, depth, rng);
    std::vector<VarId> flat;
    for (const auto& z : sets.zs) flat.insert(flat.end(), z.begin(), z.end());

    one_by_one.begin_group(2, 5);
    std::vector<CiResult> expected;
    for (const auto& z : sets.zs) {
      expected.push_back(one_by_one.test_in_group(z));
    }

    batched.begin_group(2, 5);
    std::vector<CiResult> actual(sets.zs.size());
    batched.test_batch_in_group(flat, depth, actual);

    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_DOUBLE_EQ(actual[i].statistic, expected[i].statistic)
          << "depth=" << depth << " set=" << i;
      EXPECT_DOUBLE_EQ(actual[i].p_value, expected[i].p_value);
      EXPECT_EQ(actual[i].degrees_of_freedom, expected[i].degrees_of_freedom);
      EXPECT_EQ(actual[i].independent, expected[i].independent);
    }
  }
  // Both entry points charge one executed test per set.
  EXPECT_EQ(batched.tests_performed(), one_by_one.tests_performed());
}

TEST(DiscreteCiTestBatch, ArenaChunkingUnderTightCapIsResultIdentical) {
  // A cap that admits each table but not two at once forces the batch
  // arena to chunk; results must not change.
  const DiscreteDataset data = random_dataset(8, 600, 3, 91);
  CiTestOptions tight;
  // Largest single table here: cx*cy*cz <= 3*3*9 = 81 cells.
  tight.max_cells = 100;
  DiscreteCiTest chunked(data, tight);
  DiscreteCiTest reference(data, tight);
  Rng rng(17);
  const JobBatch sets = make_jobs(data, 0, 3, 7, /*depth=*/2, rng);
  std::vector<VarId> flat;
  for (const auto& z : sets.zs) flat.insert(flat.end(), z.begin(), z.end());

  reference.begin_group(0, 3);
  std::vector<CiResult> expected;
  for (const auto& z : sets.zs) expected.push_back(reference.test_in_group(z));

  chunked.begin_group(0, 3);
  std::vector<CiResult> actual(sets.zs.size());
  chunked.test_batch_in_group(flat, /*depth=*/2, actual);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(actual[i].statistic, expected[i].statistic) << i;
    EXPECT_EQ(actual[i].degrees_of_freedom, expected[i].degrees_of_freedom) << i;
    EXPECT_EQ(actual[i].independent, expected[i].independent) << i;
  }
}

TEST(DiscreteCiTestBatch, OversizedSetsInsideABatchAreSkippedConservatively) {
  const DiscreteDataset data = random_dataset(6, 400, 4, 55);
  CiTestOptions options;
  // Every full (x, y, z) table overflows a 1-cell cap.
  options.max_cells = 1;
  DiscreteCiTest test(data, options);
  test.begin_group(0, 1);

  const std::vector<VarId> flat{2, 3, 4};  // three singleton sets
  std::vector<CiResult> results(3);
  test.test_batch_in_group(flat, /*depth=*/1, results);
  for (const CiResult& result : results) {
    EXPECT_FALSE(result.independent);
    EXPECT_EQ(result.degrees_of_freedom, -1);
  }
  EXPECT_EQ(test.tests_performed(), 3);
}

TEST(DiscreteCiTestBatch, SampleParallelToggleIsRuntimeRetargetable) {
  const DiscreteDataset data = random_dataset(6, 2000, 3, 77);
  DiscreteCiTest test(data, {});
  DiscreteCiTest reference(data, {});
  const std::vector<VarId> z{3};
  const CiResult serial = reference.test(0, 1, z);

  EXPECT_FALSE(test.sample_parallel_build());
  EXPECT_TRUE(test.set_sample_parallel(true));
  EXPECT_TRUE(test.sample_parallel_build());
  // Clones build the way the source currently does, not the way it was
  // constructed.
  EXPECT_TRUE(test.clone()->sample_parallel_build());
  const CiResult parallel = test.test(0, 1, z);
  EXPECT_DOUBLE_EQ(parallel.statistic, serial.statistic);
  EXPECT_TRUE(test.set_sample_parallel(false));
  EXPECT_FALSE(test.sample_parallel_build());
  const CiResult back = test.test(0, 1, z);
  EXPECT_DOUBLE_EQ(back.statistic, serial.statistic);
}

}  // namespace
}  // namespace fastbns
