// The CI-kernel contract: every TableBuilder counts the same table —
// the serial kernel at each SIMD dispatch tier and the sample-parallel
// kernel, on randomized shapes, cardinalities and layouts — equal to an
// independent count taken straight from the dataset. This is what lets
// DiscreteCiTest switch a test between the two builders, and the CPU
// pick the serial kernel's passes, without changing any result.
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
/// DiscreteDataset::value(). Shares no code with the kernels or with
/// make_table_context, so a bug common to all of them still shows.
std::vector<Count> reference_table(const DiscreteDataset& data, VarId x,
                                   VarId y, const std::vector<VarId>& z) {
  const auto value = [&data](Count s, VarId v) {
    return static_cast<std::size_t>(data.value(s, v));
  };
  const auto cy = static_cast<std::size_t>(data.cardinality(y));
  const std::size_t cz = cz_product(data, z);
  std::vector<Count> cells(
      static_cast<std::size_t>(data.cardinality(x)) * cy * cz, 0);
  for (Count s = 0; s < data.num_samples(); ++s) {
    std::size_t zc = 0;
    for (const VarId v : z) {
      zc = zc * static_cast<std::size_t>(data.cardinality(v)) + value(s, v);
    }
    ++cells[(value(s, x) * cy + value(s, y)) * cz + zc];
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

/// Calls check(kernel, label) for the serial kernel clamped to each
/// dispatch tier — the override never exceeds the detected tier, so a
/// CPU without AVX2 runs the scalar tier under the avx2 label too — and
/// for the sample-parallel kernel.
template <typename Check>
void for_each_kernel(Check&& check) {
  const std::unique_ptr<TableBuilder> serial = make_serial_table_builder();
  for (const SimdTier tier : {SimdTier::kScalar, SimdTier::kAvx2}) {
    const ScopedSimdTierOverride guard(tier);
    EXPECT_LE(active_simd_tier(), tier);
    check(*serial, "serial/" + std::string(to_string(tier)));
  }
  const std::unique_ptr<TableBuilder> sample_parallel =
      make_sample_parallel_table_builder();
  check(*sample_parallel, std::string(sample_parallel->name()));
}

TEST(TableBuilder, KernelsMatchAnIndependentCountOnRandomizedShapes) {
  Rng rng(20260729);
  ScratchArena arena;
  for (int round = 0; round < 20; ++round) {
    const auto n = static_cast<VarId>(6 + rng.next_below(5));
    // Deliberately not a vector-width multiple most rounds, so the vector
    // pass's tail lanes are exercised alongside its full blocks.
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
    const std::vector<std::vector<VarId>> zs =
        make_jobs(data, x, y, 12, depth, rng).zs;

    // build_batch is the base loop over build().
    for_each_kernel([&](TableBuilder& kernel, const std::string& label) {
      JobBatch probe = jobs_for(data, x, y, zs);
      kernel.build_batch(context, probe.jobs);
      for (std::size_t j = 0; j < probe.jobs.size(); ++j) {
        EXPECT_EQ(probe.cells_storage[j],
                  reference_table(data, x, y, probe.zs[j]))
            << label << " round=" << round << " job=" << j
            << " depth=" << depth;
      }
    });
  }
}

TEST(TableBuilder, KernelsMatchAnIndependentCountOnEdgeShapes) {
  // Shapes random draws rarely hit: a constant column and one that is 95%
  // a single value (forward-sampled networks are skewed like this),
  // |z| <= 1 tables exactly at and just over the bitset pass's cell
  // bound, a cardinality-1 endpoint, every sample count remainder mod 4,
  // depths 0-3, a pair whose codes need int32, a row-major context, and
  // the largest value of every cardinality.
  enum : VarId {
    kX, kY, kConst, kSkewed, kUnder, kOver, kWideX, kWideY, kUnit
  };
  // With cx*cy = 16, one conditioning variable of card `under` fills the
  // bound exactly and one of card `under + 1` exceeds it; at depth 2 the
  // two binary columns give a 64-cell table, which the bitset pass leaves
  // to the index composition like any deeper table.
  const auto under =
      static_cast<std::int32_t>(table_detail::kBitsetCells / 16);
  ASSERT_GE(under, 2);
  const std::vector<VarId> pool{kConst, kSkewed, kUnder, kOver};

  for (const Count m : {Count{1001}, Count{1002}, Count{1003}}) {
    DiscreteDataset data = dataset_with_cards(
        {4, 4, 2, 2, under, under + 1, 17, 16, 1}, m,
        static_cast<std::uint64_t>(m));
    Rng rng(static_cast<std::uint64_t>(m) + 1);
    for (Count s = 0; s < m; ++s) {
      data.set(s, kConst, 1);
      data.set(s, kSkewed, rng.next_below(20) == 0 ? 0 : 1);
    }
    data.set(3, kX, 3);
    data.set(m - 1, kY, 3);
    data.set(m / 2, kUnder, static_cast<DataValue>(under - 1));
    data.set(m - 1, kWideX, 16);

    ScratchArena arena;
    const struct {
      VarId x;
      VarId y;
      bool row_major;
      const char* label;
    } pairs[] = {{kX, kY, false, "bytes"},
                 {kX, kY, true, "row-major"},
                 {kWideX, kWideY, false, "int32"},
                 {kUnit, kY, false, "cardinality-1"}};
    for (const auto& pair : pairs) {
      const TableBuildContext context =
          make_table_context(data, pair.x, pair.y, pair.row_major, arena);
      for (std::int32_t depth = 0; depth <= 3; ++depth) {
        // Each rotation of the pool: every variable in a set of each size.
        std::vector<std::vector<VarId>> zs;
        for (std::size_t j = 0; j < pool.size(); ++j) {
          std::vector<VarId> z;
          for (std::int32_t i = 0; i < depth; ++i) {
            z.push_back(pool[(j + static_cast<std::size_t>(i)) % pool.size()]);
          }
          std::sort(z.begin(), z.end());
          zs.push_back(std::move(z));
        }
        for_each_kernel([&](TableBuilder& kernel, const std::string& label) {
          JobBatch probe = jobs_for(data, pair.x, pair.y, zs);
          for (std::size_t j = 0; j < zs.size(); ++j) {
            kernel.build(context, probe.jobs[j]);
            EXPECT_EQ(probe.cells_storage[j],
                      reference_table(data, pair.x, pair.y, zs[j]))
                << pair.label << ' ' << label << " m=" << m
                << " depth=" << depth << " job=" << j;
          }
        });
      }
    }
  }
}

TEST(TableBuilder, RowMajorContextMatchesColumnMajor) {
  const DiscreteDataset data = random_dataset(7, 500, 4, 7);
  const std::vector<std::int32_t> codes = xy_codes(data, 1, 4);
  TableBuildContext col_context;
  col_context.data = &data;
  col_context.x = 1;
  col_context.y = 4;
  col_context.xy_codes = codes;
  col_context.cx = data.cardinality(1);
  col_context.cy = data.cardinality(4);
  TableBuildContext row_context = col_context;
  row_context.row_major = true;

  Rng rng(99);
  const std::vector<std::vector<VarId>> zs = make_jobs(data, 1, 4, 6, 2, rng).zs;
  for_each_kernel([&](TableBuilder& kernel, const std::string& label) {
    JobBatch col_jobs = jobs_for(data, 1, 4, zs);
    JobBatch row_jobs = jobs_for(data, 1, 4, zs);
    for (std::size_t j = 0; j < zs.size(); ++j) {
      kernel.build(col_context, col_jobs.jobs[j]);
      kernel.build(row_context, row_jobs.jobs[j]);
      EXPECT_EQ(row_jobs.cells_storage[j], col_jobs.cells_storage[j])
          << label << " job=" << j;
      EXPECT_EQ(col_jobs.cells_storage[j], reference_table(data, 1, 4, zs[j]))
          << label << " job=" << j;
    }
  });
}

TEST(TableBuilder, MarginalTablesNeedNoConditioningColumns) {
  const DiscreteDataset data = random_dataset(5, 300, 3, 21);
  const std::vector<std::int32_t> codes = xy_codes(data, 0, 2);
  TableBuildContext context;
  context.data = &data;
  context.x = 0;
  context.y = 2;
  context.xy_codes = codes;
  context.cx = data.cardinality(0);
  context.cy = data.cardinality(2);

  const std::vector<Count> expected = reference_table(data, 0, 2, {});
  for_each_kernel([&](TableBuilder& kernel, const std::string& label) {
    std::vector<Count> cells(expected.size(), -1);
    kernel.build(context, TableJob{{}, 1, cells});
    EXPECT_EQ(cells, expected) << label;
  });
  Count total = 0;
  for (const Count c : expected) total += c;
  EXPECT_EQ(total, data.num_samples());
}

TEST(TableBuilder, ContextHelperMatchesManualCodes) {
  // make_table_context fills exactly one endpoint-code stream with the
  // codes every call site used to compute by hand: bytes for a column
  // context whose cx*cy fits a byte — on every dispatch tier — and int32
  // codes otherwise.
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
}

/// Builds each conditioning set's table through every kernel and expects
/// the independent reference count.
void expect_kernels_match_reference(const DiscreteDataset& data, VarId x,
                                    VarId y,
                                    const std::vector<std::vector<VarId>>& zs,
                                    const char* label) {
  ScratchArena arena;
  const TableBuildContext context =
      make_table_context(data, x, y, /*row_major=*/false, arena);
  for_each_kernel([&](TableBuilder& kernel, const std::string& name) {
    JobBatch probe = jobs_for(data, x, y, zs);
    for (std::size_t j = 0; j < zs.size(); ++j) {
      kernel.build(context, probe.jobs[j]);
      EXPECT_EQ(probe.cells_storage[j], reference_table(data, x, y, zs[j]))
          << label << ' ' << name << " job=" << j;
    }
  });
}

TEST(TableBuilder, KernelsMatchAcrossCardinalityBoundaries) {
  // Cardinality 255 is the last whose every value a byte column holds;
  // 300 declares states no byte can reach, and the kernels read both
  // columns alike. The 255*300-state set also pushes the table past
  // 65536 cells, forcing the wide 32-bit index path, while the smaller
  // sets stay on the 16-bit fast path.
  const VarId n = 5;
  const Count m = 3001;
  DiscreteDataset data(n, m, {2, 3, 255, 300, 17}, DataLayout::kColumnMajor);
  Rng rng(255);
  for (Count s = 0; s < m; ++s) {
    for (VarId v = 0; v < n; ++v) {
      const auto card = static_cast<std::uint64_t>(
          std::min(data.cardinality(v), 256));
      data.set(s, v, static_cast<DataValue>(rng.next_below(card)));
    }
  }
  expect_kernels_match_reference(data, 0, 1,
                                 {{2}, {3}, {2, 4}, {3, 4}, {2, 3}},
                                 "boundary-cards");
}

TEST(TableBuilder, KernelsHandleNonVectorWidthSampleCounts) {
  // 1 and 5 never fill a vector; 97 leaves scalar tails on every tier;
  // 63, 64 and 65 end inside, at and just past one 64-sample mask word of
  // the bitset pass; 4095, 4096 and 4097 do the same at a 4096-sample
  // block of both AVX2 passes, and 8193 spills one sample into a third
  // block. The depth-0 and depth-1 sets (at most 64 cells here) take the
  // bitset pass, the depth-2 sets the index composition.
  for (const Count m : {Count{1}, Count{5}, Count{63}, Count{64}, Count{65},
                        Count{97}, Count{4095}, Count{4096}, Count{4097},
                        Count{8193}}) {
    const DiscreteDataset data =
        random_dataset(6, m, 4, 500 + static_cast<std::uint64_t>(m));
    expect_kernels_match_reference(
        data, 0, 3, {{}, {1}, {4}, {1, 2}, {2, 4}, {4, 5}, {1, 5}},
        ("tail-samples m=" + std::to_string(m)).c_str());
  }
}

TEST(TableBuilder, FactoryNamesOnlyTheSerialKernel) {
  EXPECT_EQ(make_serial_table_builder()->name(), "serial");
  EXPECT_EQ(make_sample_parallel_table_builder()->name(), "sample-parallel");
  for (const char* name : {"auto", "serial"}) {
    EXPECT_EQ(make_table_builder(name)->name(), "serial") << name;
  }
  // The retired kernel names, and the sample-parallel kernel (switched on
  // through CiTestOptions::sample_parallel, never by name), throw with a
  // message that names the value and points at FASTBNS_SIMD.
  for (const char* name :
       {"scalar", "simd", "batched", "sample-parallel", "vectorized"}) {
    try {
      (void)make_table_builder(name);
      ADD_FAILURE() << "expected std::invalid_argument for " << name;
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find(name), std::string::npos) << message;
      EXPECT_NE(message.find("FASTBNS_SIMD"), std::string::npos) << message;
    }
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
