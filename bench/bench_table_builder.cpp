// TableBuilder kernel bench: the serial counting kernel isolated from
// the statistic layer, one build() per table — the call every engine
// makes.
//
// - Data: "uniform3" is a synthetic large-n data set of cardinality-3
//   columns drawn uniformly; "munin1" forward-samples the munin1 analog,
//   whose skewed columns (cardinality 2-4) are what the benchmark's
//   munin1 workloads count. Its tables take (x, y) from the network's
//   edges, the pairs that survive depth 0, with random conditioning
//   sets.
// - Tiers: each row set times the kernel clamped to the scalar dispatch
//   tier (ScopedSimdTierOverride) and at the active tier, in rotation,
//   and reports the active tier's speedup over the scalar tier. On AVX2
//   the bitset pass counts depths 0 and 1 and the vector pass depths 2
//   and 3, so every depth should read above 1x. The "endpoint codes" row
//   times make_table_context per munin1 pair: the code stream the
//   scalar and vector passes read and the bitset pass does not. Results
//   land in bench_results/BENCH_table_builder.json.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/reporting.hpp"
#include "bench_util/workloads.hpp"
#include "common/args.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "stats/simd_dispatch.hpp"
#include "stats/table_builder.hpp"

namespace {

using namespace fastbns;

constexpr VarId kNumVars = 12;
constexpr std::int32_t kCard = 3;
constexpr std::size_t kMuninGroups = 32;

DiscreteDataset synthetic_dataset(Count samples) {
  DiscreteDataset data(kNumVars, samples,
                       std::vector<std::int32_t>(kNumVars, kCard),
                       DataLayout::kColumnMajor);
  Rng rng(20260730);
  for (Count s = 0; s < samples; ++s) {
    for (VarId v = 0; v < kNumVars; ++v) {
      data.set(s, v, static_cast<DataValue>(rng.next_below(kCard)));
    }
  }
  return data;
}

/// One endpoint pair and its conditioning sets.
struct Group {
  VarId x = 0;
  VarId y = 0;
  std::vector<std::vector<VarId>> sets;
};

/// `count` random sets of `depth` variables other than x and y.
std::vector<std::vector<VarId>> random_sets(const DiscreteDataset& data,
                                            VarId x, VarId y,
                                            std::int32_t depth,
                                            std::size_t count, Rng& rng) {
  std::vector<std::vector<VarId>> sets;
  for (std::size_t j = 0; j < count; ++j) {
    std::vector<VarId> z;
    while (static_cast<std::int32_t>(z.size()) < depth) {
      const auto v = static_cast<VarId>(
          rng.next_below(static_cast<std::uint64_t>(data.num_vars())));
      if (v == x || v == y || std::find(z.begin(), z.end(), v) != z.end()) {
        continue;
      }
      z.push_back(v);
    }
    std::sort(z.begin(), z.end());
    sets.push_back(std::move(z));
  }
  return sets;
}

/// Best time of each of `fns`, timed in rotation until together they
/// have run for `min_total` seconds per function (at least 3 rounds), so
/// a slow spell of a shared host falls on all of them alike.
std::vector<double> best_seconds(const std::vector<std::function<void()>>& fns,
                                 double min_total) {
  for (const auto& fn : fns) fn();  // warmup
  std::vector<double> best(fns.size(), 1e100);
  double accumulated = 0.0;
  const double budget = min_total * static_cast<double>(fns.size());
  for (int round = 0; round < 3 || accumulated < budget; ++round) {
    for (std::size_t i = 0; i < fns.size(); ++i) {
      const WallTimer timer;
      fns[i]();
      const double seconds = timer.seconds();
      accumulated += seconds;
      best[i] = std::min(best[i], seconds);
    }
  }
  return best;
}

/// The groups of one data set with a context per pair (each in its own
/// arena, so the timed loop only counts) and per-group cell storage.
struct Workset {
  std::vector<Group> groups;
  std::vector<ScratchArena> arenas;
  std::vector<TableBuildContext> contexts;
  std::vector<std::vector<std::vector<Count>>> storage;
  std::vector<std::vector<TableJob>> jobs;
  std::size_t tables = 0;

  Workset(const DiscreteDataset& data, std::vector<Group> all)
      : groups(std::move(all)), arenas(groups.size()) {
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const Group& group = groups[g];
      contexts.push_back(make_table_context(data, group.x, group.y,
                                            /*row_major=*/false, arenas[g]));
      const auto xy_cells = static_cast<std::size_t>(contexts[g].cx) *
                            static_cast<std::size_t>(contexts[g].cy);
      storage.emplace_back(group.sets.size());
      jobs.emplace_back();
      for (std::size_t j = 0; j < group.sets.size(); ++j) {
        std::size_t cz = 1;
        for (const VarId v : group.sets[j]) {
          cz *= static_cast<std::size_t>(data.cardinality(v));
        }
        storage[g][j].assign(xy_cells * cz, 0);
        jobs[g].push_back(TableJob{group.sets[j], cz, storage[g][j]});
      }
      tables += group.sets.size();
    }
  }

  /// Counts every table through one build() each.
  void count(TableBuilder& kernel) {
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (const TableJob& job : jobs[g]) kernel.build(contexts[g], job);
    }
  }
};

/// Times the serial kernel over `groups` clamped to the scalar tier and
/// at the active tier, and adds one row for each.
void add_kernel_rows(TablePrinter& table, const std::string& label,
                     const DiscreteDataset& data,
                     const std::vector<Group>& groups, std::int32_t depth,
                     double min_total) {
  Workset work(data, groups);
  const std::unique_ptr<TableBuilder> kernel = make_serial_table_builder();
  const std::vector<double> best = best_seconds(
      {[&] {
         const ScopedSimdTierOverride scalar(SimdTier::kScalar);
         work.count(*kernel);
       },
       [&] { work.count(*kernel); }},
      min_total);
  const std::string tiers[] = {"scalar",
                               std::string(to_string(active_simd_tier()))};
  const auto samples = static_cast<double>(data.num_samples());
  const auto tables = static_cast<double>(work.tables);
  for (std::size_t k = 0; k < best.size(); ++k) {
    table.add_row({label, tiers[k], std::to_string(depth),
                   std::to_string(data.num_samples()),
                   TablePrinter::num(best[k] * 1e3, 3),
                   TablePrinter::num(best[k] / tables * 1e6, 2),
                   TablePrinter::num(samples * tables / best[k] / 1e6, 1),
                   k == 0 ? std::string("-")
                          : TablePrinter::num(best[0] / best[k], 2)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("bench_table_builder",
                 "the serial TableBuilder kernel, one table per build(), on "
                 "uniform and munin1-analog columns: scalar vs active SIMD "
                 "tier");
  args.add_flag("samples", "samples in the synthetic uniform data set",
                "2000000");
  args.add_flag("munin-samples", "forward samples of the munin1 analog",
                "20000");
  args.add_flag("min-seconds", "measurement budget per cell", "0.3");
  if (!args.parse(argc, argv)) return 1;

  const double min_total = std::stod(args.get("min-seconds"));
  std::printf("SIMD dispatch: detected=%s active=%s\n",
              std::string(to_string(detected_simd_tier())).c_str(),
              std::string(to_string(active_simd_tier())).c_str());

  TablePrinter table({"data", "tier", "depth", "samples", "best(ms)",
                      "us/table", "Msamples*tables/s", "vs scalar tier"});

  const DiscreteDataset uniform = synthetic_dataset(args.get_int("samples"));
  for (std::int32_t depth = 0; depth <= 3; ++depth) {
    Rng rng(static_cast<std::uint64_t>(depth));
    const std::vector<Group> groups{
        Group{0, 1, random_sets(uniform, 0, 1, depth, 1, rng)}};
    add_kernel_rows(table, "uniform3", uniform, groups, depth, min_total);
  }

  const Workload munin = make_workload(
      "munin1", args.get_int("munin-samples"), DataLayout::kColumnMajor);
  const DiscreteDataset& data = munin.data.discrete();
  const std::vector<std::pair<VarId, VarId>> edges =
      munin.network.dag().edges();
  for (std::int32_t depth = 0; depth <= 3; ++depth) {
    Rng rng(1000 + static_cast<std::uint64_t>(depth));
    std::vector<Group> groups;
    for (std::size_t g = 0; g < kMuninGroups; ++g) {
      const auto& [from, to] = edges[g * edges.size() / kMuninGroups];
      const VarId x = std::min(from, to);
      const VarId y = std::max(from, to);
      groups.push_back(Group{x, y, random_sets(data, x, y, depth, 1, rng)});
    }
    add_kernel_rows(table, "munin1", data, groups, depth, min_total);
  }

  ScratchArena arena;
  const double codes_seconds = best_seconds(
      {[&] {
        for (std::size_t g = 0; g < kMuninGroups; ++g) {
          const auto& [x, y] = edges[g * edges.size() / kMuninGroups];
          (void)make_table_context(data, x, y, /*row_major=*/false, arena);
        }
      }},
      min_total)[0];
  table.add_row({"munin1", "endpoint codes", "-",
                 std::to_string(data.num_samples()),
                 TablePrinter::num(codes_seconds * 1e3, 3),
                 TablePrinter::num(codes_seconds / kMuninGroups * 1e6, 2),
                 "-", "-"});

  emit_table("Serial TableBuilder kernel: scalar vs active SIMD tier",
             "table_builder", table);
  std::printf(
      "\nShape check: above 1x at every depth on AVX2 (the bitset pass at "
      "depths 0 and 1,\nthe vector pass at depths 2 and 3); about 1.0x on "
      "the scalar tier.\n");
  return 0;
}
