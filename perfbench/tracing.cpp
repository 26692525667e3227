#include "tracing.hpp"

#include <algorithm>
#include <tuple>

namespace perfbench {
namespace {

double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

/// Hash of the test's identity: a deterministic sample that does not
/// depend on which thread ran the test or in which order.
std::uint64_t test_hash(VarId x, VarId y, std::span<const VarId> z) {
  Fnv fnv;
  fnv.mix(static_cast<std::uint64_t>(x));
  fnv.mix(static_cast<std::uint64_t>(y));
  for (const VarId v : z) fnv.mix(static_cast<std::uint64_t>(v));
  return fnv.hash;
}

}  // namespace

void CiCounters::merge(const CiCounters& other) {
  tests += other.tests;
  calls_single += other.calls_single;
  calls_batch += other.calls_batch;
  accepted += other.accepted;
  oversized += other.oversized;
  degenerate += other.degenerate;
  busy_s += other.busy_s;
  bytes_computed += other.bytes_computed;
  samples.insert(samples.end(), other.samples.begin(), other.samples.end());
}

CiCounters& CiTraceSink::add_block() {
  const std::lock_guard<std::mutex> lock(mutex_);
  blocks_.push_back(std::make_unique<CiCounters>());
  return *blocks_.back();
}

CiCounters CiTraceSink::merged() const {
  CiCounters total;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& block : blocks_) total.merge(*block);
  }
  std::sort(total.samples.begin(), total.samples.end(),
            [](const SampledTest& a, const SampledTest& b) {
              return std::tie(a.x, a.y, a.z) < std::tie(b.x, b.y, b.z);
            });
  return total;
}

TracingCiTest::TracingCiTest(std::unique_ptr<CiTest> inner,
                             std::shared_ptr<CiTraceSink> sink)
    : inner_(std::move(inner)),
      sink_(std::move(sink)),
      counters_(&sink_->add_block()) {}

void TracingCiTest::record(VarId x, VarId y, std::span<const VarId> z,
                           const CiResult& result) {
  CiCounters& c = *counters_;
  ++c.tests;
  ++tests_performed_;
  if (result.independent) ++c.accepted;
  if (result.degrees_of_freedom == -1) ++c.oversized;
  if (result.degrees_of_freedom == 0) ++c.degenerate;
  c.bytes_computed += static_cast<double>(sink_->samples_per_test()) *
                      static_cast<double>(z.size() + 2);
  const std::uint64_t modulus = sink_->sample_modulus();
  if (modulus != 0 && test_hash(x, y, z) % modulus == 0) {
    c.samples.push_back(SampledTest{x, y, {z.begin(), z.end()}});
  }
}

CiResult TracingCiTest::test(VarId x, VarId y, std::span<const VarId> z) {
  const Clock::time_point start = Clock::now();
  const CiResult result = inner_->test(x, y, z);
  counters_->busy_s += seconds_between(start, Clock::now());
  ++counters_->calls_single;
  record(x, y, z, result);
  return result;
}

void TracingCiTest::begin_group(VarId x, VarId y) {
  const Clock::time_point start = Clock::now();
  inner_->begin_group(x, y);
  counters_->busy_s += seconds_between(start, Clock::now());
  group_x_ = x;
  group_y_ = y;
}

CiResult TracingCiTest::test_in_group(std::span<const VarId> z) {
  const Clock::time_point start = Clock::now();
  const CiResult result = inner_->test_in_group(z);
  counters_->busy_s += seconds_between(start, Clock::now());
  ++counters_->calls_single;
  record(group_x_, group_y_, z, result);
  return result;
}

void TracingCiTest::test_batch_in_group(std::span<const VarId> flat_sets,
                                        std::int32_t depth,
                                        std::span<CiResult> results) {
  const Clock::time_point start = Clock::now();
  inner_->test_batch_in_group(flat_sets, depth, results);
  counters_->busy_s += seconds_between(start, Clock::now());
  ++counters_->calls_batch;
  const auto d = static_cast<std::size_t>(depth);
  for (std::size_t i = 0; i < results.size(); ++i) {
    record(group_x_, group_y_, flat_sets.subspan(i * d, d), results[i]);
  }
}

std::unique_ptr<CiTest> TracingCiTest::clone() const {
  return std::make_unique<TracingCiTest>(inner_->clone(), sink_);
}

void TracingEngine::prepare_run() {
  depths_.clear();
  worklist_starts_.clear();
  prepare_start_ = Clock::now();
  inner_.prepare_run();
  prepare_end_ = Clock::now();
}

std::int64_t TracingEngine::run_depth(std::vector<fastbns::EdgeWork>& works,
                                      std::int32_t depth,
                                      const CiTest& prototype,
                                      const fastbns::PcOptions& options) {
  DepthSeams seams;
  seams.depth = depth;
  seams.run_start = Clock::now();
  const std::int64_t tests = inner_.run_depth(works, depth, prototype, options);
  seams.run_end = Clock::now();
  depths_.push_back(seams);
  return tests;
}

bool TracingEngine::take_prepared_depth_works(
    std::int32_t depth, const fastbns::UndirectedGraph& graph, bool grouped,
    std::vector<fastbns::EdgeWork>& works) {
  worklist_starts_.push_back(Clock::now());
  return inner_.take_prepared_depth_works(depth, graph, grouped, works);
}

}  // namespace perfbench
