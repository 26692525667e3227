// Tracing seams of the benchmark: a CiTest and a SkeletonEngine that
// forward every virtual to the real object and record, from outside the
// library, how a learn spends its time.
//
// TracingCiTest counts CI calls per instance (one instance per worker
// thread, because engines clone the prototype per thread) into blocks a
// shared CiTraceSink owns; the blocks merge after the run, so the hot
// path touches no shared state. TracingEngine timestamps the driver's
// per-depth seams: take_prepared_depth_works is the driver's last call
// before it builds a depth's work list, and run_depth brackets the CI
// tests, so the gaps between the two are work-list build and commit.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "engine/skeleton_engine.hpp"
#include "stats/ci_test.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using fastbns::CiResult;
using fastbns::CiTest;
using fastbns::VarId;

/// FNV-1a, 64 bit: the digests and the replay sample.
struct Fnv {
  std::uint64_t hash = 1469598103934665603ull;
  void mix(std::uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ull;
  }
};

/// One CI test kept for the counting-share replay.
struct SampledTest {
  VarId x = 0;
  VarId y = 0;
  std::vector<VarId> z;
};

/// Counters of one TracingCiTest instance.
struct CiCounters {
  std::int64_t tests = 0;
  std::int64_t calls_single = 0;  ///< test() + test_in_group()
  std::int64_t calls_batch = 0;   ///< test_batch_in_group()
  std::int64_t accepted = 0;      ///< results with independent == true
  std::int64_t oversized = 0;     ///< df == -1: table over the cell cap
  std::int64_t degenerate = 0;    ///< df == 0: no measurable dependence
  double busy_s = 0.0;            ///< wall time inside CI calls
  double bytes_computed = 0.0;    ///< sum of samples * (|S| + 2)
  std::vector<SampledTest> samples;

  void merge(const CiCounters& other);
};

/// Owns the counter blocks of a traced prototype and all of its clones.
class CiTraceSink {
 public:
  /// Tests whose (x, y, z) hash is 0 modulo `sample_modulus` are kept
  /// for the replay; 0 keeps none. `samples_per_test` is the m of the
  /// bytes_computed formula.
  CiTraceSink(std::uint64_t sample_modulus, std::int64_t samples_per_test)
      : sample_modulus_(sample_modulus), samples_per_test_(samples_per_test) {}

  [[nodiscard]] CiCounters& add_block();
  /// Sum of every block; samples sorted, so the result is independent of
  /// which thread ran which test.
  [[nodiscard]] CiCounters merged() const;

  [[nodiscard]] std::uint64_t sample_modulus() const noexcept {
    return sample_modulus_;
  }
  [[nodiscard]] std::int64_t samples_per_test() const noexcept {
    return samples_per_test_;
  }

 private:
  std::uint64_t sample_modulus_;
  std::int64_t samples_per_test_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<CiCounters>> blocks_;  // guarded by mutex_
};

class TracingCiTest final : public CiTest {
 public:
  TracingCiTest(std::unique_ptr<CiTest> inner,
                std::shared_ptr<CiTraceSink> sink);

  CiResult test(VarId x, VarId y, std::span<const VarId> z) override;
  void begin_group(VarId x, VarId y) override;
  CiResult test_in_group(std::span<const VarId> z) override;
  void test_batch_in_group(std::span<const VarId> flat_sets,
                           std::int32_t depth,
                           std::span<CiResult> results) override;
  bool set_sample_parallel(bool enabled) override {
    return inner_->set_sample_parallel(enabled);
  }
  [[nodiscard]] bool sample_parallel_build() const noexcept override {
    return inner_->sample_parallel_build();
  }
  [[nodiscard]] fastbns::Count workload_samples() const noexcept override {
    return inner_->workload_samples();
  }
  [[nodiscard]] std::int64_t workload_states(VarId v) const noexcept override {
    return inner_->workload_states(v);
  }
  [[nodiscard]] std::span<const std::byte> workload_column_bytes(
      VarId v) const noexcept override {
    return inner_->workload_column_bytes(v);
  }
  [[nodiscard]] std::size_t table_cell_cap() const noexcept override {
    return inner_->table_cell_cap();
  }
  [[nodiscard]] std::string_view table_builder_name() const noexcept override {
    return inner_->table_builder_name();
  }
  [[nodiscard]] std::uint64_t config_token() const noexcept override {
    return inner_->config_token();
  }
  [[nodiscard]] std::unique_ptr<CiTest> clone() const override;

 private:
  void record(VarId x, VarId y, std::span<const VarId> z,
              const CiResult& result);

  std::unique_ptr<CiTest> inner_;
  std::shared_ptr<CiTraceSink> sink_;
  CiCounters* counters_;  // owned by sink_
};

/// Seam timestamps of one depth, as the engine saw them.
struct DepthSeams {
  std::int32_t depth = 0;
  Clock::time_point run_start;
  Clock::time_point run_end;
};

class TracingEngine final : public fastbns::SkeletonEngine {
 public:
  explicit TracingEngine(fastbns::SkeletonEngine& inner) : inner_(inner) {}

  void prepare_run() override;
  std::int64_t run_depth(std::vector<fastbns::EdgeWork>& works,
                         std::int32_t depth, const CiTest& prototype,
                         const fastbns::PcOptions& options) override;
  [[nodiscard]] bool take_prepared_depth_works(
      std::int32_t depth, const fastbns::UndirectedGraph& graph, bool grouped,
      std::vector<fastbns::EdgeWork>& works) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_.name();
  }
  [[nodiscard]] bool supports_endpoint_grouping() const noexcept override {
    return inner_.supports_endpoint_grouping();
  }
  [[nodiscard]] bool wants_sample_parallel_test() const noexcept override {
    return inner_.wants_sample_parallel_test();
  }
  [[nodiscard]] bool uses_sample_parallel_builds() const noexcept override {
    return inner_.uses_sample_parallel_builds();
  }

  /// prepare_run's interval.
  [[nodiscard]] Clock::time_point prepare_start() const noexcept {
    return prepare_start_;
  }
  [[nodiscard]] Clock::time_point prepare_end() const noexcept {
    return prepare_end_;
  }
  [[nodiscard]] const std::vector<DepthSeams>& depths() const noexcept {
    return depths_;
  }
  /// When the driver asked for each depth's work list, in call order.
  [[nodiscard]] const std::vector<Clock::time_point>& worklist_starts()
      const noexcept {
    return worklist_starts_;
  }

 private:
  fastbns::SkeletonEngine& inner_;
  Clock::time_point prepare_start_;
  Clock::time_point prepare_end_;
  std::vector<DepthSeams> depths_;
  std::vector<Clock::time_point> worklist_starts_;
};

}  // namespace perfbench
