// perfbench — the repository benchmark.
//
// Times the library's public entry points end to end on four generated
// workloads and, in a separate traced run, splits a learn by layer. Run
// it through perfbench/run.py, which builds it first:
//
//   python3 perfbench/run.py --workload munin1-g2 --seed 1 --seconds 20
//       --trace 0
//
// One invocation generates the workload's inputs from --seed, learns the
// fastbns-seq reference once (the digest every other learn is checked
// against), then repeats the workload's learn for --seconds and reports
// medians. With --trace 1 it interleaves further fastbns-seq learns into
// that loop and adds traced learns, whose wrappers (tracing.hpp) give the
// per-layer metrics. The last stdout line is
// {"correct", "attempted", "failed", "metrics"}; --report writes the full
// record (context, every metric, per-learn samples, checks, spans).
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util/reporting.hpp"
#include "common/args.hpp"
#include "common/rng.hpp"
#include "engine/engine_registry.hpp"
#include "engine/process_engine.hpp"
#include "ipc/shared_dataset.hpp"
#include "ipc/transport.hpp"
#include "network/forward_sampler.hpp"
#include "network/linear_gaussian.hpp"
#include "network/random_network.hpp"
#include "network/standard_networks.hpp"
#include "pc/orientation.hpp"
#include "pc/pc_stable.hpp"
#include "stats/ci_test_factory.hpp"
#include "stats/covariance.hpp"
#include "stats/simd_dispatch.hpp"
#include "stats/table_builder.hpp"
#include "tracing.hpp"

namespace {

using namespace fastbns;
using perfbench::Clock;

/// Threads of every parallel learn (the benchmark box has 4 CPUs).
constexpr int kThreads = 4;
/// Ranks x threads of the process-engine workload.
constexpr std::int32_t kRanks = 2;
constexpr std::int32_t kRankThreads = 2;
/// Timed learns per invocation: at least this many, whatever --seconds.
constexpr int kMinLearns = 3;
constexpr int kMaxLearns = 500;
/// With --trace 1, one fastbns-seq learn follows every this many timed
/// learns.
constexpr int kLearnsPerSeq = 2;
/// Traced learns per --trace 1 invocation; layer metrics are medians.
constexpr int kTracedLearns = 3;
/// A set-up shorter than this is also timed in blocks of repeats that
/// each last at least this long, one block after every timed learn, and
/// reported per set-up; microsecond set-ups would otherwise be clock
/// noise.
constexpr double kSetupBlockSeconds = 0.02;
/// About this many CI tests are replayed for stats.count_frac.
constexpr std::int64_t kReplayTests = 4000;
/// Depths with their own engine/pc metrics; deeper ones share d4plus.
constexpr int kNamedDepths = 4;

double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

// ---------------------------------------------------------------- JSON

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_number(values[i]);
  }
  return out + "]";
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

std::string json_metrics(const Metrics& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

// ----------------------------------------------------------- workloads

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "munin1-g2", "wide-g2", "sem-fisherz", "munin1-ranks"};
  return names;
}

/// The sample draw depends on --seed only; network structure and
/// parameters are fixed, so seeds vary the data, not the problem.
std::uint64_t sample_seed(std::uint64_t seed) {
  std::uint64_t state = seed ^ 0x5EEDFA57B15ull;
  return splitmix64(state);
}

Dataset make_inputs(const std::string& name, std::uint64_t seed, bool smoke) {
  Rng rng(sample_seed(seed));
  if (name == "munin1-g2" || name == "munin1-ranks") {
    const BayesianNetwork network = *benchmark_network("munin1");
    return forward_sample(network, smoke ? 2000 : 20000, rng);
  }
  if (name == "wide-g2") {
    RandomNetworkConfig config;
    config.num_nodes = smoke ? 150 : 1200;
    config.num_edges = smoke ? 225 : 1800;
    config.min_cardinality = 2;
    config.max_cardinality = 3;
    config.seed = 1500;
    const BayesianNetwork network = generate_random_network(config);
    return forward_sample(network, smoke ? 300 : 800, rng);
  }
  if (name == "sem-fisherz") {
    RandomNetworkConfig config;
    config.num_nodes = smoke ? 40 : 300;
    config.num_edges = smoke ? 60 : 450;
    config.seed = 300;
    const BayesianNetwork network = generate_random_network(config);
    Rng parameters(301);
    const LinearGaussianSem sem =
        random_linear_gaussian_sem(network.dag(), parameters);
    return sample_linear_gaussian(sem, smoke ? 5000 : 60000, rng);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// Library defaults (CI-level engine, group_size 1, "auto" kernel and
/// statistic) except the thread count and, for ranks, the rank layout.
PcOptions workload_options(const std::string& name) {
  PcOptions options;
  options.num_threads = kThreads;
  if (name == "munin1-ranks") {
    options.engine = EngineKind::kProcess;
    options.rank_count = kRanks;
    options.rank_threads = kRankThreads;
    options.ipc_transport = "pipe";
  }
  return options;
}

/// Fast-BNS-seq on one thread: the baseline and the correctness reference.
PcOptions reference_options() {
  PcOptions options;
  options.engine = EngineKind::kFastSequential;
  options.num_threads = 1;
  return options;
}

bool uses_ranks(const PcOptions& options) {
  return options.engine == EngineKind::kProcess;
}

/// The statistic request learn_structure builds from the same options.
CiTestRequest ci_request(const PcOptions& options,
                         const SkeletonEngine& engine) {
  CiTestRequest request;
  request.ci_test = options.ci_test;
  request.alpha = options.alpha;
  request.max_cells = options.max_table_cells;
  request.table_builder = options.table_builder;
  request.sample_parallel = engine.wants_sample_parallel_test();
  return request;
}

// ------------------------------------------------------------- digests

std::uint64_t input_digest(const Dataset& data) {
  perfbench::Fnv fnv;
  fnv.mix(static_cast<std::uint64_t>(data.num_vars()));
  fnv.mix(static_cast<std::uint64_t>(data.num_samples()));
  for (VarId v = 0; v < data.num_vars(); ++v) {
    if (data.is_discrete()) {
      for (const DataValue value : data.discrete().column(v)) fnv.mix(value);
      continue;
    }
    for (const double value : data.continuous().column(v)) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &value, sizeof(bits));
      fnv.mix(bits);
    }
  }
  return fnv.hash;
}

/// Adjacency, every separating set, and the depth each edge went at (the
/// size of its separating set under PC-stable).
std::uint64_t result_digest(const SkeletonResult& skeleton) {
  perfbench::Fnv fnv;
  const VarId n = skeleton.graph.num_nodes();
  fnv.mix(static_cast<std::uint64_t>(n));
  for (VarId x = 0; x < n; ++x) {
    for (VarId y = x + 1; y < n; ++y) {
      if (skeleton.graph.has_edge(x, y)) {
        fnv.mix(1);
        continue;
      }
      const std::vector<VarId>* sepset = skeleton.sepsets.find(x, y);
      if (sepset == nullptr) {
        fnv.mix(2);
        continue;
      }
      fnv.mix(3 + sepset->size());
      for (const VarId v : *sepset) fnv.mix(static_cast<std::uint64_t>(v));
    }
  }
  return fnv.hash;
}

std::string hex(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

// -------------------------------------------------------------- memory

long status_kb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) return std::stol(line.substr(prefix.size()));
  }
  return 0;
}

/// Returns freed heap to the kernel and restarts the VmHWM high-water
/// mark, then reports the resident size a learn starts from.
long begin_memory_probe() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
  return status_kb("VmRSS");
}

long children_max_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  return usage.ru_maxrss;
}

/// Peak of the learn above the resident inputs. Forked ranks start as a
/// copy of this process, so each adds its own peak above the same base.
double peak_rss_mb(long base_kb, bool ranks) {
  double extra_kb = static_cast<double>(status_kb("VmHWM") - base_kb);
  if (ranks) {
    extra_kb += kRanks * static_cast<double>(std::max<long>(
                             0, children_max_rss_kb() - base_kb));
  }
  return std::max(extra_kb, 0.0) / 1024.0;
}

// --------------------------------------------------------------- learn

/// What learn_structure builds before depth 0: the shared segment for
/// ranks, the engine, and the statistic over the segment's view.
struct SetUp {
  std::optional<SharedDatasetSegment> segment;
  Clock::time_point segment_end;
  std::unique_ptr<SkeletonEngine> engine;
  std::unique_ptr<CiTest> test;
};

SetUp set_up(const Dataset& data, const PcOptions& options) {
  SetUp s;
  if (uses_ranks(options)) s.segment.emplace(SharedDatasetSegment::create(data));
  s.segment_end = Clock::now();
  s.engine = EngineRegistry::instance().create(options);
  s.test = make_ci_test(s.segment ? s.segment->dataset() : data,
                        ci_request(options, *s.engine));
  return s;
}

struct LearnSample {
  double learn_s = 0.0;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t digest = 0;
  std::int64_t ci_tests = 0;
};

/// One learn exactly as learn_structure runs it: statistic construction
/// (and the shared segment for ranks), skeleton, orientation.
LearnSample learn_once(const Dataset& data, const PcOptions& options) {
  LearnSample sample;
  const long base_kb = begin_memory_probe();
  {
    const Clock::time_point start = Clock::now();
    const SetUp s = set_up(data, options);
    const Clock::time_point setup_end = Clock::now();
    const PcStableResult result =
        pc_stable(data.num_vars(), *s.test, options, *s.engine);
    const Clock::time_point end = Clock::now();
    sample.setup_s = seconds_between(start, setup_end);
    sample.learn_s = seconds_between(start, end);
    sample.digest = result_digest(result.skeleton);
    sample.ci_tests = result.skeleton.total_ci_tests;
  }
  // Ranks are reaped when the engine goes, so read their peak after it.
  sample.peak_rss_mb = peak_rss_mb(base_kb, uses_ranks(options));
  return sample;
}

/// Set-up alone, the part of learn_once before depth 0, repeated until
/// the block lasts kSetupBlockSeconds; returns seconds per set-up.
double setup_block(const Dataset& data, const PcOptions& options) {
  const Clock::time_point start = Clock::now();
  int repeats = 0;
  double elapsed = 0.0;
  while (elapsed < kSetupBlockSeconds) {
    const SetUp s = set_up(data, options);
    ++repeats;
    elapsed = seconds_between(start, Clock::now());
  }
  return elapsed / repeats;
}

// -------------------------------------------------------------- traced

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the learn began
  double end = 0.0;
  int parent = -1;  ///< index into the span list, -1 for the root
  int depth = -1;   ///< PC depth, -1 when the span is not per depth
};

struct TracedLearn {
  LearnSample sample;
  std::map<std::string, double> layer;  ///< per-layer metric values
  double layer_sum_rel_err = 0.0;       ///< seams vs the driver's seconds
  std::vector<Span> spans;
  std::vector<perfbench::SampledTest> samples;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}
  int add(const std::string& name, Clock::time_point start,
          Clock::time_point end, int parent, int depth = -1) {
    spans_.push_back(Span{name, seconds_between(origin_, start),
                          seconds_between(origin_, end), parent, depth});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// A span placed by offsets from another span's start (ipc phases,
  /// which the engine reports as durations).
  int add_offset(const std::string& name, int from, double offset,
                 double seconds, int parent, int depth) {
    const double start = spans_[static_cast<std::size_t>(from)].start + offset;
    spans_.push_back(Span{name, start, start + seconds, parent, depth});
    return static_cast<int>(spans_.size()) - 1;
  }
  std::vector<Span> take() { return std::move(spans_); }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

std::string depth_key(int depth) {
  return depth < kNamedDepths ? "d" + std::to_string(depth) : "d4plus";
}

/// One learn through the public seams with both wrappers in place.
TracedLearn traced_learn(const Dataset& data, const PcOptions& options,
                         std::uint64_t sample_modulus) {
  TracedLearn traced;
  std::map<std::string, double>& layer = traced.layer;
  const bool ranks = uses_ranks(options);
  const long base_kb = begin_memory_probe();
  {
    const Clock::time_point start = Clock::now();
    SpanRecorder spans(start);
    SetUp s = set_up(data, options);
    perfbench::TracingEngine engine(*s.engine);
    auto sink = std::make_shared<perfbench::CiTraceSink>(
        sample_modulus, static_cast<std::int64_t>(data.num_samples()));
    const perfbench::TracingCiTest prototype(std::move(s.test), sink);
    const Clock::time_point setup_end = Clock::now();
    const SkeletonResult skeleton =
        learn_skeleton(data.num_vars(), prototype, options, engine);
    const Clock::time_point skeleton_end = Clock::now();
    OrientationStats orientation;
    const Pdag cpdag =
        orient_skeleton(skeleton.graph, skeleton.sepsets, &orientation);
    (void)cpdag;
    const Clock::time_point end = Clock::now();

    traced.sample.setup_s = seconds_between(start, setup_end);
    traced.sample.learn_s = seconds_between(start, end);
    traced.sample.digest = result_digest(skeleton);
    traced.sample.ci_tests = skeleton.total_ci_tests;

    // Spans: learn > setup, skeleton > (prepare, worklist, run, commit).
    const int root = spans.add("learn", start, end, -1);
    const int setup = spans.add("setup", start, setup_end, root);
    if (ranks) spans.add("setup.segment", start, s.segment_end, setup);
    spans.add("setup.ci_test", s.segment_end, setup_end, setup);
    const int skel = spans.add("skeleton", setup_end, skeleton_end, root);
    spans.add("engine.prepare", engine.prepare_start(), engine.prepare_end(),
              skel);

    const std::vector<perfbench::DepthSeams>& depths = engine.depths();
    const std::vector<Clock::time_point>& asks = engine.worklist_starts();
    const std::vector<ProcessDepthStats>* ipc =
        process_engine_depth_stats(*s.engine);
    double run_s = 0.0;
    double seam_worklist_s = 0.0;
    double seam_commit_s = 0.0;
    double depth_seconds = 0.0;
    double commit_s = 0.0;
    for (int k = 0; k < kNamedDepths; ++k) {
      layer["engine." + depth_key(k) + ".run_s"] = 0.0;
      layer["pc." + depth_key(k) + ".tests"] = 0.0;
      layer["pc." + depth_key(k) + ".rho"] = 0.0;
    }
    layer["engine.d4plus.run_s"] = 0.0;
    double gather_s = 0.0;
    double max_rank_s = 0.0;
    double broadcast_s = 0.0;
    double recoveries = 0.0;
    for (std::size_t i = 0; i < depths.size(); ++i) {
      const perfbench::DepthSeams& seams = depths[i];
      const double run = seconds_between(seams.run_start, seams.run_end);
      run_s += run;
      layer["engine." + depth_key(seams.depth) + ".run_s"] += run;
      if (i < asks.size()) {
        seam_worklist_s += seconds_between(asks[i], seams.run_start);
        spans.add("pc.worklist", asks[i], seams.run_start, skel, seams.depth);
      }
      const int run_span = spans.add("engine.run_depth", seams.run_start,
                                     seams.run_end, skel, seams.depth);
      const Clock::time_point commit_end =
          i + 1 < asks.size() ? asks[i + 1] : skeleton_end;
      seam_commit_s += seconds_between(seams.run_end, commit_end);
      spans.add("pc.commit", seams.run_end, commit_end, skel, seams.depth);
      if (i < skeleton.depth_stats.size()) {
        const DepthStats& stats = skeleton.depth_stats[i];
        depth_seconds += stats.seconds;
        commit_s += stats.seconds - run;
        if (stats.depth < kNamedDepths) {
          layer["pc." + depth_key(stats.depth) + ".tests"] =
              static_cast<double>(stats.ci_tests);
          layer["pc." + depth_key(stats.depth) + ".rho"] =
              stats.deletion_ratio();
        }
      }
      if (ipc != nullptr && i < ipc->size()) {
        const ProcessDepthStats& p = (*ipc)[i];
        const double broadcast = p.seconds - p.gather_seconds;
        gather_s += p.gather_seconds;
        max_rank_s += p.max_rank_seconds;
        broadcast_s += broadcast;
        recoveries += p.recoveries;
        spans.add_offset("ipc.broadcast", run_span, 0.0, broadcast, run_span,
                         seams.depth);
        spans.add_offset("ipc.gather", run_span, broadcast, p.gather_seconds,
                         run_span, seams.depth);
      }
    }
    // A last work list that held no tests ends the depth loop.
    if (asks.size() > depths.size()) {
      seam_worklist_s += seconds_between(asks.back(), skeleton_end);
      spans.add("pc.worklist", asks.back(), skeleton_end, skel,
                static_cast<int>(depths.size()));
    }
    spans.add("pc.orient", skeleton_end, end, root);
    traced.spans = spans.take();
    traced.layer_sum_rel_err =
        std::abs(seam_worklist_s + run_s + seam_commit_s - skeleton.seconds) /
        std::max(skeleton.seconds, 1e-12);

    const perfbench::CiCounters ci = sink->merged();
    const double threads =
        ranks ? static_cast<double>(kRanks * kRankThreads) : kThreads;
    const double orient_s = seconds_between(skeleton_end, end);
    const double worklist_s = skeleton.seconds - depth_seconds;
    layer["stats.tests"] = static_cast<double>(ci.tests);
    layer["stats.calls_single"] = static_cast<double>(ci.calls_single);
    layer["stats.calls_batch"] = static_cast<double>(ci.calls_batch);
    layer["stats.busy_s"] = ci.busy_s;
    layer["stats.ns_per_test"] =
        ratio(ci.busy_s * 1e9, static_cast<double>(ci.tests));
    layer["stats.accept_frac"] =
        ratio(static_cast<double>(ci.accepted), static_cast<double>(ci.tests));
    layer["stats.oversized"] = static_cast<double>(ci.oversized);
    layer["stats.degenerate"] = static_cast<double>(ci.degenerate);
    layer["stats.bytes_computed"] = ci.bytes_computed;
    layer["engine.prepare_s"] =
        seconds_between(engine.prepare_start(), engine.prepare_end());
    layer["engine.run_s"] = run_s;
    layer["engine.busy_frac"] = ratio(ci.busy_s, threads * run_s);
    layer["pc.worklist_s"] = worklist_s;
    layer["pc.commit_s"] = commit_s;
    layer["pc.orient_s"] = orient_s;
    layer["pc.serial_frac"] = ratio(worklist_s + commit_s + orient_s,
                                    traced.sample.learn_s);
    layer["pc.ci_tests"] = static_cast<double>(skeleton.total_ci_tests);
    layer["pc.edges"] = static_cast<double>(skeleton.graph.num_edges());
    layer["pc.max_depth"] = skeleton.max_depth_reached;
    layer["ipc.segment_s"] =
        ranks ? seconds_between(start, s.segment_end) : 0.0;
    layer["ipc.gather_s"] = gather_s;
    layer["ipc.max_rank_s"] = max_rank_s;
    layer["ipc.barrier_s"] = gather_s - max_rank_s;
    layer["ipc.broadcast_s"] = broadcast_s;
    layer["ipc.recoveries"] = recoveries;
    traced.samples = ci.samples;
  }
  traced.sample.peak_rss_mb = peak_rss_mb(base_kb, ranks);
  return traced;
}

/// stats.count_frac: replays the sampled tests group by group, once
/// through the statistic's batch entry and once through the counting
/// kernel alone, and returns kernel time / CI time (medians of 3).
double counting_share(const Dataset& data, const CiTestRequest& request,
                      const std::string& kernel,
                      const std::vector<perfbench::SampledTest>& samples) {
  if (!data.is_discrete() || samples.empty()) return 0.0;
  struct Group {
    VarId x = 0;
    VarId y = 0;
    std::int32_t depth = 0;
    std::vector<VarId> flat;
  };
  std::map<std::tuple<VarId, VarId, std::size_t>, Group> by_key;
  for (const perfbench::SampledTest& t : samples) {
    Group& group = by_key[{t.x, t.y, t.z.size()}];
    group.x = t.x;
    group.y = t.y;
    group.depth = static_cast<std::int32_t>(t.z.size());
    group.flat.insert(group.flat.end(), t.z.begin(), t.z.end());
  }
  const DiscreteDataset& discrete = data.discrete();
  const std::unique_ptr<CiTest> test = make_ci_test(data, request);
  const std::unique_ptr<TableBuilder> builder = make_table_builder(kernel);
  ScratchArena arena;
  std::vector<CiResult> results;
  std::vector<TableJob> jobs;
  std::vector<std::size_t> sizes;
  std::vector<Count> cells;
  std::vector<double> ci_times;
  std::vector<double> count_times;
  for (int repeat = 0; repeat < 3; ++repeat) {
    Clock::time_point start = Clock::now();
    for (const auto& [key, group] : by_key) {
      const std::size_t count =
          group.depth == 0 ? 1 : group.flat.size() / group.depth;
      results.assign(count, CiResult{});
      test->begin_group(group.x, group.y);
      test->test_batch_in_group(group.flat, group.depth, results);
    }
    ci_times.push_back(seconds_between(start, Clock::now()));

    start = Clock::now();
    TableBuildContext context;
    VarId context_x = kInvalidVar;
    VarId context_y = kInvalidVar;
    for (const auto& [key, group] : by_key) {
      if (group.x != context_x || group.y != context_y) {
        context = make_table_context(discrete, group.x, group.y, false, arena,
                                     builder->wants_packed_xy());
        context_x = group.x;
        context_y = group.y;
      }
      const auto d = static_cast<std::size_t>(group.depth);
      const std::size_t count = d == 0 ? 1 : group.flat.size() / d;
      const auto xy_cells = static_cast<std::size_t>(context.cx) *
                            static_cast<std::size_t>(context.cy);
      jobs.clear();
      sizes.clear();
      std::size_t total = 0;
      for (std::size_t i = 0; i < count; ++i) {
        const std::span<const VarId> z(group.flat.data() + i * d, d);
        std::size_t cz = 1;
        for (const VarId v : z) {
          cz *= static_cast<std::size_t>(discrete.cardinality(v));
        }
        if (xy_cells * cz > request.max_cells) continue;
        jobs.push_back(TableJob{z, cz, {}});
        sizes.push_back(xy_cells * cz);
        total += xy_cells * cz;
      }
      cells.resize(total);
      std::size_t offset = 0;
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        jobs[j].cells = std::span<Count>(cells.data() + offset, sizes[j]);
        offset += sizes[j];
      }
      builder->build_batch(context, jobs);
    }
    count_times.push_back(seconds_between(start, Clock::now()));
  }
  return ratio(median(count_times), median(ci_times));
}

// ------------------------------------------------------------- context

std::string context_json(const Dataset& data, const PcOptions& options,
                         std::uint64_t seed, const std::string& kernel,
                         const std::string& commit, double inputs_s) {
  const bool ranks = uses_ranks(options);
  set_bench_pinning_policy(options.numa_policy);
  set_bench_rank_context(ranks ? kRanks : 0,
                         ranks ? resolve_transport_name(
                                     options.ipc_transport)
                               : "none");
  std::string affinity = "[";
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    bool first = true;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &mask)) continue;
      affinity += (first ? "" : ", ") + std::to_string(cpu);
      first = false;
    }
  }
  affinity += "]";
  const auto nproc = static_cast<long>(sysconf(_SC_NPROCESSORS_ONLN));
  std::string out = "{";
  out += "\"seed\": " + std::to_string(seed);
  out += ", \"input_digest\": " + json_string(hex(input_digest(data)));
  out += ", \"input_kind\": " +
         json_string(data.is_discrete() ? "discrete" : "continuous");
  out += ", \"input_vars\": " + std::to_string(data.num_vars());
  out += ", \"input_samples\": " + std::to_string(data.num_samples());
  out += ", \"inputs_s\": " + json_number(inputs_s);
  out += ", \"engine\": " +
         json_string(to_string(options.engine));
  out += ", \"threads\": " + std::to_string(options.num_threads);
  out += ", \"rank_threads\": " + std::to_string(ranks ? kRankThreads : 0);
  out += ", \"simd_tier\": " +
         json_string(std::string(to_string(active_simd_tier())));
  out += ", \"kernel\": " + json_string(kernel);
  out += ", \"statistic\": " +
         json_string(resolve_ci_test_name(options.ci_test,
                                          data));
  out += ", \"nproc\": " + std::to_string(nproc);
  out += ", \"affinity_cpus\": " + affinity;
  out += ", \"git_commit\": " + json_string(commit);
  out += ", \"machine\": " + bench_context_json();
  return out + "}";
}

// ---------------------------------------------------------------- main

/// Unit of a per-layer metric, from its name.
std::string layer_unit(const std::string& name) {
  if (name.size() > 2 && name.compare(name.size() - 2, 2, "_s") == 0) {
    return "s";
  }
  if (name == "stats.ns_per_test") return "ns";
  if (name == "stats.bytes_computed") return "B";
  if (name.find("frac") != std::string::npos ||
      name.find(".rho") != std::string::npos) {
    return "ratio";
  }
  if (name == "pc.max_depth") return "depth";
  return "count";
}

int run(int argc, char** argv) {
  ArgParser args("perfbench",
                 "fastbns repository benchmark: end-to-end learn time per "
                 "workload, plus a traced run that splits it by layer");
  args.add_flag("workload", "munin1-g2 | wide-g2 | sem-fisherz | munin1-ranks",
                "munin1-g2");
  args.add_flag("seed", "input seed", "1");
  args.add_flag("seconds", "measurement time of the timed learn loop", "10");
  args.add_flag("trace", "1 = add traced learns and print per-layer metrics",
                "0");
  args.add_bool_flag("smoke", "tiny inputs, for the self-check");
  args.add_flag("report", "write the full JSON report here", "");
  args.add_flag("commit", "source revision recorded in the context", "unknown");
  if (!args.parse(argc, argv)) return 2;

  const std::string name = args.get("workload");
  if (std::find(workload_names().begin(), workload_names().end(), name) ==
      workload_names().end()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", name.c_str());
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const double seconds = args.get_double("seconds");
  const bool trace = args.get_int("trace") != 0;
  const bool smoke = args.get_bool("smoke");

  const Clock::time_point inputs_start = Clock::now();
  const Dataset data = make_inputs(name, seed, smoke);
  const PcOptions options = workload_options(name);
  const double inputs_s = seconds_between(inputs_start, Clock::now());

  // The reference digest is learned once. With --trace 1, further
  // fastbns-seq learns are interleaved with the timed loop, so
  // engine.seq_s and learn_s are medians over the same stretch of time.
  const LearnSample reference = learn_once(data, reference_options());
  std::vector<double> seq_s = {reference.learn_s};

  int attempted = 0;
  int failed = 0;
  const auto check = [&](const LearnSample& sample) {
    ++attempted;
    if (sample.digest != reference.digest) ++failed;
  };

  // The first learn of a process pays one-time costs (thread team start,
  // first touch of the allocator's pages); it is checked, not timed.
  const LearnSample warmup = learn_once(data, options);
  check(warmup);

  std::vector<LearnSample> learns;
  std::vector<double> setup_blocks;
  int tries = 0;
  const Clock::time_point loop_start = Clock::now();
  while (tries < kMaxLearns &&
         (tries < kMinLearns ||
          seconds_between(loop_start, Clock::now()) < seconds)) {
    if (trace && tries > 0 && tries % kLearnsPerSeq == 0 &&
        static_cast<int>(seq_s.size()) <= tries / kLearnsPerSeq) {
      seq_s.push_back(learn_once(data, reference_options()).learn_s);
      continue;
    }
    ++tries;
    try {
      learns.push_back(learn_once(data, options));
      check(learns.back());
      if (learns.front().setup_s < kSetupBlockSeconds) {
        setup_blocks.push_back(setup_block(data, options));
      }
    } catch (const std::exception& error) {
      std::fprintf(stderr, "perfbench: learn failed: %s\n", error.what());
      ++attempted;
      ++failed;
    }
  }
  if (learns.empty()) {
    std::fprintf(stderr, "perfbench: every learn failed\n");
    return 1;
  }
  std::vector<double> learn_s;
  std::vector<double> setup_s;
  std::vector<double> rss_mb;
  for (const LearnSample& sample : learns) {
    learn_s.push_back(sample.learn_s);
    setup_s.push_back(sample.setup_s);
    rss_mb.push_back(sample.peak_rss_mb);
  }
  if (!setup_blocks.empty()) setup_s = setup_blocks;
  const double learn_median = median(learn_s);

  Metrics end_to_end;
  end_to_end.push_back({"learn_s", learn_median, "s"});
  end_to_end.push_back({"setup_s", median(setup_s), "s"});
  end_to_end.push_back({"peak_rss_mb", median(rss_mb), "MB"});

  std::string kernel;
  CiTestRequest request;
  {
    const SetUp probe = set_up(data, options);
    kernel = probe.test->table_builder_name();
    request = ci_request(options, *probe.engine);
  }

  // Traced learns: per-layer metrics and the wrapper checks.
  Metrics per_layer;
  bool trace_ok = true;
  std::string checks = "{}";
  std::string spans_json = "[]";
  std::vector<double> traced_learn_s;
  if (trace) {
    const std::int64_t ci_tests = learns.front().ci_tests;
    const std::uint64_t modulus =
        data.is_discrete()
            ? static_cast<std::uint64_t>(
                  std::max<std::int64_t>(1, ci_tests / kReplayTests))
            : 0;
    std::vector<TracedLearn> traced;
    for (int i = 0; i < kTracedLearns; ++i) {
      traced.push_back(
          traced_learn(data, options, modulus));
      check(traced.back().sample);
      traced_learn_s.push_back(traced.back().sample.learn_s);
    }
    bool digests_match = true;
    bool tests_match = true;
    double max_sum_err = 0.0;
    std::map<std::string, std::vector<double>> values;
    for (const TracedLearn& t : traced) {
      digests_match = digests_match && t.sample.digest == learns.front().digest;
      tests_match = tests_match && t.sample.ci_tests == ci_tests;
      max_sum_err = std::max(max_sum_err, t.layer_sum_rel_err);
      for (const auto& [key, value] : t.layer) values[key].push_back(value);
    }
    std::map<std::string, double> layer;
    for (const auto& [key, list] : values) layer[key] = median(list);

    layer["stats.count_frac"] = counting_share(data, request, kernel,
                                               traced.front().samples);
    layer["stats.covariance_s"] = 0.0;
    if (data.is_continuous()) {
      std::vector<double> builds;
      const std::unique_ptr<CovarianceBuilder> builder =
          make_covariance_builder(request.covariance_builder);
      for (int i = 0; i < 3; ++i) {
        const Clock::time_point start = Clock::now();
        const CorrelationMatrix matrix =
            builder->build(data.continuous());
        builds.push_back(seconds_between(start, Clock::now()));
        if (matrix.num_vars != data.num_vars()) trace_ok = false;
      }
      layer["stats.covariance_s"] = median(builds);
    }
    layer["engine.seq_s"] = median(seq_s);
    layer["trace.overhead_frac"] =
        median(traced_learn_s) / learn_median - 1.0;
    trace_ok = trace_ok && digests_match && tests_match;

    for (const auto& [key, value] : layer) {
      per_layer.push_back({key, value, layer_unit(key)});
    }
    checks = "{\"traced_digest_matches\": " +
             std::string(digests_match ? "true" : "false") +
             ", \"traced_ci_tests_match\": " +
             std::string(tests_match ? "true" : "false") +
             ", \"layer_sum_rel_err\": " + json_number(max_sum_err) + "}";
    spans_json = "[";
    const std::vector<Span>& spans = traced.front().spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (i > 0) spans_json += ",\n    ";
      spans_json += "{\"name\": " + json_string(spans[i].name) +
                    ", \"start\": " + json_number(spans[i].start) +
                    ", \"end\": " + json_number(spans[i].end) +
                    ", \"parent\": " + std::to_string(spans[i].parent) +
                    ", \"depth\": " + std::to_string(spans[i].depth) + "}";
    }
    spans_json += "]";
  }

  const bool correct = failed == 0 && trace_ok;
  const std::string report_path = args.get("report");
  if (!report_path.empty()) {
    Metrics all = end_to_end;
    all.insert(all.end(), per_layer.begin(), per_layer.end());
    std::string report = "{\n  \"workload\": " + json_string(name);
    report += ",\n  \"seed\": " + std::to_string(seed);
    report += ",\n  \"trace\": " + std::to_string(trace ? 1 : 0);
    report += ",\n  \"smoke\": " + std::string(smoke ? "true" : "false");
    report += ",\n  \"seconds\": " + json_number(seconds);
    report += ",\n  \"correct\": " + std::string(correct ? "true" : "false");
    report += ",\n  \"attempted\": " + std::to_string(attempted);
    report += ",\n  \"failed\": " + std::to_string(failed);
    report += ",\n  \"error_rate\": " +
              json_number(static_cast<double>(failed) / attempted);
    report += ",\n  \"reference_digest\": " + json_string(hex(reference.digest));
    report += ",\n  \"ci_tests\": " + std::to_string(reference.ci_tests);
    report += ",\n  \"context\": " +
              context_json(data, options, seed, kernel, args.get("commit"),
                           inputs_s);
    report += ",\n  \"metrics\": " + json_metrics(all);
    report += ",\n  \"samples\": {\"warmup_learn_s\": " +
              json_number(warmup.learn_s) +
              ", \"learn_s\": " + json_list(learn_s) +
              ", \"setup_s\": " + json_list(setup_s) +
              ", \"peak_rss_mb\": " + json_list(rss_mb) +
              ", \"seq_s\": " + json_list(seq_s) +
              ", \"traced_learn_s\": " + json_list(traced_learn_s) + "}";
    report += ",\n  \"checks\": " + checks;
    report += ",\n  \"spans\": " + spans_json;
    report += "\n}\n";
    std::ofstream(report_path) << report;
  }

  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              json_metrics(trace ? per_layer : end_to_end).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
