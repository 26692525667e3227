// Medical-monitoring scenario (the domain ALARM was built for): learn the
// monitor's dependency structure from patient records, then read clinical
// relationships out of the learned graph — the Markov blanket of a vital
// sign, its direct causes/effects, and how sample size affects what the
// monitor can discover.
#include <algorithm>
#include <cstdio>

#include "common/args.hpp"
#include "common/rng.hpp"
#include "engine/engine_registry.hpp"
#include "graph/graph_metrics.hpp"
#include "network/forward_sampler.hpp"
#include "network/standard_networks.hpp"
#include "pc/pc_stable.hpp"

namespace {

using namespace fastbns;

/// Markov blanket of v in a CPDAG, approximated as parents + children +
/// undirected neighbors + co-parents of children.
std::vector<VarId> markov_blanket(const Pdag& cpdag, VarId v) {
  std::vector<VarId> blanket = cpdag.adjacent_nodes(v);
  for (const VarId child : cpdag.children(v)) {
    for (const VarId co_parent : cpdag.parents(child)) {
      if (co_parent != v) blanket.push_back(co_parent);
    }
  }
  std::sort(blanket.begin(), blanket.end());
  blanket.erase(std::unique(blanket.begin(), blanket.end()), blanket.end());
  return blanket;
}

void describe_variable(const BayesianNetwork& alarm, const Pdag& cpdag,
                       const char* name) {
  const VarId v = alarm.index_of(name);
  const auto names = alarm.variable_names();
  std::printf("\n%s:\n", name);
  std::printf("  direct causes (learned):   ");
  for (const VarId p : cpdag.parents(v)) std::printf("%s ", names[p].c_str());
  std::printf("\n  direct effects (learned):  ");
  for (const VarId c : cpdag.children(v)) std::printf("%s ", names[c].c_str());
  std::printf("\n  undecided neighbours:      ");
  for (const VarId u : cpdag.undirected_neighbors(v)) {
    std::printf("%s ", names[u].c_str());
  }
  std::printf("\n  Markov blanket:            ");
  for (const VarId b : markov_blanket(cpdag, v)) {
    std::printf("%s ", names[b].c_str());
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("medical_diagnosis",
                 "interpret the structure learned from patient-monitor data");
  args.add_flag("samples", "number of patient records", "8000");
  args.add_flag("threads", "worker threads (0 = all)", "0");
  args.add_flag("engine", "skeleton engine name or alias",
                "fastbns-par(ci-level)");
  if (!args.parse(argc, argv)) return 1;

  const BayesianNetwork alarm = alarm_network();
  Rng rng(7);
  const DiscreteDataset records =
      forward_sample(alarm, args.get_int("samples"), rng);

  PcOptions options;
  try {
    options.engine = engine_from_string(args.get("engine"));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "medical_diagnosis: %s\n", error.what());
    return 1;
  }
  options.num_threads = args.get_int32("threads");
  const PcStableResult result = learn_structure(records, options);
  std::printf("learned the monitor network from %lld records in %.3f s\n",
              static_cast<long long>(records.num_samples()),
              result.total_seconds);

  // Clinical reading of three central variables.
  describe_variable(alarm, result.cpdag, "CATECHOL");  // catecholamine level
  describe_variable(alarm, result.cpdag, "BP");        // blood pressure
  describe_variable(alarm, result.cpdag, "SAO2");      // oxygen saturation

  // How trustworthy is the learned blanket? Compare against the truth.
  const Pdag truth = cpdag_of_dag(alarm.dag());
  for (const char* name : {"CATECHOL", "BP", "SAO2"}) {
    const VarId v = alarm.index_of(name);
    const auto learned = markov_blanket(result.cpdag, v);
    const auto expected = markov_blanket(truth, v);
    std::vector<VarId> intersection;
    std::set_intersection(learned.begin(), learned.end(), expected.begin(),
                          expected.end(), std::back_inserter(intersection));
    std::printf(
        "%s Markov blanket: %zu/%zu true members recovered (%zu learned)\n",
        name, intersection.size(), expected.size(), learned.size());
  }

  std::printf(
      "\nNote: with more records the learned blanket converges to the true\n"
      "one; rerun with --samples 15000 to see the difference.\n");
  return 0;
}
