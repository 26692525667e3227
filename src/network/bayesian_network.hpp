// Bayesian network: a DAG over discrete variables plus one CPT per node.
//
// The ground-truth object of every experiment: benchmark networks are
// instances of this class, datasets are drawn from it by the forward
// sampler, and learned CPDAGs are scored against cpdag_of_dag(its DAG).
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "graph/dag.hpp"
#include "network/cpt.hpp"
#include "network/variable.hpp"

namespace fastbns {

class BayesianNetwork {
 public:
  BayesianNetwork() : dag_(0) {}
  /// Structure-only constructor; CPTs must be attached before sampling.
  BayesianNetwork(std::vector<Variable> variables, Dag dag);

  [[nodiscard]] VarId num_nodes() const noexcept { return dag_.num_nodes(); }
  [[nodiscard]] std::int64_t num_edges() const noexcept {
    return dag_.num_edges();
  }

  [[nodiscard]] const Dag& dag() const noexcept { return dag_; }
  [[nodiscard]] const Variable& variable(VarId v) const noexcept {
    return variables_[v];
  }
  [[nodiscard]] const std::vector<Variable>& variables() const noexcept {
    return variables_;
  }
  [[nodiscard]] std::vector<std::string> variable_names() const;
  [[nodiscard]] std::vector<std::int32_t> cardinalities() const;

  [[nodiscard]] const Cpt& cpt(VarId v) const noexcept { return cpts_[v]; }
  [[nodiscard]] Cpt& mutable_cpt(VarId v) noexcept { return cpts_[v]; }

  /// Builds CPT shells consistent with the DAG (uniform rows).
  void init_uniform_cpts();

  /// Draws every CPT row from Dirichlet(alpha).
  void randomize_cpts(Rng& rng, double alpha = 1.0);

  /// Structural sanity: acyclic DAG, CPT shapes match, rows normalized.
  [[nodiscard]] bool valid() const;

  /// Index lookup by variable name; kInvalidVar when absent.
  [[nodiscard]] VarId index_of(const std::string& name) const;

 private:
  std::vector<Variable> variables_;
  Dag dag_;
  std::vector<Cpt> cpts_;
};

}  // namespace fastbns
