// Exact optimal probing by exponential dynamic programming — the yardstick
// against which the polynomial strategies are validated on small instances
// (computing it in general is NP-hard, Thms. IV.9/IV.10/IV.15).

#ifndef CONSENTDB_STRATEGY_OPTIMAL_H_
#define CONSENTDB_STRATEGY_OPTIMAL_H_

#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "consentdb/strategy/strategies.h"

namespace consentdb::strategy {

// The optimisation target: the paper's expected number of probes, or the
// worst-case number of probes (the Sec. VII "other optimization metrics"
// variant, which ignores the probabilities).
enum class Objective {
  kExpectedCost,
  kWorstCase,
};

// Memoised DP over residual formula systems. The value of a state is
//   0                                       if all formulas are decided,
//   min_x 1 + pi(x)*V(state|x=T) + (1-pi(x))*V(state|x=F)   otherwise
// (or min_x 1 + max(V(T), V(F)) under Objective::kWorstCase), minimised
// over the useful variables x. States are canonicalised by the simplified
// formulas (decided formulas dropped, order-insensitive).
class OptimalDp {
 public:
  explicit OptimalDp(std::vector<double> pi,
                     Objective objective = Objective::kExpectedCost);

  struct Decision {
    double cost = 0.0;
    VarId best = provenance::kInvalidVar;  // invalid when all decided
  };

  // Expected optimal cost and best first probe for the residual system.
  // CHECK-fails if the system has more than `max_vars` distinct variables.
  Decision Solve(const std::vector<Dnf>& residual);

  size_t max_vars() const { return max_vars_; }
  void set_max_vars(size_t n) { max_vars_ = n; }

  // Variables that can no longer be probed (their peers were lost): the DP
  // never chooses them, and a state whose only variables are excluded
  // costs nothing more. Replacing the set clears the memo, whose values
  // assumed the old one.
  void set_excluded(std::set<VarId> excluded);

 private:
  Decision SolveImpl(const std::vector<Dnf>& residual);

  std::vector<double> pi_;
  Objective objective_;
  size_t max_vars_ = 20;
  std::set<VarId> excluded_;
  std::unordered_map<std::string, Decision> memo_;
};

// One-shot helper: optimal expected cost for deciding every formula.
double OptimalExpectedCost(const std::vector<Dnf>& dnfs,
                           const std::vector<double>& pi,
                           size_t max_vars = 20);

// One-shot helper: the best achievable worst-case number of probes (the
// minimum over strategies of the maximum over valuations).
double OptimalWorstCaseProbes(const std::vector<Dnf>& dnfs,
                              size_t max_vars = 20);

// Worst-case probes of a concrete strategy, by exhausting all valuations of
// the occurring variables (<= 20 checked). Deterministic strategies only.
size_t WorstCaseProbes(const std::vector<Dnf>& dnfs,
                       const std::vector<double>& pi,
                       const StrategyFactory& factory,
                       bool attach_cnfs = false);

// The optimal DP packaged as a ProbeStrategy (exponential — small formulas
// only). Maintains its own residual copy of the system, and plans around
// the variables the state reports unreachable.
class OptimalStrategy : public ProbeStrategy {
 public:
  OptimalStrategy(std::vector<Dnf> dnfs, std::vector<double> pi,
                  size_t max_vars = 20);

  std::string name() const override { return "Optimal"; }
  VarId ChooseNext(EvaluationState& state) override;
  void OnAnswer(const EvaluationState& state, VarId x, bool value) override;

 private:
  std::vector<Dnf> residual_;
  PartialValuation val_;
  OptimalDp dp_;
  size_t num_excluded_ = 0;  // unreachable variables dp_ already excludes
};

}  // namespace consentdb::strategy

#endif  // CONSENTDB_STRATEGY_OPTIMAL_H_
