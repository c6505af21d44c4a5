#include "consentdb/strategy/optimal.h"

#include "consentdb/strategy/runner.h"

#include <algorithm>
#include <set>

#include "consentdb/util/check.h"

namespace consentdb::strategy {

namespace {

// Canonical key: decided formulas dropped, formula order normalised.
std::string StateKey(const std::vector<Dnf>& residual) {
  std::vector<std::string> parts;
  parts.reserve(residual.size());
  for (const Dnf& dnf : residual) {
    if (dnf.IsConstantFalse() || dnf.IsConstantTrue()) continue;
    std::string s;
    for (const VarSet& term : dnf.terms()) {
      for (VarId v : term) {
        s += std::to_string(v);
        s += ',';
      }
      s += ';';
    }
    parts.push_back(std::move(s));
  }
  std::sort(parts.begin(), parts.end());
  std::string key;
  for (std::string& p : parts) {
    key += p;
    key += '|';
  }
  return key;
}

std::vector<VarId> UsefulVarsOf(const std::vector<Dnf>& residual) {
  std::set<VarId> vars;
  for (const Dnf& dnf : residual) {
    if (dnf.IsConstantFalse() || dnf.IsConstantTrue()) continue;
    for (const VarSet& term : dnf.terms()) {
      vars.insert(term.begin(), term.end());
    }
  }
  return {vars.begin(), vars.end()};
}

std::vector<Dnf> SimplifyAll(const std::vector<Dnf>& residual, VarId x,
                             bool value) {
  PartialValuation val;
  val.Set(x, value);
  std::vector<Dnf> out;
  out.reserve(residual.size());
  for (const Dnf& dnf : residual) {
    out.push_back(dnf.Simplify(val));
  }
  return out;
}

}  // namespace

OptimalDp::OptimalDp(std::vector<double> pi, Objective objective)
    : pi_(std::move(pi)), objective_(objective) {}

OptimalDp::Decision OptimalDp::Solve(const std::vector<Dnf>& residual) {
  std::vector<VarId> vars = UsefulVarsOf(residual);
  CONSENTDB_CHECK(vars.size() <= max_vars_,
                  "OptimalDp is exponential: " + std::to_string(vars.size()) +
                      " variables exceed the limit of " +
                      std::to_string(max_vars_));
  return SolveImpl(residual);
}

void OptimalDp::set_excluded(std::set<VarId> excluded) {
  excluded_ = std::move(excluded);
  memo_.clear();
}

OptimalDp::Decision OptimalDp::SolveImpl(const std::vector<Dnf>& residual) {
  std::vector<VarId> vars = UsefulVarsOf(residual);
  std::erase_if(vars, [this](VarId x) { return excluded_.contains(x); });
  if (vars.empty()) return Decision{};  // nothing left that can be probed
  std::string key = StateKey(residual);
  auto it = memo_.find(key);
  if (it != memo_.end()) return it->second;

  Decision best;
  best.cost = -1.0;
  for (VarId x : vars) {
    CONSENTDB_CHECK(x < pi_.size(), "variable without probability");
    double p = pi_[x];
    Decision when_true = SolveImpl(SimplifyAll(residual, x, true));
    Decision when_false = SolveImpl(SimplifyAll(residual, x, false));
    double cost =
        objective_ == Objective::kExpectedCost
            ? 1.0 + p * when_true.cost + (1.0 - p) * when_false.cost
            : 1.0 + std::max(when_true.cost, when_false.cost);
    if (best.cost < 0.0 || cost < best.cost) {
      best.cost = cost;
      best.best = x;
    }
  }
  memo_.emplace(std::move(key), best);
  return best;
}

double OptimalExpectedCost(const std::vector<Dnf>& dnfs,
                           const std::vector<double>& pi, size_t max_vars) {
  OptimalDp dp(pi);
  dp.set_max_vars(max_vars);
  return dp.Solve(dnfs).cost;
}

double OptimalWorstCaseProbes(const std::vector<Dnf>& dnfs, size_t max_vars) {
  // Probabilities are irrelevant to the worst case; supply a dummy map
  // covering every variable.
  VarId max_var = 0;
  for (const Dnf& dnf : dnfs) {
    for (const VarSet& term : dnf.terms()) {
      for (VarId v : term) max_var = std::max(max_var, v);
    }
  }
  OptimalDp dp(std::vector<double>(max_var + 1, 0.5), Objective::kWorstCase);
  dp.set_max_vars(max_vars);
  return dp.Solve(dnfs).cost;
}

size_t WorstCaseProbes(const std::vector<Dnf>& dnfs,
                       const std::vector<double>& pi,
                       const StrategyFactory& factory, bool attach_cnfs) {
  std::vector<VarId> vars = UsefulVarsOf(dnfs);
  CONSENTDB_CHECK(vars.size() <= 20, "WorstCaseProbes limited to 20 vars");
  size_t worst = 0;
  size_t combos = static_cast<size_t>(1) << vars.size();
  for (size_t mask = 0; mask < combos; ++mask) {
    PartialValuation hidden(pi.size());
    for (size_t i = 0; i < vars.size(); ++i) {
      hidden.Set(vars[i], ((mask >> i) & 1) != 0);
    }
    EvaluationState state(dnfs, pi);
    if (attach_cnfs) {
      Status st = state.AttachCnfs();
      CONSENTDB_CHECK(st.ok(), st.ToString());
    }
    std::unique_ptr<ProbeStrategy> strategy = factory();
    ProbeRun run = RunToCompletion(state, *strategy, hidden);
    worst = std::max(worst, run.num_probes);
  }
  return worst;
}

OptimalStrategy::OptimalStrategy(std::vector<Dnf> dnfs,
                                 std::vector<double> pi, size_t max_vars)
    : residual_(std::move(dnfs)), dp_(std::move(pi)) {
  dp_.set_max_vars(max_vars);
}

VarId OptimalStrategy::ChooseNext(EvaluationState& state) {
  // The DP runs on our own residual copy; the state only tells it which
  // variables were lost since the last choice.
  if (state.num_unreachable() > num_excluded_) {
    std::set<VarId> lost;
    for (VarId x : state.AllVars()) {
      if (state.IsUnreachable(x)) lost.insert(x);
    }
    num_excluded_ = lost.size();
    dp_.set_excluded(std::move(lost));
  }
  OptimalDp::Decision d = dp_.Solve(residual_);
  CONSENTDB_CHECK(d.best != provenance::kInvalidVar,
                  "OptimalStrategy asked to choose with nothing undecided");
  return d.best;
}

void OptimalStrategy::OnAnswer(const EvaluationState& state, VarId x, bool value) {
  (void)state;
  val_.Set(x, value);
  PartialValuation just_x;
  just_x.Set(x, value);
  for (Dnf& dnf : residual_) dnf = dnf.Simplify(just_x);
}

}  // namespace consentdb::strategy
