// Differential suite for CNF attachment on the bit matrix.
//
// EvaluationState::TryAttachResidualCnfs builds each undecided formula's
// CNF straight from its live residual term masks and writes the kernel's
// dual rows into the clause columns, with no Dnf/Cnf/VarSet round trip.
// This suite pins it to the VarSet path it replaced. For randomized formula
// systems — at a fresh state and after random answers, with unreachable
// variables, absorption on and off, and duplicate or non-minimal residual
// terms — every undecided formula's attached clauses must equal DnfToCnf of
// its residual DNF (Dnf::Simplify under the state's valuation), and the
// attachment must succeed exactly when that reference path fits the budget,
// at budgets on either side of the CNF sizes. A failed attachment must
// leave no clause behind and allow a later retry.
//
// Labelled `strategy_diff` (ctest -L strategy_diff).

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "consentdb/strategy/evaluation_state.h"
#include "consentdb/util/rng.h"

namespace consentdb::strategy {
namespace {

using provenance::Cnf;
using provenance::Dnf;
using provenance::NormalFormLimits;
using provenance::VarSet;

NormalFormLimits Budget(size_t max_sets) {
  NormalFormLimits limits;
  limits.max_sets = max_sets;
  return limits;
}

std::vector<VarSet> Sorted(std::vector<VarSet> sets) {
  std::sort(sets.begin(), sets.end());
  return sets;
}

// The attachment path before the bit-matrix rewrite, from public APIs: per
// undecided formula, the minimal residual DNF, the read-once product check
// (a read-once DNF's CNF has exactly prod(|term|) clauses), then DnfToCnf.
bool ReferenceAttachOk(const std::vector<Dnf>& residuals,
                       NormalFormLimits limits) {
  for (const Dnf& residual : residuals) {
    if (residual.IsReadOnce()) {
      size_t product = 1;
      for (const VarSet& term : residual.terms()) {
        product *= term.size();
        if (product > limits.max_sets) return false;
      }
    }
    if (!DnfToCnf(residual, limits).ok()) return false;
  }
  return true;
}

// Residual DNFs of the undecided formulas, in formula order.
std::vector<Dnf> Residuals(const std::vector<Dnf>& dnfs,
                           const EvaluationState& state) {
  std::vector<Dnf> out;
  for (size_t j = 0; j < dnfs.size(); ++j) {
    if (state.formula_value(j) != Truth::kUnknown) continue;
    out.push_back(dnfs[j].Simplify(state.valuation()));
  }
  return out;
}

// Asserts that every undecided formula of an attached state carries exactly
// the clauses of DnfToCnf(residual); clause order within a formula is free.
void ExpectClausesMatch(const std::vector<Dnf>& dnfs,
                        const EvaluationState& state,
                        const std::string& context) {
  ASSERT_TRUE(state.cnfs_attached()) << context;
  for (size_t j = 0; j < dnfs.size(); ++j) {
    if (state.formula_value(j) != Truth::kUnknown) {
      EXPECT_TRUE(state.LiveClauses(j).empty()) << context;
      continue;
    }
    const Dnf residual = dnfs[j].Simplify(state.valuation());
    Result<Cnf> expected = DnfToCnf(residual, NormalFormLimits::Unlimited());
    ASSERT_TRUE(expected.ok()) << context;
    const std::vector<VarSet> attached = Sorted(state.LiveClauses(j));
    EXPECT_EQ(attached.size(), state.live_clauses(j)) << context;
    EXPECT_EQ(attached, expected->clauses())
        << context << ", formula " << j << ": residual "
        << residual.ToString() << ", expected CNF " << expected->ToString();
  }
}

void ExpectNoClauses(const EvaluationState& state, const std::string& context) {
  EXPECT_FALSE(state.cnfs_attached()) << context;
  for (size_t j = 0; j < state.num_formulas(); ++j) {
    EXPECT_EQ(state.live_clauses(j), 0u) << context;
    EXPECT_TRUE(state.LiveClauses(j).empty()) << context;
  }
}

// --- Randomized systems ------------------------------------------------------

struct System {
  std::vector<Dnf> dnfs;
  std::vector<double> pi;
  std::vector<bool> hidden;
  bool absorption = true;
};

// Small systems whose CNFs stay cheap to enumerate. Terms are drawn from a
// few variables so residuals collide; about one formula in four keeps its
// non-minimal terms (Dnf without absorption) and gets a superset copy of
// one term, so minimisation in the attachment is exercised too.
System MakeSystem(Rng& rng) {
  System s;
  const size_t num_vars = 3 + rng.UniformIndex(14);
  s.pi.resize(num_vars);
  for (double& p : s.pi) p = 0.1 + 0.8 * rng.UniformReal();
  const size_t num_formulas = 1 + rng.UniformIndex(5);
  for (size_t j = 0; j < num_formulas; ++j) {
    if (rng.Bernoulli(0.05)) {
      s.dnfs.push_back(rng.Bernoulli(0.5) ? Dnf::ConstantTrue()
                                          : Dnf::ConstantFalse());
      continue;
    }
    const size_t num_terms = 1 + rng.UniformIndex(6);
    std::vector<VarSet> terms;
    for (size_t t = 0; t < num_terms; ++t) {
      const size_t width = 1 + rng.UniformIndex(4);
      std::vector<VarId> vars;
      for (size_t k = 0; k < width; ++k) {
        vars.push_back(static_cast<VarId>(rng.UniformIndex(num_vars)));
      }
      terms.emplace_back(std::move(vars));
    }
    const bool keep_non_minimal = rng.Bernoulli(0.25);
    if (keep_non_minimal) {
      std::vector<VarId> wider = terms[0].vars();
      wider.push_back(static_cast<VarId>(rng.UniformIndex(num_vars)));
      terms.emplace_back(std::move(wider));
    }
    s.dnfs.push_back(Dnf(std::move(terms), /*absorb=*/!keep_non_minimal));
  }
  s.hidden.resize(num_vars);
  for (size_t x = 0; x < num_vars; ++x) s.hidden[x] = rng.Bernoulli(s.pi[x]);
  s.absorption = !rng.Bernoulli(0.4);
  return s;
}

std::string Describe(const System& s) {
  std::ostringstream os;
  os << s.dnfs.size() << " formulas over " << s.pi.size()
     << " vars, absorption " << (s.absorption ? "on" : "off") << ":";
  for (const Dnf& d : s.dnfs) os << " [" << d.ToString() << "]";
  return os.str();
}

// A state for `sys` with some variables lost and `answers` random useful
// variables answered from the hidden valuation.
EvaluationState PlayState(const System& sys, Rng& rng, size_t answers) {
  EvaluationState state(sys.dnfs, sys.pi);
  if (!sys.absorption) state.SetAbsorptionEnabled(false);
  if (rng.Bernoulli(0.3)) {
    const auto x = static_cast<VarId>(rng.UniformIndex(sys.pi.size()));
    state.MarkUnreachable(x);
  }
  for (size_t i = 0; i < answers && !state.AllDecided(); ++i) {
    std::vector<VarId> useful = state.UsefulVars();
    if (useful.empty()) break;
    const VarId x = useful[rng.UniformIndex(useful.size())];
    state.Assign(x, sys.hidden[x]);
  }
  return state;
}

class CnfAttachDiffTest : public ::testing::TestWithParam<int> {};

TEST_P(CnfAttachDiffTest, AttachedClausesMatchDnfToCnf) {
  Rng rng(71000 + GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    const System sys = MakeSystem(rng);
    const size_t answers = trial % 3 == 0 ? 0 : rng.UniformIndex(6);
    EvaluationState state = PlayState(sys, rng, answers);
    const std::string context = "shard " + std::to_string(GetParam()) +
                                " trial " + std::to_string(trial) + ", " +
                                std::to_string(answers) + " answers, " +
                                Describe(sys);
    ASSERT_TRUE(ReferenceAttachOk(Residuals(sys.dnfs, state),
                                  NormalFormLimits::Unlimited()))
        << context;
    ASSERT_TRUE(state.TryAttachResidualCnfs(NormalFormLimits::Unlimited()))
        << context;
    ExpectClausesMatch(sys.dnfs, state, context);
  }
}

TEST_P(CnfAttachDiffTest, BudgetVerdictsMatchTheVarSetPath) {
  Rng rng(72000 + GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const System sys = MakeSystem(rng);
    const size_t answers = trial % 2 == 0 ? 0 : 1 + rng.UniformIndex(4);
    const EvaluationState played = PlayState(sys, rng, answers);
    const std::vector<Dnf> residuals = Residuals(sys.dnfs, played);
    // Budgets on either side of every residual CNF's size and of every
    // read-once product.
    std::vector<size_t> budgets;
    for (const Dnf& residual : residuals) {
      size_t size =
          DnfToCnf(residual, NormalFormLimits::Unlimited())->num_clauses();
      for (size_t b : {size - 1, size, size + 1}) {
        if (b > 0) budgets.push_back(b);
      }
    }
    for (size_t budget : budgets) {
      EvaluationState state = played;
      const std::string context = "shard " + std::to_string(GetParam()) +
                                  " trial " + std::to_string(trial) +
                                  ", budget " + std::to_string(budget) + ", " +
                                  Describe(sys);
      const bool expected = ReferenceAttachOk(residuals, Budget(budget));
      ASSERT_EQ(state.TryAttachResidualCnfs(Budget(budget)), expected)
          << context;
      if (expected) {
        ExpectClausesMatch(sys.dnfs, state, context);
      } else {
        ExpectNoClauses(state, context);
        // Hybrid retries later; the failed attempt left nothing to trip on.
        ASSERT_TRUE(state.TryAttachResidualCnfs(NormalFormLimits::Unlimited()))
            << context;
        ExpectClausesMatch(sys.dnfs, state, context);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CnfAttachDiffTest, ::testing::Range(0, 8));

// --- Deterministic spot checks ----------------------------------------------

// Read-once residuals are decided by the product of their term sizes, on
// both sides of the boundary: 2*3*4 = 24 clauses fit a budget of 24 and not
// one of 23.
TEST(CnfAttachSpotTest, ReadOnceProductAtTheBudgetBoundary) {
  const std::vector<Dnf> dnfs = {
      Dnf({VarSet{0, 1}, VarSet{2, 3, 4}, VarSet{5, 6, 7, 8}}),
      Dnf({VarSet{9}, VarSet{10, 11}})};
  const std::vector<double> pi(12, 0.5);
  for (size_t budget : {23u, 24u, 25u}) {
    EvaluationState state(dnfs, pi);
    const bool expected = ReferenceAttachOk(dnfs, Budget(budget));
    EXPECT_EQ(expected, budget >= 24);
    ASSERT_EQ(state.TryAttachResidualCnfs(Budget(budget)), expected);
    if (expected) {
      EXPECT_EQ(state.live_clauses(0), 24u);
      EXPECT_EQ(state.live_clauses(1), 2u);
      ExpectClausesMatch(dnfs, state, "budget " + std::to_string(budget));
    } else {
      ExpectNoClauses(state, "budget " + std::to_string(budget));
    }
  }
}

// Without absorption the live terms {0} and {0,1} stay side by side; the
// attachment minimises them to the read-once {0} ∨ {2,3} (2 clauses), as
// the Dnf constructor did on the VarSet path.
TEST(CnfAttachSpotTest, NonMinimalTermsAreMinimisedFirst) {
  const std::vector<Dnf> dnfs = {
      Dnf({VarSet{0}, VarSet{0, 1}, VarSet{2, 3}}, /*absorb=*/false)};
  ASSERT_EQ(dnfs[0].num_terms(), 3u);
  const std::vector<double> pi(4, 0.5);
  for (size_t budget : {1u, 2u}) {
    EvaluationState state(dnfs, pi);
    state.SetAbsorptionEnabled(false);
    ASSERT_EQ(state.TryAttachResidualCnfs(Budget(budget)), budget == 2);
    if (budget == 2) {
      EXPECT_EQ(Sorted(state.LiveClauses(0)),
                (std::vector<VarSet>{VarSet{0, 2}, VarSet{0, 3}}));
    } else {
      ExpectNoClauses(state, "budget 1");
    }
  }
}

// Duplicate residual terms (absorption off, {0,1} and {0,2} both shrink to
// {0}) count once.
TEST(CnfAttachSpotTest, DuplicateResidualTermsCountOnce) {
  const std::vector<Dnf> dnfs = {Dnf({VarSet{0, 1}, VarSet{0, 2}, VarSet{3}})};
  EvaluationState state(dnfs, std::vector<double>(4, 0.5));
  state.SetAbsorptionEnabled(false);
  state.Assign(1, true);
  state.Assign(2, true);
  ASSERT_EQ(state.live_terms(0), 3u);
  ASSERT_TRUE(state.TryAttachResidualCnfs(Budget(1)));
  EXPECT_EQ(state.LiveClauses(0), (std::vector<VarSet>{VarSet{0, 3}}));
}

// All or nothing: the first formula converted (the one with more terms)
// fits, the second does not; neither keeps a clause.
TEST(CnfAttachSpotTest, FailedAttachKeepsNoClause) {
  const std::vector<Dnf> dnfs = {
      Dnf({VarSet{0, 1}, VarSet{0, 2}, VarSet{0, 3}}),  // 2 clauses
      Dnf({VarSet{4, 5, 6}, VarSet{7, 8, 9}})};         // 9 clauses
  EvaluationState state(dnfs, std::vector<double>(10, 0.5));
  EXPECT_FALSE(state.TryAttachResidualCnfs(Budget(8)));
  ExpectNoClauses(state, "budget 8");
  EXPECT_FALSE(state.AttachCnfs(Budget(8)).ok());
  ExpectNoClauses(state, "AttachCnfs at budget 8");
  ASSERT_TRUE(state.AttachCnfs(Budget(9)).ok());
  ExpectClausesMatch(dnfs, state, "budget 9");
}

}  // namespace
}  // namespace consentdb::strategy
