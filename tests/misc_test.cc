// Odds and ends: printers, degenerate parameters, and cross-feature
// combinations not covered by the per-module suites.

#include <gtest/gtest.h>

#include "consentdb/core/consent_manager.h"
#include "consentdb/datasets/psi.h"
#include "consentdb/datasets/skewed.h"
#include "consentdb/query/parser.h"
#include "consentdb/strategy/batch_runner.h"
#include "consentdb/strategy/expected_cost.h"
#include "test_fixtures.h"

namespace consentdb {
namespace {

using provenance::Dnf;
using provenance::PartialValuation;
using provenance::Truth;
using provenance::VarId;
using provenance::VarSet;

// --- Printers ------------------------------------------------------------------

TEST(PrinterTest, PlanTreeRendering) {
  query::PlanPtr plan = *query::ParseQuery(
      "SELECT a FROM R WHERE b = 1 UNION SELECT c FROM S");
  std::string s = plan->ToString();
  EXPECT_NE(s.find("Union"), std::string::npos);
  EXPECT_NE(s.find("Project[a]"), std::string::npos);
  EXPECT_NE(s.find("Select[b = 1]"), std::string::npos);
  EXPECT_NE(s.find("Scan(R)"), std::string::npos);
  // Indentation shows nesting.
  EXPECT_NE(s.find("\n  "), std::string::npos);
}

TEST(PrinterTest, PlanAliasRendering) {
  query::PlanPtr plan = *query::ParseQuery("SELECT * FROM People p");
  EXPECT_NE(plan->ToString().find("Scan(People AS p)"), std::string::npos);
}

TEST(PrinterTest, QueryProfileToString) {
  query::PlanPtr plan = *query::ParseQuery(
      "SELECT S.c FROM R, S WHERE R.b = S.b UNION SELECT T.d FROM T");
  std::string s = query::Classify(*plan).ToString();
  EXPECT_NE(s.find("SPJU"), std::string::npos);
  EXPECT_NE(s.find("joins=1"), std::string::npos);
  EXPECT_NE(s.find("unions=1"), std::string::npos);
}

TEST(PrinterTest, EvaluationStateToString) {
  strategy::EvaluationState state({Dnf({VarSet{0, 1}})}, {0.5, 0.5});
  std::string s = state.ToString();
  EXPECT_NE(s.find("formulas=1"), std::string::npos);
  EXPECT_NE(s.find("undecided=1"), std::string::npos);
  state.Assign(0, false);
  EXPECT_NE(state.ToString().find("undecided=0"), std::string::npos);
}

TEST(PrinterTest, DnfCnfToString) {
  Dnf dnf({VarSet{0, 1}, VarSet{2}});
  EXPECT_EQ(dnf.ToString(), "{x0∧x1} ∨ {x2}");
  provenance::Cnf cnf = *provenance::DnfToCnf(dnf);
  EXPECT_EQ(cnf.ToString(), "{x0∨x2} ∧ {x1∨x2}");
  EXPECT_EQ(Dnf::ConstantTrue().ToString(), "true");
  EXPECT_EQ(provenance::Cnf::ConstantFalse().ToString(), "false");
}

// --- Degenerate dataset parameters ------------------------------------------------

TEST(DegenerateTest, SkewedWithZeroJoins) {
  // joins = 0 -> singleton terms (pure disjunctions, the SPU regime).
  datasets::SkewedParams params;
  params.num_rows = 20;
  params.num_joins = 0;
  Rng rng(61);
  datasets::SkewedDataset ds = datasets::GenerateSkewed(params, rng);
  for (const Dnf& dnf : ds.dnfs) {
    EXPECT_EQ(dnf.MaxTermSize(), 1u);
  }
}

TEST(DegenerateTest, SkewedWithLimitOne) {
  // limit = 1 -> single-term rows (pure conjunctions, the SJ regime).
  datasets::SkewedParams params;
  params.num_rows = 20;
  params.projection_limit = 1;
  Rng rng(62);
  datasets::SkewedDataset ds = datasets::GenerateSkewed(params, rng);
  for (const Dnf& dnf : ds.dnfs) {
    EXPECT_EQ(dnf.num_terms(), 1u);
  }
}

TEST(DegenerateTest, PsiLevelZero) {
  consent::VariablePool pool;
  datasets::PsiFormula psi = datasets::BuildPsi(0, pool, 0.5);
  EXPECT_EQ(pool.size(), 4u);
  Dnf dnf = datasets::PsiDnf(psi);
  EXPECT_EQ(dnf.num_terms(), 3u);
  // The constructive strategy still decides it (<= 3 probes).
  Rng rng(63);
  for (int trial = 0; trial < 8; ++trial) {
    PartialValuation hidden = pool.SampleValuation(rng);
    strategy::EvaluationState state({dnf}, pool.Probabilities());
    datasets::PsiOptimalStrategy optimal(psi);
    strategy::ProbeRun run = strategy::RunToCompletion(state, optimal, hidden);
    EXPECT_LE(run.num_probes, 3u);
    EXPECT_EQ(run.outcomes[0], dnf.Evaluate(hidden));
  }
}

TEST(DegenerateTest, SingleFormulasSingleVar) {
  // The smallest nontrivial instance end to end, all strategies.
  std::vector<Dnf> dnfs = {Dnf({VarSet{0}})};
  std::vector<double> pi = {0.3};
  for (auto& factory :
       {strategy::MakeRoFactory(), strategy::MakeFreqFactory(),
        strategy::MakeGeneralFactory(), strategy::MakeQValueFactory(),
        strategy::MakeRandomFactory(1)}) {
    strategy::EvaluationState state(dnfs, pi);
    ASSERT_TRUE(state.AttachCnfs().ok());
    std::unique_ptr<strategy::ProbeStrategy> s = factory();
    PartialValuation hidden(1);
    hidden.Set(0, true);
    strategy::ProbeRun run = strategy::RunToCompletion(state, *s, hidden);
    EXPECT_EQ(run.num_probes, 1u);
    EXPECT_EQ(run.outcomes[0], Truth::kTrue);
  }
}

// --- Cross-feature combinations ------------------------------------------------------

TEST(CrossFeatureTest, BatchedQValue) {
  std::vector<Dnf> dnfs = {Dnf({VarSet{0, 1}, VarSet{1, 2}}),
                           Dnf({VarSet{2, 3}})};
  std::vector<double> pi(4, 0.6);
  strategy::EvaluationState state(dnfs, pi);
  ASSERT_TRUE(state.AttachCnfs().ok());
  PartialValuation hidden(4);
  for (VarId x = 0; x < 4; ++x) hidden.Set(x, true);
  strategy::BatchProbeRun run = strategy::RunToCompletionBatched(
      state, strategy::MakeQValueFactory(),
      [&hidden](VarId x) { return hidden.Get(x) == Truth::kTrue; }, 3);
  for (size_t j = 0; j < dnfs.size(); ++j) {
    EXPECT_EQ(run.outcomes[j], dnfs[j].Evaluate(hidden));
  }
}

TEST(CrossFeatureTest, CostsWithBudgetRunner) {
  std::vector<Dnf> dnfs = {Dnf({VarSet{0}}), Dnf({VarSet{1}})};
  strategy::EvaluationState state(dnfs, {0.5, 0.5});
  state.SetCosts({1.0, 9.0});
  strategy::RoStrategy ro;
  PartialValuation hidden(2);
  hidden.Set(0, true);
  hidden.Set(1, true);
  strategy::BudgetedProbeRun run = strategy::RunWithBudget(
      state, ro, [&hidden](VarId x) { return hidden.Get(x) == Truth::kTrue; },
      1);
  EXPECT_EQ(run.num_probes, 1u);
  EXPECT_EQ(run.num_decided, 1u);
}

TEST(CrossFeatureTest, SessionOnUnoptimizedPlanMatchesOptimized) {
  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  core::ConsentManager manager(sdb);
  PartialValuation hidden(sdb.pool().size());
  Rng rng(64);
  for (VarId x = 0; x < sdb.pool().size(); ++x) {
    hidden.Set(x, rng.Bernoulli(0.5));
  }
  consent::ValuationOracle o1(hidden);
  consent::ValuationOracle o2(hidden);
  core::SessionReport r1 =
      *manager.DecideAll(testing::RecruitmentQuerySql(), o1);
  // The submitted plan doubles as the effective one: no optimization.
  query::PlanPtr plan = *query::ParseQuery(testing::RecruitmentQuerySql());
  core::SessionReport r2 = *manager.RunPrepared(
      *manager.PrepareResolved(plan, plan, std::nullopt), o2);
  ASSERT_EQ(r1.tuples.size(), r2.tuples.size());
  for (size_t i = 0; i < r1.tuples.size(); ++i) {
    EXPECT_EQ(r1.tuples[i].shareable, r2.tuples[i].shareable);
  }
}

}  // namespace
}  // namespace consentdb
