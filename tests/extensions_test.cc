// Tests for the Sec. VII extensions: batched probing, probe budgets,
// non-uniform probe costs, and block (shared) annotations.

#include <gtest/gtest.h>

#include <stdexcept>

#include "consentdb/consent/shared_database.h"
#include "consentdb/eval/evaluate.h"
#include "consentdb/eval/provenance_profile.h"
#include "consentdb/obs/metrics.h"
#include "consentdb/obs/tracer.h"
#include "consentdb/query/parser.h"
#include "consentdb/strategy/batch_runner.h"
#include "consentdb/strategy/expected_cost.h"
#include "consentdb/util/rng.h"

namespace consentdb::strategy {
namespace {

using provenance::PartialValuation;
using provenance::VarSet;

std::vector<double> UniformPi(size_t n, double p = 0.5) {
  return std::vector<double>(n, p);
}

PartialValuation AllSet(size_t n, bool value) {
  PartialValuation val(n);
  for (size_t i = 0; i < n; ++i) val.Set(static_cast<VarId>(i), value);
  return val;
}

ProbeFn FromValuation(const PartialValuation& hidden) {
  return [&hidden](VarId x) {
    return hidden.Get(x) == Truth::kTrue;
  };
}

// --- Batched probing ------------------------------------------------------------

TEST(BatchRunnerTest, BatchSizeOneMatchesSequential) {
  std::vector<Dnf> dnfs = {Dnf({VarSet{0, 1}, VarSet{2, 3}}),
                           Dnf({VarSet{1, 4}})};
  std::vector<double> pi = UniformPi(5, 0.6);
  PartialValuation hidden = AllSet(5, true);
  EvaluationState seq_state(dnfs, pi);
  RoStrategy ro;
  ProbeRun seq = RunToCompletion(seq_state, ro, FromValuation(hidden));
  EvaluationState batch_state(dnfs, pi);
  BatchProbeRun batch = RunToCompletionBatched(batch_state, MakeRoFactory(),
                                               FromValuation(hidden), 1);
  EXPECT_EQ(batch.num_probes, seq.num_probes);
  EXPECT_EQ(batch.num_rounds, seq.num_probes);
  EXPECT_EQ(batch.outcomes, seq.outcomes);
}

TEST(BatchRunnerTest, LargerBatchesReduceRounds) {
  std::vector<Dnf> dnfs = {
      Dnf({VarSet{0, 1, 2}, VarSet{3, 4}, VarSet{5, 6, 7}}),
      Dnf({VarSet{2, 8}, VarSet{9}})};
  std::vector<double> pi = UniformPi(10, 0.5);
  PartialValuation hidden = AllSet(10, true);
  size_t prev_rounds = static_cast<size_t>(-1);
  for (size_t batch_size : {1u, 4u, 16u}) {
    EvaluationState state(dnfs, pi);
    BatchProbeRun run = RunToCompletionBatched(
        state, MakeRoFactory(), FromValuation(hidden), batch_size);
    EXPECT_LE(run.num_rounds, prev_rounds);
    prev_rounds = run.num_rounds;
    for (size_t j = 0; j < dnfs.size(); ++j) {
      EXPECT_EQ(run.outcomes[j], dnfs[j].Evaluate(hidden));
    }
  }
}

TEST(BatchRunnerTest, BatchingNeverProbesLessThanSequential) {
  // The latency/effort trade-off: batches may contain redundant probes.
  Rng rng(3);
  std::vector<Dnf> dnfs = {Dnf({VarSet{0}, VarSet{1}, VarSet{2}, VarSet{3}})};
  std::vector<double> pi = UniformPi(4, 0.5);
  for (int trial = 0; trial < 10; ++trial) {
    PartialValuation hidden(4);
    for (VarId x = 0; x < 4; ++x) hidden.Set(x, rng.Bernoulli(0.5));
    EvaluationState seq_state(dnfs, pi);
    RoStrategy ro;
    ProbeRun seq = RunToCompletion(seq_state, ro, FromValuation(hidden));
    EvaluationState batch_state(dnfs, pi);
    BatchProbeRun batch = RunToCompletionBatched(
        batch_state, MakeRoFactory(), FromValuation(hidden), 4);
    EXPECT_GE(batch.num_probes, seq.num_probes);
    EXPECT_LE(batch.num_rounds, seq.num_probes);
    EXPECT_EQ(batch.outcomes[0], dnfs[0].Evaluate(hidden));
  }
}

TEST(BatchRunnerTest, CorrectOnAllValuations) {
  std::vector<Dnf> dnfs = {Dnf({VarSet{0, 1}, VarSet{1, 2}}),
                           Dnf({VarSet{0, 3}})};
  std::vector<double> pi = UniformPi(4, 0.5);
  for (size_t mask = 0; mask < 16; ++mask) {
    PartialValuation hidden(4);
    for (VarId x = 0; x < 4; ++x) hidden.Set(x, ((mask >> x) & 1) != 0);
    EvaluationState state(dnfs, pi);
    BatchProbeRun run = RunToCompletionBatched(state, MakeFreqFactory(),
                                               FromValuation(hidden), 3);
    for (size_t j = 0; j < dnfs.size(); ++j) {
      EXPECT_EQ(run.outcomes[j], dnfs[j].Evaluate(hidden)) << "mask " << mask;
    }
  }
}

TEST(BatchRunnerTest, SendsProbesMadeRedundantMidRound) {
  // One term {x0, x1}: once x0 answers False the formula is decided and x1
  // stops being useful. The planned x1 probe is still sent and counted (the
  // paper's model: a dispatched batch costs its full size).
  std::vector<Dnf> dnfs = {Dnf({VarSet{0, 1}})};
  std::vector<double> pi = UniformPi(2, 0.9);
  PartialValuation hidden(2);
  hidden.Set(0, false);
  hidden.Set(1, true);

  EvaluationState state(dnfs, pi);
  BatchProbeRun run =
      RunToCompletionBatched(state, MakeRoFactory(), FromValuation(hidden), 2);
  EXPECT_EQ(run.num_probes, 2u);
  EXPECT_EQ(run.num_rounds, 1u);
  EXPECT_EQ(run.outcomes[0], Truth::kFalse);
}

TEST(BatchRunnerTest, FailingOracleMidRoundDoesNotInflateRoundCount) {
  // Regression: the round counter used to be committed when the batch was
  // *planned*, so an oracle failing mid-round left rounds == 1 with the
  // round only partially sent. A round now counts only once every probe of
  // it returned; per-probe counters record exactly the successful sends.
  std::vector<Dnf> dnfs = {Dnf({VarSet{0, 1, 2}})};
  std::vector<double> pi = UniformPi(3, 0.7);

  obs::MetricsRegistry metrics;
  RunInstrumentation instr;
  instr.metrics = &metrics;
  size_t calls = 0;
  ProbeFn failing = [&calls](VarId) -> bool {
    if (++calls == 2) throw std::runtime_error("peer hung up");
    return true;
  };

  EvaluationState state(dnfs, pi);
  EXPECT_THROW(RunToCompletionBatched(state, MakeFreqFactory(), failing,
                                      /*batch_size=*/3, instr),
               std::runtime_error);
  // The first probe of the round succeeded and was counted; the round never
  // completed, so the round counter must not have moved.
  EXPECT_EQ(metrics.GetCounter("batch.probes")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("batch.rounds")->value(), 0u);
  // Exactly the one successful answer was applied before the failure.
  size_t known = 0;
  for (VarId x = 0; x < 3; ++x) {
    known += state.var_value(x) != Truth::kUnknown ? 1 : 0;
  }
  EXPECT_EQ(known, 1u);
}

// --- Budgeted probing ----------------------------------------------------------------

TEST(BudgetRunnerTest, StopsAtBudget) {
  std::vector<Dnf> dnfs = {Dnf({VarSet{0}}), Dnf({VarSet{1}}),
                           Dnf({VarSet{2}}), Dnf({VarSet{3}})};
  std::vector<double> pi = UniformPi(4, 0.5);
  PartialValuation hidden = AllSet(4, true);
  EvaluationState state(dnfs, pi);
  RoStrategy ro;
  BudgetedProbeRun run = RunWithBudget(state, ro, FromValuation(hidden), 2);
  EXPECT_EQ(run.num_probes, 2u);
  EXPECT_EQ(run.num_decided, 2u);
  size_t unknown = 0;
  for (Truth t : run.outcomes) unknown += t == Truth::kUnknown ? 1 : 0;
  EXPECT_EQ(unknown, 2u);
}

TEST(BudgetRunnerTest, FinishesEarlyWhenEverythingDecided) {
  std::vector<Dnf> dnfs = {Dnf({VarSet{0}})};
  EvaluationState state(dnfs, UniformPi(1, 0.5));
  RoStrategy ro;
  BudgetedProbeRun run =
      RunWithBudget(state, ro, FromValuation(AllSet(1, false)), 100);
  EXPECT_EQ(run.num_probes, 1u);
  EXPECT_EQ(run.num_decided, 1u);
}

TEST(BudgetRunnerTest, ZeroBudgetDecidesNothing) {
  std::vector<Dnf> dnfs = {Dnf({VarSet{0}})};
  EvaluationState state(dnfs, UniformPi(1, 0.5));
  RoStrategy ro;
  BudgetedProbeRun run =
      RunWithBudget(state, ro, FromValuation(AllSet(1, true)), 0);
  EXPECT_EQ(run.num_probes, 0u);
  EXPECT_EQ(run.num_decided, 0u);
}

TEST(BudgetRunnerTest, ExhaustionLeavesUnknownsAndConsistentCounts) {
  // Mixed answers, budget smaller than the formula count: outcomes must be
  // Unknown exactly for the formulas the budget never reached, num_decided
  // must equal the non-Unknown count, and every decided outcome must agree
  // with the hidden valuation.
  std::vector<Dnf> dnfs = {Dnf({VarSet{0}}), Dnf({VarSet{1}}),
                           Dnf({VarSet{2}}), Dnf({VarSet{3}}),
                           Dnf({VarSet{4}})};
  std::vector<double> pi = UniformPi(5, 0.5);
  PartialValuation hidden(5);
  hidden.Set(0, true);
  hidden.Set(1, false);
  hidden.Set(2, true);
  hidden.Set(3, false);
  hidden.Set(4, true);

  EvaluationState state(dnfs, pi);
  RoStrategy ro;
  BudgetedProbeRun run = RunWithBudget(state, ro, FromValuation(hidden), 3);
  EXPECT_EQ(run.num_probes, 3u);
  ASSERT_EQ(run.outcomes.size(), dnfs.size());

  size_t unknown = 0;
  size_t decided = 0;
  for (size_t j = 0; j < run.outcomes.size(); ++j) {
    if (run.outcomes[j] == Truth::kUnknown) {
      ++unknown;
    } else {
      ++decided;
      EXPECT_EQ(run.outcomes[j], dnfs[j].Evaluate(hidden)) << "formula " << j;
    }
  }
  EXPECT_EQ(unknown, 2u);  // 5 singleton formulas, 3 probes
  EXPECT_EQ(decided, 3u);
  EXPECT_EQ(run.num_decided, decided);
}

TEST(BudgetRunnerTest, TracerSeesExactlyTheBudgetedProbes) {
  std::vector<Dnf> dnfs = {Dnf({VarSet{0}}), Dnf({VarSet{1}}),
                           Dnf({VarSet{2}}), Dnf({VarSet{3}})};
  std::vector<double> pi = UniformPi(4, 0.5);
  PartialValuation hidden = AllSet(4, true);

  obs::SessionTracer tracer;
  obs::MetricsRegistry metrics;
  RunInstrumentation instr;
  instr.tracer = &tracer;
  instr.metrics = &metrics;

  EvaluationState state(dnfs, pi);
  RoStrategy ro;
  BudgetedProbeRun run =
      RunWithBudget(state, ro, FromValuation(hidden), 2, instr);
  EXPECT_EQ(run.num_probes, 2u);
  ASSERT_EQ(tracer.num_probes(), run.num_probes);
  for (size_t i = 0; i < tracer.events().size(); ++i) {
    const obs::ProbeEvent& event = tracer.events()[i];
    EXPECT_EQ(event.probe_index, i);
    EXPECT_EQ(hidden.Get(static_cast<VarId>(event.variable)),
              event.answer ? Truth::kTrue : Truth::kFalse);
  }
}

// --- Non-uniform probe costs -------------------------------------------------------------

TEST(CostTest, StateStoresAndDefaultsCosts) {
  EvaluationState state({Dnf({VarSet{0, 1}})}, UniformPi(2, 0.5));
  EXPECT_FALSE(state.has_costs());
  EXPECT_DOUBLE_EQ(state.cost(0), 1.0);
  state.SetCosts({3.0, 0.5});
  EXPECT_TRUE(state.has_costs());
  EXPECT_DOUBLE_EQ(state.cost(0), 3.0);
  EXPECT_DOUBLE_EQ(state.cost(1), 0.5);
}

TEST(CostTest, RunnerAccumulatesTotalCost) {
  EvaluationState state({Dnf({VarSet{0, 1}})}, UniformPi(2, 0.5));
  state.SetCosts({3.0, 0.5});
  RoStrategy ro;
  ProbeRun run = RunToCompletion(state, ro, FromValuation(AllSet(2, true)));
  EXPECT_EQ(run.num_probes, 2u);
  EXPECT_DOUBLE_EQ(run.total_cost, 3.5);
}

TEST(CostTest, RoProbesCheapDecisiveVariablesFirst) {
  // Single conjunction, equal probabilities, very different costs: the
  // cost-aware order starts with the cheap variable.
  EvaluationState state({Dnf({VarSet{0, 1}})}, UniformPi(2, 0.5));
  state.SetCosts({10.0, 1.0});
  RoStrategy ro;
  EXPECT_EQ(ro.ChooseNext(state), 1u);
}

TEST(CostTest, RoTermChoiceUsesExpectedCost) {
  // Term {0} (p=0.5, cost 50) vs term {1,2} (p=0.25, costs 1):
  // ratios 0.5/50 = 0.01 vs 0.25/1.5 = 0.167 -> probe the cheap pair first.
  EvaluationState state({Dnf({VarSet{0}, VarSet{1, 2}})}, UniformPi(3, 0.5));
  state.SetCosts({50.0, 1.0, 1.0});
  RoStrategy ro;
  VarId first = ro.ChooseNext(state);
  EXPECT_TRUE(first == 1 || first == 2);
}

TEST(CostTest, UnitCostsLeaveBehaviourUnchanged) {
  // Explicit unit costs must give the same probe sequence as no costs.
  std::vector<Dnf> dnfs = {Dnf({VarSet{0, 1}, VarSet{2, 3}, VarSet{1, 4}})};
  std::vector<double> pi = {0.3, 0.6, 0.4, 0.7, 0.5};
  PartialValuation hidden = AllSet(5, true);
  for (auto& factory : {MakeRoFactory(), MakeFreqFactory(),
                        MakeGeneralFactory(), MakeQValueFactory()}) {
    EvaluationState plain(dnfs, pi);
    ASSERT_TRUE(plain.AttachCnfs().ok());
    EvaluationState unit(dnfs, pi);
    ASSERT_TRUE(unit.AttachCnfs().ok());
    unit.SetCosts(std::vector<double>(5, 1.0));
    std::unique_ptr<ProbeStrategy> s1 = factory();
    std::unique_ptr<ProbeStrategy> s2 = factory();
    ProbeRun r1 = RunToCompletion(plain, *s1, FromValuation(hidden));
    ProbeRun r2 = RunToCompletion(unit, *s2, FromValuation(hidden));
    EXPECT_EQ(r1.trace, r2.trace) << s1->name();
  }
}

TEST(CostTest, CostAwareQValueReducesTotalCost) {
  // Two symmetric disjuncts; one side is expensive. Over many runs the
  // cost-aware greedy must pay no more than the cost-blind one.
  std::vector<Dnf> dnfs = {
      Dnf({VarSet{0, 1}, VarSet{2, 3}})};
  std::vector<double> pi = UniformPi(4, 0.5);
  std::vector<double> costs = {5.0, 5.0, 1.0, 1.0};
  Rng rng(17);
  double aware_total = 0;
  double blind_total = 0;
  for (int trial = 0; trial < 200; ++trial) {
    PartialValuation hidden(4);
    for (VarId x = 0; x < 4; ++x) hidden.Set(x, rng.Bernoulli(0.5));
    {
      EvaluationState state(dnfs, pi);
      ASSERT_TRUE(state.AttachCnfs().ok());
      state.SetCosts(costs);
      QValueStrategy qv;
      aware_total += RunToCompletion(state, qv, FromValuation(hidden)).total_cost;
    }
    {
      EvaluationState state(dnfs, pi);
      ASSERT_TRUE(state.AttachCnfs().ok());
      QValueStrategy qv;
      ProbeRun run = RunToCompletion(state, qv, FromValuation(hidden));
      for (const auto& [x, answer] : run.trace) blind_total += costs[x];
    }
  }
  EXPECT_LE(aware_total, blind_total);
}

}  // namespace
}  // namespace consentdb::strategy

// --- Block annotations (Sec. VII, beyond unique annotations) -----------------------

namespace consentdb::consent {
namespace {

using eval::AnnotatedRelation;
using provenance::Dnf;
using provenance::PartialValuation;
using provenance::Truth;
using provenance::VarId;
using provenance::VarSet;
using relational::Column;
using relational::Schema;
using relational::Tuple;
using relational::Value;
using relational::ValueType;

TEST(BlockAnnotationTest, TuplesShareOneConsentVariable) {
  SharedDatabase sdb;
  ASSERT_TRUE(
      sdb.CreateRelation("T", Schema({Column{"x", ValueType::kInt64}})).ok());
  VarId block = *sdb.InsertTuple("T", Tuple{Value(1)}, "alice", 0.5);
  ASSERT_TRUE(sdb.InsertTupleInBlock("T", Tuple{Value(2)}, block).ok());
  ASSERT_TRUE(sdb.InsertTupleInBlock("T", Tuple{Value(3)}, block).ok());
  EXPECT_EQ(sdb.pool().size(), 1u);
  EXPECT_EQ(*sdb.AnnotationOf("T", size_t{2}), block);
  // One denial removes the whole block from the consented fragment.
  PartialValuation val;
  val.Set(block, false);
  EXPECT_TRUE(sdb.ConsentedFragment(val).RelationOrDie("T").empty());
  val.Set(block, true);
  EXPECT_EQ(sdb.ConsentedFragment(val).RelationOrDie("T").size(), 3u);
}

TEST(BlockAnnotationTest, RejectsUnknownVariable) {
  SharedDatabase sdb;
  ASSERT_TRUE(
      sdb.CreateRelation("T", Schema({Column{"x", ValueType::kInt64}})).ok());
  EXPECT_FALSE(sdb.InsertTupleInBlock("T", Tuple{Value(1)}, 42).ok());
}

TEST(BlockAnnotationTest, BlocksCreateVariableCoOccurrence) {
  // Sec. VII: block annotations lead to co-occurrences of variables in the
  // provenance, breaking the syntactic read-once guarantee of SP queries —
  // the runtime profile detects it.
  SharedDatabase sdb;
  ASSERT_TRUE(sdb.CreateRelation("T", Schema({Column{"g", ValueType::kInt64},
                                              Column{"x", ValueType::kInt64}}))
                  .ok());
  VarId block = *sdb.InsertTuple("T", Tuple{Value(1), Value(10)}, "alice", 0.5);
  ASSERT_TRUE(sdb.InsertTupleInBlock("T", Tuple{Value(2), Value(20)}, block).ok());
  (void)*sdb.InsertTuple("T", Tuple{Value(1), Value(30)}, "bob", 0.5);

  query::PlanPtr plan = *query::ParseQuery("SELECT g FROM T");
  AnnotatedRelation out = *eval::EvaluateAnnotated(plan, sdb);
  eval::ProvenanceProfile profile = *eval::ProfileProvenance(out);
  // Tuple g=1 has annotation block ∨ bob; tuple g=2 has annotation block:
  // per-tuple read-once but NOT overall read-once, despite being an SP
  // query (which guarantees overall-RO only under unique annotations).
  EXPECT_TRUE(profile.per_tuple_read_once);
  EXPECT_FALSE(profile.overall_read_once);
}

TEST(BlockAnnotationTest, ProbingStillMatchesPossibleWorlds) {
  SharedDatabase sdb;
  ASSERT_TRUE(sdb.CreateRelation("T", Schema({Column{"g", ValueType::kInt64},
                                              Column{"x", ValueType::kInt64}}))
                  .ok());
  VarId block = *sdb.InsertTuple("T", Tuple{Value(1), Value(10)}, "alice", 0.5);
  ASSERT_TRUE(
      sdb.InsertTupleInBlock("T", Tuple{Value(2), Value(20)}, block).ok());
  (void)*sdb.InsertTuple("T", Tuple{Value(2), Value(30)}, "bob", 0.5);
  query::PlanPtr plan = *query::ParseQuery("SELECT g FROM T");
  AnnotatedRelation annotated = *eval::EvaluateAnnotated(plan, sdb);
  for (size_t mask = 0; mask < 4; ++mask) {
    PartialValuation val(2);
    val.Set(0, (mask & 1) != 0);
    val.Set(1, (mask & 2) != 0);
    relational::Relation via_annotations = annotated.ShareableFragment(val);
    relational::Relation via_definition =
        *eval::EvaluateOverConsentedFragment(plan, sdb, val);
    EXPECT_EQ(via_annotations, via_definition) << "mask " << mask;
  }
}

}  // namespace
}  // namespace consentdb::consent
