#include <gtest/gtest.h>

#include "consentdb/core/consent_manager.h"
#include "consentdb/util/rng.h"
#include "test_fixtures.h"

namespace consentdb::core {
namespace {

using consent::SharedDatabase;
using consent::ValuationOracle;
using provenance::PartialValuation;
using provenance::VarId;
using query::ParseQuery;
using query::PlanPtr;
using relational::Column;
using relational::Schema;
using relational::Tuple;
using relational::Value;
using relational::ValueType;

SharedDatabase SmallDb() {
  SharedDatabase sdb;
  EXPECT_TRUE(sdb.CreateRelation("R", Schema({Column{"a", ValueType::kInt64},
                                              Column{"b", ValueType::kInt64}}))
                  .ok());
  EXPECT_TRUE(sdb.CreateRelation("S", Schema({Column{"b", ValueType::kInt64},
                                              Column{"c", ValueType::kInt64}}))
                  .ok());
  EXPECT_TRUE(sdb.InsertTuple("R", Tuple{Value(1), Value(10)}).ok());
  EXPECT_TRUE(sdb.InsertTuple("R", Tuple{Value(2), Value(10)}).ok());
  EXPECT_TRUE(sdb.InsertTuple("R", Tuple{Value(3), Value(20)}).ok());
  EXPECT_TRUE(sdb.InsertTuple("S", Tuple{Value(10), Value(100)}).ok());
  EXPECT_TRUE(sdb.InsertTuple("S", Tuple{Value(20), Value(200)}).ok());
  return sdb;
}

PartialValuation FullValuation(const SharedDatabase& sdb, bool value) {
  PartialValuation val(sdb.pool().size());
  for (VarId x = 0; x < sdb.pool().size(); ++x) val.Set(x, value);
  return val;
}

// --- End-to-end on the running example ------------------------------------------------

TEST(ConsentManagerTest, RunningExampleAllConsent) {
  SharedDatabase sdb = testing::RecruitmentDatabase();
  ConsentManager manager(sdb);
  ValuationOracle oracle(FullValuation(sdb, true));
  SessionReport report =
      *manager.DecideAll(testing::RecruitmentQuerySql(), oracle);
  ASSERT_EQ(report.tuples.size(), 1u);
  EXPECT_TRUE(report.tuples[0].shareable);
  EXPECT_EQ(report.tuples[0].tuple, Tuple{Value("PennSolarExperts Ltd.")});
  EXPECT_GT(report.num_probes, 0u);
  EXPECT_LE(report.num_probes, sdb.pool().size());
}

TEST(ConsentManagerTest, ReportsHybridCnfAttachFailure) {
  // The running example's provenance shares the company variable across all
  // terms (not read-once), so Hybrid attempts a residual-CNF attachment;
  // a one-clause budget makes that attempt fail and the report must say so.
  SharedDatabase sdb = testing::RecruitmentDatabase();
  ConsentManager manager(sdb);
  ValuationOracle oracle(FullValuation(sdb, true));
  SessionOptions options;
  options.algorithm = Algorithm::kHybrid;
  options.cnf_limits.max_sets = 1;
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  SessionReport report =
      *manager.DecideAll(testing::RecruitmentQuerySql(), oracle, options);
  EXPECT_TRUE(report.cnf_attach_failed);
  EXPECT_EQ(metrics.GetCounter("session.cnf_attach_failed")->value(), 1u);
  EXPECT_NE(report.ToJson().find("\"cnf_attach_failed\":true"),
            std::string::npos);
  EXPECT_NE(report.ToString().find("cnf_attach_failed"), std::string::npos);

  // Default budget: the attachment succeeds and the key stays absent, so
  // pre-existing reports remain byte-identical.
  SessionOptions roomy;
  roomy.algorithm = Algorithm::kHybrid;
  SessionReport ok =
      *manager.DecideAll(testing::RecruitmentQuerySql(), oracle, roomy);
  EXPECT_FALSE(ok.cnf_attach_failed);
  EXPECT_EQ(ok.ToJson().find("cnf_attach_failed"), std::string::npos);
}

TEST(ConsentManagerTest, RunningExampleNoConsent) {
  SharedDatabase sdb = testing::RecruitmentDatabase();
  ConsentManager manager(sdb);
  ValuationOracle oracle(FullValuation(sdb, false));
  SessionReport report =
      *manager.DecideAll(testing::RecruitmentQuerySql(), oracle);
  ASSERT_EQ(report.tuples.size(), 1u);
  EXPECT_FALSE(report.tuples[0].shareable);
}

TEST(ConsentManagerTest, TraceCarriesOwnersAndNames) {
  SharedDatabase sdb = testing::RecruitmentDatabase();
  ConsentManager manager(sdb);
  ValuationOracle oracle(FullValuation(sdb, true));
  SessionReport report =
      *manager.DecideAll(testing::RecruitmentQuerySql(), oracle);
  ASSERT_FALSE(report.trace.empty());
  for (const SessionReport::ProbeRecord& rec : report.trace) {
    EXPECT_FALSE(rec.variable_name.empty());
    EXPECT_FALSE(rec.owner.empty());
  }
  EXPECT_EQ(report.trace.size(), report.num_probes);
}

// --- Verdicts match Def. II.6 across algorithms ------------------------------------------

class AlgorithmSweepTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(AlgorithmSweepTest, VerdictsMatchPossibleWorlds) {
  SharedDatabase sdb = SmallDb();
  ConsentManager manager(sdb);
  PlanPtr plan = *ParseQuery("SELECT b FROM R UNION SELECT b FROM S");
  Rng rng(42);
  for (int trial = 0; trial < 10; ++trial) {
    PartialValuation hidden(sdb.pool().size());
    for (VarId x = 0; x < sdb.pool().size(); ++x) {
      hidden.Set(x, rng.Bernoulli(0.5));
    }
    ValuationOracle oracle(hidden);
    SessionOptions options;
    options.algorithm = GetParam();
    SessionReport report = *manager.DecideAll(plan, oracle, options);
    relational::Relation expected =
        *eval::EvaluateOverConsentedFragment(plan, sdb, hidden);
    for (const TupleConsent& tc : report.tuples) {
      EXPECT_EQ(tc.shareable, expected.Contains(tc.tuple))
          << AlgorithmToString(GetParam()) << " tuple " << tc.tuple.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, AlgorithmSweepTest,
    ::testing::Values(Algorithm::kAuto, Algorithm::kRandom, Algorithm::kFreq,
                      Algorithm::kRo, Algorithm::kQValue, Algorithm::kGeneral,
                      Algorithm::kHybrid, Algorithm::kOptimal),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      std::string name = AlgorithmToString(info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

// --- Single-tuple variant ----------------------------------------------------------------

TEST(ConsentManagerTest, DecideSingleTargetsOneTuple) {
  SharedDatabase sdb = SmallDb();
  ConsentManager manager(sdb);
  ValuationOracle oracle(FullValuation(sdb, true));
  SessionReport report = *manager.DecideSingle(
      "SELECT b FROM R", Tuple{Value(10)}, oracle);
  ASSERT_EQ(report.tuples.size(), 1u);
  EXPECT_TRUE(report.tuples[0].shareable);
  // Deciding b=10 needs at most its own derivations (x0, x1), never x2.
  EXPECT_LE(report.num_probes, 2u);
}

TEST(ConsentManagerTest, DecideSingleUnknownTupleFails) {
  SharedDatabase sdb = SmallDb();
  ConsentManager manager(sdb);
  ValuationOracle oracle(FullValuation(sdb, true));
  Result<SessionReport> r = manager.DecideSingle(
      "SELECT b FROM R", Tuple{Value(999)}, oracle);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

// --- Automatic algorithm selection ----------------------------------------------------------

TEST(ConsentManagerTest, AutoPicksRoForOverallReadOnce) {
  SharedDatabase sdb = SmallDb();
  ConsentManager manager(sdb);
  ValuationOracle oracle(FullValuation(sdb, true));
  // SP query: overall read-once provenance.
  SessionReport report = *manager.DecideAll("SELECT b FROM R", oracle);
  EXPECT_EQ(report.algorithm_used, "RO");
  EXPECT_TRUE(report.provenance_overall_read_once);
  EXPECT_NE(report.selection_rationale.find("read-once"), std::string::npos);
}

TEST(ConsentManagerTest, AutoPicksRoForSingleTupleReadOnce) {
  SharedDatabase sdb = SmallDb();
  ConsentManager manager(sdb);
  ValuationOracle oracle(FullValuation(sdb, true));
  // SJ provenance is per-tuple read-once: single-tuple sessions can use RO.
  SessionReport report = *manager.DecideSingle(
      "SELECT * FROM R, S WHERE R.b = S.b",
      Tuple{Value(1), Value(10), Value(10), Value(100)}, oracle);
  EXPECT_EQ(report.algorithm_used, "RO");
}

TEST(ConsentManagerTest, AutoPicksQValueForLimitedProjection) {
  SharedDatabase sdb = SmallDb();
  ConsentManager manager(sdb);
  ValuationOracle oracle(FullValuation(sdb, true));
  // SPJ: S.c from join — tuple 100 has 2 derivations sharing x3: not
  // read-once, small term count -> Q-value.
  SessionReport report = *manager.DecideAll(
      "SELECT S.c FROM R, S WHERE R.b = S.b", oracle);
  EXPECT_EQ(report.algorithm_used, "Q-value");
  EXPECT_FALSE(report.provenance_per_tuple_read_once);
}

TEST(ConsentManagerTest, AutoFallsBackToGeneralWhenCnfInfeasible) {
  SharedDatabase sdb = SmallDb();
  ConsentManager manager(sdb);
  ValuationOracle oracle(FullValuation(sdb, true));
  SessionOptions options;
  options.qvalue_max_terms = 0;  // force the CNF gate shut
  SessionReport report = *manager.DecideAll(
      "SELECT S.c FROM R, S WHERE R.b = S.b", oracle, options);
  EXPECT_EQ(report.algorithm_used, "General");
}

// --- Analysis without probing -----------------------------------------------------------------

TEST(ConsentManagerTest, AnalyzeBundlesProfileAndGuarantees) {
  SharedDatabase sdb = testing::RecruitmentDatabase();
  ConsentManager manager(sdb);
  PlanPtr plan = *ParseQuery(testing::RecruitmentQuerySql());
  QueryAnalysis analysis = *manager.Analyze(plan);
  EXPECT_EQ(analysis.profile.query_class, query::QueryClass::kSPJ);
  EXPECT_TRUE(analysis.guarantees.np_hard_all_tuples);
  EXPECT_EQ(analysis.provenance.dnfs.size(), 1u);
  EXPECT_EQ(analysis.provenance.max_terms_per_tuple, 3u);
}

// Analyze prepares the query like a session does: it optimizes the plan
// before evaluating it and reports the same provenance as Prepare.
TEST(ConsentManagerTest, AnalyzeGoesThroughPrepare) {
  SharedDatabase sdb = testing::RecruitmentDatabase();
  ConsentManager manager(sdb);
  PlanPtr plan = *ParseQuery(testing::RecruitmentQuerySql());
  obs::MetricsRegistry registry;
  SessionOptions options;
  options.metrics = &registry;
  QueryAnalysis analysis = *manager.Analyze(plan, options);
  EXPECT_EQ(registry.GetHistogram("query.optimize_ns")->count(), 1u);
  PreparedSession prepared = *manager.Prepare(plan, std::nullopt);
  EXPECT_EQ(analysis.provenance.dnfs, prepared.provenance.dnfs);
  EXPECT_EQ(analysis.profile.query_class, prepared.profile.query_class);
}

// --- Errors propagate ---------------------------------------------------------------------------

TEST(ConsentManagerTest, BadSqlPropagates) {
  SharedDatabase sdb = SmallDb();
  ConsentManager manager(sdb);
  ValuationOracle oracle(FullValuation(sdb, true));
  EXPECT_FALSE(manager.DecideAll("SELECT FROM WHERE", oracle).ok());
}

TEST(ConsentManagerTest, UnknownRelationPropagates) {
  SharedDatabase sdb = SmallDb();
  ConsentManager manager(sdb);
  ValuationOracle oracle(FullValuation(sdb, true));
  Result<SessionReport> r = manager.DecideAll("SELECT * FROM Nope", oracle);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ConsentManagerTest, ReportToStringMentionsAlgorithm) {
  SharedDatabase sdb = SmallDb();
  ConsentManager manager(sdb);
  ValuationOracle oracle(FullValuation(sdb, true));
  SessionReport report = *manager.DecideAll("SELECT b FROM R", oracle);
  std::string s = report.ToString();
  EXPECT_NE(s.find("RO"), std::string::npos);
  EXPECT_NE(s.find("probes="), std::string::npos);
}

}  // namespace
}  // namespace consentdb::core
