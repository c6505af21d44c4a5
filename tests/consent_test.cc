#include <gtest/gtest.h>

#include "consentdb/consent/oracle.h"
#include "consentdb/consent/shared_database.h"
#include "consentdb/consent/variable_pool.h"
#include "consentdb/core/consent_manager.h"
#include "test_fixtures.h"

namespace consentdb::consent {
namespace {

using provenance::PartialValuation;
using provenance::Truth;
using provenance::VarId;
using relational::Column;
using relational::Schema;
using relational::Tuple;
using relational::Value;
using relational::ValueType;

// --- VariablePool -----------------------------------------------------------------

TEST(VariablePoolTest, AllocatesDenseIds) {
  VariablePool pool;
  EXPECT_EQ(pool.Allocate(), 0u);
  EXPECT_EQ(pool.Allocate(), 1u);
  EXPECT_EQ(pool.Allocate(), 2u);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(VariablePoolTest, DefaultNamesAndMetadata) {
  VariablePool pool;
  VarId a = pool.Allocate();
  VarId b = pool.Allocate("row-7", "Alice", 0.9);
  EXPECT_EQ(pool.name(a), "x0");
  EXPECT_EQ(pool.name(b), "row-7");
  EXPECT_EQ(pool.owner(b), "Alice");
  EXPECT_DOUBLE_EQ(pool.probability(b), 0.9);
  EXPECT_DOUBLE_EQ(pool.probability(a), 0.5);
}

TEST(VariablePoolTest, SetProbabilities) {
  VariablePool pool;
  pool.AllocateN(3);
  pool.SetProbability(1, 0.25);
  EXPECT_EQ(pool.Probabilities(), (std::vector<double>{0.5, 0.25, 0.5}));
  pool.SetAllProbabilities(0.7);
  EXPECT_EQ(pool.Probabilities(), (std::vector<double>{0.7, 0.7, 0.7}));
}

TEST(VariablePoolTest, SampleValuationRespectsExtremes) {
  VariablePool pool;
  VarId always = pool.Allocate("", "", 1.0);
  VarId never = pool.Allocate("", "", 0.0);
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    PartialValuation val = pool.SampleValuation(rng);
    EXPECT_EQ(val.Get(always), Truth::kTrue);
    EXPECT_EQ(val.Get(never), Truth::kFalse);
  }
}

TEST(VariablePoolTest, SampleValuationCoversAllVars) {
  VariablePool pool;
  pool.AllocateN(10, 0.5);
  Rng rng(4);
  PartialValuation val = pool.SampleValuation(rng);
  EXPECT_EQ(val.CountKnown(), 10u);
}

// --- SharedDatabase -----------------------------------------------------------------

TEST(SharedDatabaseTest, InsertAllocatesUniqueAnnotations) {
  SharedDatabase sdb;
  ASSERT_TRUE(
      sdb.CreateRelation("T", Schema({Column{"x", ValueType::kInt64}})).ok());
  VarId a = *sdb.InsertTuple("T", Tuple{Value(1)}, "Alice", 0.8);
  VarId b = *sdb.InsertTuple("T", Tuple{Value(2)}, "Bob", 0.3);
  EXPECT_NE(a, b);
  EXPECT_EQ(sdb.pool().owner(a), "Alice");
  EXPECT_EQ(sdb.pool().name(a), "T#0");
  EXPECT_DOUBLE_EQ(sdb.pool().probability(b), 0.3);
}

TEST(SharedDatabaseTest, ReinsertKeepsAnnotation) {
  SharedDatabase sdb;
  ASSERT_TRUE(
      sdb.CreateRelation("T", Schema({Column{"x", ValueType::kInt64}})).ok());
  VarId a = *sdb.InsertTuple("T", Tuple{Value(1)});
  VarId again = *sdb.InsertTuple("T", Tuple{Value(1)});
  EXPECT_EQ(a, again);
  EXPECT_EQ(sdb.pool().size(), 1u);
}

TEST(SharedDatabaseTest, AnnotationLookups) {
  SharedDatabase sdb;
  ASSERT_TRUE(
      sdb.CreateRelation("T", Schema({Column{"x", ValueType::kInt64}})).ok());
  VarId a = *sdb.InsertTuple("T", Tuple{Value(5)});
  EXPECT_EQ(*sdb.AnnotationOf("T", size_t{0}), a);
  EXPECT_EQ(*sdb.AnnotationOf("T", Tuple{Value(5)}), a);
  EXPECT_FALSE(sdb.AnnotationOf("T", size_t{9}).ok());
  EXPECT_FALSE(sdb.AnnotationOf("T", Tuple{Value(6)}).ok());
  EXPECT_FALSE(sdb.AnnotationOf("U", size_t{0}).ok());
}

TEST(SharedDatabaseTest, ConsentedFragmentFiltersByValuation) {
  SharedDatabase sdb;
  ASSERT_TRUE(
      sdb.CreateRelation("T", Schema({Column{"x", ValueType::kInt64}})).ok());
  VarId a = *sdb.InsertTuple("T", Tuple{Value(1)});
  VarId b = *sdb.InsertTuple("T", Tuple{Value(2)});
  PartialValuation val;
  val.Set(a, true);
  val.Set(b, false);
  relational::Database frag = sdb.ConsentedFragment(val);
  EXPECT_TRUE(frag.RelationOrDie("T").Contains(Tuple{Value(1)}));
  EXPECT_FALSE(frag.RelationOrDie("T").Contains(Tuple{Value(2)}));
}

TEST(SharedDatabaseTest, ConsentedFragmentTreatsUnknownAsExcluded) {
  SharedDatabase sdb;
  ASSERT_TRUE(
      sdb.CreateRelation("T", Schema({Column{"x", ValueType::kInt64}})).ok());
  (void)*sdb.InsertTuple("T", Tuple{Value(1)});
  relational::Database frag = sdb.ConsentedFragment(PartialValuation());
  EXPECT_TRUE(frag.RelationOrDie("T").empty());
}

TEST(SharedDatabaseTest, RecruitmentFixtureShape) {
  SharedDatabase sdb = testing::RecruitmentDatabase();
  EXPECT_EQ(sdb.TotalTuples(), 12u);  // Table II
  EXPECT_EQ(sdb.pool().size(), 12u);
  EXPECT_EQ(sdb.pool().owner(*sdb.AnnotationOf("JobSeekers", size_t{2})),
            "Alice");
}

// --- Oracles ---------------------------------------------------------------------------

TEST(ValuationOracleTest, AnswersFromHiddenValuation) {
  PartialValuation hidden;
  hidden.Set(0, true);
  hidden.Set(1, false);
  ValuationOracle oracle(hidden);
  EXPECT_TRUE(oracle.Probe(0));
  EXPECT_FALSE(oracle.Probe(1));
  EXPECT_EQ(oracle.probe_count(), 2u);
}

TEST(ValuationOracleTest, RepeatedProbesCountOnce) {
  PartialValuation hidden;
  hidden.Set(0, true);
  ValuationOracle oracle(hidden);
  EXPECT_TRUE(oracle.Probe(0));
  EXPECT_TRUE(oracle.Probe(0));
  EXPECT_EQ(oracle.probe_count(), 1u);
  EXPECT_EQ(oracle.trace().size(), 1u);
}

TEST(ValuationOracleTest, TraceRecordsOrder) {
  PartialValuation hidden;
  hidden.Set(3, true);
  hidden.Set(1, false);
  ValuationOracle oracle(hidden);
  oracle.Probe(3);
  oracle.Probe(1);
  ASSERT_EQ(oracle.trace().size(), 2u);
  EXPECT_EQ(oracle.trace()[0], (std::pair<VarId, bool>{3, true}));
  EXPECT_EQ(oracle.trace()[1], (std::pair<VarId, bool>{1, false}));
}

TEST(CallbackOracleTest, MemoisesAnswers) {
  int calls = 0;
  CallbackOracle oracle([&calls](VarId x) {
    ++calls;
    return x % 2 == 0;
  });
  EXPECT_TRUE(oracle.Probe(2));
  EXPECT_TRUE(oracle.Probe(2));
  EXPECT_FALSE(oracle.Probe(3));
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(oracle.probe_count(), 2u);
}

// --- ReplayOracle ------------------------------------------------------------------

TEST(ReplayOracleTest, AnswersFromRecordedTrace) {
  ReplayOracle oracle({{3, true}, {1, false}});
  EXPECT_FALSE(oracle.Probe(1));
  EXPECT_TRUE(oracle.Probe(3));
  EXPECT_EQ(oracle.probe_count(), 2u);
}

TEST(ReplayOracleTest, ReproducesASessionExactly) {
  SharedDatabase sdb = testing::RecruitmentDatabase();
  core::ConsentManager manager(sdb);
  provenance::PartialValuation hidden(sdb.pool().size());
  Rng rng(8);
  for (VarId x = 0; x < sdb.pool().size(); ++x) {
    hidden.Set(x, rng.Bernoulli(0.5));
  }
  ValuationOracle original_oracle(hidden);
  core::SessionReport original =
      *manager.DecideAll(testing::RecruitmentQuerySql(), original_oracle);

  std::vector<std::pair<VarId, bool>> trace;
  for (const auto& rec : original.trace) {
    trace.emplace_back(rec.variable, rec.answer);
  }
  ReplayOracle replay(std::move(trace));
  core::SessionReport replayed =
      *manager.DecideAll(testing::RecruitmentQuerySql(), replay);
  ASSERT_EQ(replayed.num_probes, original.num_probes);
  for (size_t i = 0; i < original.trace.size(); ++i) {
    EXPECT_EQ(replayed.trace[i].variable, original.trace[i].variable);
    EXPECT_EQ(replayed.trace[i].answer, original.trace[i].answer);
  }
  ASSERT_EQ(replayed.tuples.size(), original.tuples.size());
  for (size_t i = 0; i < original.tuples.size(); ++i) {
    EXPECT_EQ(replayed.tuples[i].shareable, original.tuples[i].shareable);
  }
}

}  // namespace
}  // namespace consentdb::consent
