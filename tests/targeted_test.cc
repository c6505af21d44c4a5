// Targeted provenance: EvaluateAnnotated with a target tuple pushes the
// tuple's values down the plan as column constraints and must return the
// target with the same provenance as full evaluation.

#include <gtest/gtest.h>

#include "consentdb/core/consent_manager.h"
#include "consentdb/eval/evaluate.h"
#include "consentdb/provenance/normal_form.h"
#include "consentdb/query/parser.h"
#include "consentdb/util/rng.h"
#include "test_fixtures.h"

namespace consentdb::eval {
namespace {

using consent::SharedDatabase;
using provenance::BoolExprPtr;
using query::ParseQuery;
using query::PlanPtr;
using relational::Column;
using relational::Schema;
using relational::Tuple;
using relational::Value;
using relational::ValueType;

SharedDatabase SmallDb(Rng& rng, size_t rows) {
  SharedDatabase sdb;
  EXPECT_TRUE(sdb.CreateRelation("R", Schema({Column{"a", ValueType::kInt64},
                                              Column{"b", ValueType::kInt64}}))
                  .ok());
  EXPECT_TRUE(sdb.CreateRelation("S", Schema({Column{"b", ValueType::kInt64},
                                              Column{"c", ValueType::kInt64}}))
                  .ok());
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(sdb.InsertTuple("R", Tuple{Value(rng.UniformInt(0, 3)),
                                           Value(rng.UniformInt(0, 2))})
                    .ok());
    EXPECT_TRUE(sdb.InsertTuple("S", Tuple{Value(rng.UniformInt(0, 2)),
                                           Value(rng.UniformInt(0, 3))})
                    .ok());
  }
  return sdb;
}

const char* kQueries[] = {
    "SELECT * FROM R WHERE a > 0",
    "SELECT a FROM R",
    "SELECT b FROM R UNION SELECT b FROM S",
    "SELECT * FROM R, S WHERE R.b = S.b",
    "SELECT S.c FROM R, S WHERE R.b = S.b",
    "SELECT x.a FROM R x, R y WHERE x.b = y.b",
    "SELECT a FROM R WHERE b = 1 UNION SELECT c FROM S WHERE b = 0",
};

// --- A target's provenance agrees with full evaluation -------------------------

// The provenance of `tuple` from targeted evaluation, or the status.
Result<BoolExprPtr> Targeted(const PlanPtr& plan, const SharedDatabase& sdb,
                             const Tuple& tuple) {
  CONSENTDB_ASSIGN_OR_RETURN(AnnotatedRelation result,
                             EvaluateAnnotated(plan, sdb, nullptr, tuple));
  if (result.size() != 1 || !(result.tuple(0) == tuple)) {
    return Status::NotFound("targeted result is not the target alone");
  }
  return result.annotation(0);
}

class TargetedEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(TargetedEquivalenceTest, MatchesFullEvaluationForEveryResultTuple) {
  Rng rng(31000 + GetParam());
  SharedDatabase sdb = SmallDb(rng, 5);
  for (const char* sql : kQueries) {
    PlanPtr plan = *ParseQuery(sql);
    AnnotatedRelation full = *EvaluateAnnotated(plan, sdb);
    for (size_t i = 0; i < full.size(); ++i) {
      Result<BoolExprPtr> targeted = Targeted(plan, sdb, full.tuple(i));
      ASSERT_TRUE(targeted.ok())
          << sql << " tuple " << full.tuple(i).ToString() << ": "
          << targeted.status().ToString();
      EXPECT_TRUE(provenance::EquivalentByEnumeration(full.annotation(i),
                                                      *targeted))
          << sql << " tuple " << full.tuple(i).ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, TargetedEquivalenceTest,
                         ::testing::Range(0, 8));

// --- Constraints pushed through a projection ---------------------------------------

// A target on a projected column constrains only that input column of the
// product below: its provenance is the Or over the full join rows that
// agree with it there.
TEST(ConstrainedEvalTest, PartialConstraintsFilterTheResult) {
  Rng rng(5);
  SharedDatabase sdb = SmallDb(rng, 6);
  AnnotatedRelation join =
      *EvaluateAnnotated(*ParseQuery("SELECT * FROM R, S WHERE R.b = S.b"), sdb);
  PlanPtr plan = *ParseQuery("SELECT R.a FROM R, S WHERE R.b = S.b");
  for (int64_t a = 0; a <= 3; ++a) {
    std::vector<BoolExprPtr> rows;
    for (size_t i = 0; i < join.size(); ++i) {
      if (join.tuple(i).at(0) == Value(a)) rows.push_back(join.annotation(i));
    }
    AnnotatedRelation targeted =
        *EvaluateAnnotated(plan, sdb, nullptr, Tuple{Value(a)});
    ASSERT_EQ(targeted.size(), rows.empty() ? 0u : 1u) << "a=" << a;
    if (rows.empty()) continue;
    EXPECT_TRUE(provenance::EquivalentByEnumeration(
        provenance::BoolExpr::OrN(rows), targeted.annotation(0)))
        << "a=" << a;
  }
}

TEST(ConstrainedEvalTest, UnconstrainedMatchesFullEvaluation) {
  Rng rng(6);
  SharedDatabase sdb = SmallDb(rng, 4);
  PlanPtr plan = *ParseQuery("SELECT b FROM R UNION SELECT b FROM S");
  AnnotatedRelation full = *EvaluateAnnotated(plan, sdb);
  AnnotatedRelation open =
      *EvaluateAnnotated(plan, sdb, nullptr, std::nullopt);
  ASSERT_EQ(full.size(), open.size());
  for (size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full.tuple(i), open.tuple(i));
  }
}

TEST(ConstrainedEvalTest, RejectsWrongArity) {
  Rng rng(7);
  SharedDatabase sdb = SmallDb(rng, 2);
  PlanPtr plan = *ParseQuery("SELECT a FROM R");
  Result<AnnotatedRelation> r = EvaluateAnnotated(
      plan, sdb, nullptr, Tuple{Value(1), Value(2), Value(3)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// --- Single-tuple preparation -----------------------------------------------------------

TEST(TargetedTest, MissingTupleIsNotFound) {
  Rng rng(8);
  SharedDatabase sdb = SmallDb(rng, 3);
  PlanPtr plan = *ParseQuery("SELECT a FROM R");
  // Targeted evaluation of a tuple outside Q(D) is empty; preparation turns
  // that into NotFound.
  Result<AnnotatedRelation> empty =
      EvaluateAnnotated(plan, sdb, nullptr, Tuple{Value(999)});
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(empty->empty());
  // A projection repeating one input column cannot output two different
  // values there, even when each of them occurs in R.
  const Value present = EvaluateAnnotated(plan, sdb)->tuple(0).at(0);
  Result<AnnotatedRelation> conflicting = EvaluateAnnotated(
      *ParseQuery("SELECT a, a FROM R"), sdb, nullptr,
      Tuple{Value(999), present});
  ASSERT_TRUE(conflicting.ok()) << conflicting.status().ToString();
  EXPECT_TRUE(conflicting->empty());
  core::ConsentManager manager(sdb);
  Result<core::PreparedSession> r = manager.Prepare(plan, Tuple{Value(999)});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(TargetedTest, WrongArityIsInvalid) {
  Rng rng(9);
  SharedDatabase sdb = SmallDb(rng, 3);
  core::ConsentManager manager(sdb);
  Result<core::PreparedSession> r = manager.Prepare(
      *ParseQuery("SELECT a FROM R"), Tuple{Value(1), Value(2)});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(TargetedTest, RunningExampleTargeted) {
  SharedDatabase sdb = testing::RecruitmentDatabase();
  PlanPtr plan = *ParseQuery(testing::RecruitmentQuerySql());
  BoolExprPtr ann =
      *Targeted(plan, sdb, Tuple{Value("PennSolarExperts Ltd.")});
  provenance::Dnf dnf = *provenance::Dnf::FromExpr(ann);
  EXPECT_EQ(dnf.num_terms(), 3u);  // David, Ellen, Georgia hires
  EXPECT_EQ(dnf.MaxTermSize(), 4u);
}

}  // namespace
}  // namespace consentdb::eval
