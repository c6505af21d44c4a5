#include "consentdb/eval/evaluate.h"

#include <functional>
#include <optional>

#include "consentdb/util/check.h"

namespace consentdb::eval {

using consent::SharedDatabase;
using provenance::BoolExpr;
using provenance::BoolExprPtr;
using query::Operand;
using query::Plan;
using query::PlanKind;
using query::PlanPtr;
using query::PredicatePtr;
using relational::Database;
using relational::Relation;
using relational::Schema;
using relational::Tuple;
using relational::Value;

namespace {

// Per-output-column equality constraints (nullopt = unconstrained), pushed
// down the plan from a target tuple.
using ColumnConstraints = std::vector<std::optional<Value>>;

bool Matches(const Tuple& t, const ColumnConstraints& constraints) {
  for (size_t i = 0; i < constraints.size(); ++i) {
    if (constraints[i].has_value() && !(t.at(i) == *constraints[i])) {
      return false;
    }
  }
  return true;
}

// Resolves projection columns against the child schema.
Result<std::vector<size_t>> ProjectionIndexes(const Plan& plan,
                                              const Schema& child_schema) {
  std::vector<size_t> indexes;
  indexes.reserve(plan.columns().size());
  for (const std::string& col : plan.columns()) {
    Operand op = Operand::Column(col);
    CONSENTDB_RETURN_IF_ERROR(op.Bind(child_schema));
    indexes.push_back(op.column_index());
  }
  return indexes;
}

using LeafAnnotation = std::function<Result<BoolExprPtr>(
    const std::string& relation, size_t tuple_index)>;

// The single recursive evaluator, generic over the annotation bookkeeping so
// the plain and annotated paths cannot drift apart. `leaf` produces the
// annotation of a scanned base tuple. Non-null `constraints` (sized like
// the plan's output schema) restrict the result to the tuples satisfying
// them; null leaves the evaluation unconstrained and computes no schema or
// constraint split on the way down.
Result<AnnotatedRelation> EvaluateImpl(const PlanPtr& plan,
                                       const Database& db,
                                       const LeafAnnotation& leaf,
                                       const ColumnConstraints* constraints) {
  CONSENTDB_CHECK(plan != nullptr, "null plan");
  switch (plan->kind()) {
    case PlanKind::kScan: {
      CONSENTDB_ASSIGN_OR_RETURN(Schema schema, plan->OutputSchema(db));
      CONSENTDB_ASSIGN_OR_RETURN(const Relation* rel,
                                 db.GetRelation(plan->relation()));
      AnnotatedRelation out(std::move(schema));
      for (size_t i = 0; i < rel->size(); ++i) {
        if (constraints != nullptr && !Matches(rel->tuple(i), *constraints)) {
          continue;
        }
        CONSENTDB_ASSIGN_OR_RETURN(BoolExprPtr ann,
                                   leaf(plan->relation(), i));
        out.Insert(rel->tuple(i), std::move(ann));
      }
      return out;
    }
    case PlanKind::kSelect: {
      CONSENTDB_ASSIGN_OR_RETURN(
          AnnotatedRelation child,
          EvaluateImpl(plan->child(0), db, leaf, constraints));
      CONSENTDB_ASSIGN_OR_RETURN(PredicatePtr bound,
                                 plan->predicate()->Bind(child.schema()));
      AnnotatedRelation out(child.schema());
      for (size_t i = 0; i < child.size(); ++i) {
        if (bound->Evaluate(child.tuple(i))) {
          out.Insert(child.tuple(i), child.annotation(i));
        }
      }
      return out;
    }
    case PlanKind::kProject: {
      // Translate output-column constraints to the projected input columns.
      ColumnConstraints pushed;
      if (constraints != nullptr) {
        CONSENTDB_ASSIGN_OR_RETURN(Schema child_schema,
                                   plan->child(0)->OutputSchema(db));
        CONSENTDB_ASSIGN_OR_RETURN(std::vector<size_t> indexes,
                                   ProjectionIndexes(*plan, child_schema));
        pushed.resize(child_schema.num_columns());
        for (size_t i = 0; i < indexes.size(); ++i) {
          const std::optional<Value>& wanted = (*constraints)[i];
          if (!wanted.has_value()) continue;
          // Two projected outputs can reference the same input column; the
          // constraints must then agree or the result is empty.
          std::optional<Value>& slot = pushed[indexes[i]];
          if (slot.has_value() && !(*slot == *wanted)) {
            CONSENTDB_ASSIGN_OR_RETURN(Schema schema, plan->OutputSchema(db));
            return AnnotatedRelation(std::move(schema));
          }
          slot = wanted;
        }
      }
      CONSENTDB_ASSIGN_OR_RETURN(
          AnnotatedRelation child,
          EvaluateImpl(plan->child(0), db, leaf,
                       constraints != nullptr ? &pushed : nullptr));
      CONSENTDB_ASSIGN_OR_RETURN(Schema schema, plan->OutputSchema(db));
      CONSENTDB_ASSIGN_OR_RETURN(std::vector<size_t> indexes,
                                 ProjectionIndexes(*plan, child.schema()));
      AnnotatedRelation out(std::move(schema));
      for (size_t i = 0; i < child.size(); ++i) {
        out.Insert(child.tuple(i).Project(indexes), child.annotation(i));
      }
      return out;
    }
    case PlanKind::kProduct: {
      // Split the constraints at the left input's width.
      ColumnConstraints left_constraints;
      ColumnConstraints right_constraints;
      if (constraints != nullptr) {
        CONSENTDB_ASSIGN_OR_RETURN(Schema left_schema,
                                   plan->child(0)->OutputSchema(db));
        auto split = constraints->begin() + left_schema.num_columns();
        left_constraints.assign(constraints->begin(), split);
        right_constraints.assign(split, constraints->end());
      }
      CONSENTDB_ASSIGN_OR_RETURN(
          AnnotatedRelation left,
          EvaluateImpl(plan->child(0), db, leaf,
                       constraints != nullptr ? &left_constraints : nullptr));
      CONSENTDB_ASSIGN_OR_RETURN(
          AnnotatedRelation right,
          EvaluateImpl(plan->child(1), db, leaf,
                       constraints != nullptr ? &right_constraints : nullptr));
      CONSENTDB_ASSIGN_OR_RETURN(Schema schema, plan->OutputSchema(db));
      AnnotatedRelation out(std::move(schema));
      for (size_t i = 0; i < left.size(); ++i) {
        for (size_t j = 0; j < right.size(); ++j) {
          out.Insert(left.tuple(i).Concat(right.tuple(j)),
                     BoolExpr::And(left.annotation(i), right.annotation(j)));
        }
      }
      return out;
    }
    case PlanKind::kUnion: {
      CONSENTDB_ASSIGN_OR_RETURN(Schema schema, plan->OutputSchema(db));
      AnnotatedRelation out(std::move(schema));
      for (const PlanPtr& c : plan->children()) {
        // Branch schemas agree positionally (types), so the constraints
        // forward unchanged.
        CONSENTDB_ASSIGN_OR_RETURN(AnnotatedRelation child,
                                   EvaluateImpl(c, db, leaf, constraints));
        for (size_t i = 0; i < child.size(); ++i) {
          out.Insert(child.tuple(i), child.annotation(i));
        }
      }
      return out;
    }
  }
  return Status::Internal("unreachable plan kind");
}

}  // namespace

Result<Relation> Evaluate(const PlanPtr& plan, const Database& db) {
  CONSENTDB_ASSIGN_OR_RETURN(
      AnnotatedRelation annotated,
      EvaluateImpl(
          plan, db,
          [](const std::string&, size_t) {
            return Result<BoolExprPtr>(BoolExpr::True());
          },
          /*constraints=*/nullptr));
  return annotated.ToRelation();
}

Result<AnnotatedRelation> EvaluateAnnotated(
    const PlanPtr& plan, const SharedDatabase& sdb,
    obs::MetricsRegistry* metrics, const std::optional<Tuple>& target) {
  const Database& db = sdb.database();
  obs::ScopedTimer timer(obs::MaybeHistogram(metrics, "eval.annotate_ns"));
  ColumnConstraints constraints;
  if (target.has_value()) {
    CONSENTDB_ASSIGN_OR_RETURN(Schema schema, plan->OutputSchema(db));
    if (target->size() != schema.num_columns()) {
      return Status::InvalidArgument("tuple arity does not match the query");
    }
    constraints.assign(target->values().begin(), target->values().end());
  }
  Result<AnnotatedRelation> annotated = EvaluateImpl(
      plan, db,
      [&sdb](const std::string& relation,
             size_t tuple_index) -> Result<BoolExprPtr> {
        CONSENTDB_ASSIGN_OR_RETURN(provenance::VarId var,
                                   sdb.AnnotationOf(relation, tuple_index));
        return BoolExpr::Var(var);
      },
      target.has_value() ? &constraints : nullptr);
  if (metrics != nullptr && annotated.ok()) {
    obs::Increment(metrics, "eval.output_tuples", annotated->size());
  }
  return annotated;
}

Result<Relation> EvaluateOverConsentedFragment(
    const PlanPtr& plan, const SharedDatabase& sdb,
    const provenance::PartialValuation& val) {
  Database consented = sdb.ConsentedFragment(val);
  return Evaluate(plan, consented);
}

}  // namespace consentdb::eval
