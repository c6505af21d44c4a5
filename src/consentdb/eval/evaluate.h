// SPJU plan evaluation: plain (standard set semantics) and annotated
// (Boolean provenance tracking, the construction of Sec. III-A).
//
// Both evaluators are the naive nested-loop implementations — the paper's
// complexity bound O(|D|^|Q|) of Prop. III.3 — which is the right trade-off
// here: probe counts, not query latency, are the optimisation target.

#ifndef CONSENTDB_EVAL_EVALUATE_H_
#define CONSENTDB_EVAL_EVALUATE_H_

#include <optional>

#include "consentdb/consent/shared_database.h"
#include "consentdb/eval/annotated_relation.h"
#include "consentdb/obs/metrics.h"
#include "consentdb/query/plan.h"
#include "consentdb/util/result.h"

namespace consentdb::eval {

// Standard evaluation of `plan` over a plain database.
[[nodiscard]] Result<relational::Relation> Evaluate(const query::PlanPtr& plan,
                                      const relational::Database& db);

// Provenance-tracked evaluation of `plan` over a shared database: every
// output tuple is annotated with a positive Boolean expression over the
// consent variables of the input tuples it derives from. With `metrics`
// attached, records the provenance build time (eval.annotate_ns) and the
// output size (eval.output_tuples).
//
// With a `target` tuple, only that tuple's provenance is computed, without
// evaluating the whole query (proof of Prop. IV.11): its values are pushed
// down the plan as per-column equality constraints, so scans surface only
// matching rows, products split the constraints between their sides,
// projections translate them to input columns and unions forward them.
// The result then holds the target alone, or nothing when the target is
// not in Q(D); a target of the wrong arity is InvalidArgument.
[[nodiscard]] Result<AnnotatedRelation> EvaluateAnnotated(
    const query::PlanPtr& plan, const consent::SharedDatabase& sdb,
    obs::MetricsRegistry* metrics = nullptr,
    const std::optional<relational::Tuple>& target = std::nullopt);

// Def. II.6 implemented literally: evaluates `plan` over the sub-database of
// consented tuples. Used to cross-check EvaluateAnnotated (Prop. III.2).
[[nodiscard]] Result<relational::Relation> EvaluateOverConsentedFragment(
    const query::PlanPtr& plan, const consent::SharedDatabase& sdb,
    const provenance::PartialValuation& val);

}  // namespace consentdb::eval

#endif  // CONSENTDB_EVAL_EVALUATE_H_
