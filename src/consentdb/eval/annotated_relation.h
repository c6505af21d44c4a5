// AnnotatedRelation: a relation whose tuples carry PosBool(C) annotations —
// the annotated query result Q(D̄) of Sec. III-A.

#ifndef CONSENTDB_EVAL_ANNOTATED_RELATION_H_
#define CONSENTDB_EVAL_ANNOTATED_RELATION_H_

#include <unordered_map>
#include <vector>

#include "consentdb/provenance/bool_expr.h"
#include "consentdb/relational/relation.h"

namespace consentdb::eval {

class AnnotatedRelation {
 public:
  AnnotatedRelation() = default;
  explicit AnnotatedRelation(relational::Schema schema)
      : schema_(std::move(schema)) {}

  const relational::Schema& schema() const { return schema_; }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }
  const std::vector<relational::Tuple>& tuples() const { return tuples_; }
  const relational::Tuple& tuple(size_t i) const;
  const provenance::BoolExprPtr& annotation(size_t i) const;

  // Set-semantics insert: a duplicate tuple's annotation is OR-ed into the
  // existing one (the union/projection rule of the provenance construction).
  void Insert(relational::Tuple t, provenance::BoolExprPtr annotation);

  std::optional<size_t> IndexOf(const relational::Tuple& t) const;

  // The plain relation (annotations dropped).
  relational::Relation ToRelation() const;

  // The tuples whose annotation evaluates to True under `val` — the
  // shareable fragment of Prop. III.2 (for a total valuation).
  relational::Relation ShareableFragment(
      const provenance::PartialValuation& val) const;

  std::string ToString(const provenance::VarNamer& namer = nullptr) const;

 private:
  relational::Schema schema_;
  std::vector<relational::Tuple> tuples_;
  std::vector<provenance::BoolExprPtr> annotations_;
  std::unordered_map<relational::Tuple, size_t> index_;
};

}  // namespace consentdb::eval

#endif  // CONSENTDB_EVAL_ANNOTATED_RELATION_H_
