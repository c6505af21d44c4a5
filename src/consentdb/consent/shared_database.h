// SharedDatabase: a relational database where every tuple is annotated by a
// unique consent variable (Def. II.1), owned by a peer.

#ifndef CONSENTDB_CONSENT_SHARED_DATABASE_H_
#define CONSENTDB_CONSENT_SHARED_DATABASE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "consentdb/consent/variable_pool.h"
#include "consentdb/relational/database.h"
#include "consentdb/util/result.h"

namespace consentdb::consent {

class SharedDatabase {
 public:
  SharedDatabase() = default;

  // Access to the underlying plain database (for query evaluation).
  const relational::Database& database() const { return db_; }
  const VariablePool& pool() const { return pool_; }
  VariablePool& mutable_pool() { return pool_; }

  [[nodiscard]] Status CreateRelation(const std::string& name, relational::Schema schema);

  // Inserts a tuple and annotates it with a fresh consent variable named
  // "<relation>#<index>", owned by `owner`, with prior `probability`.
  // Returns the allocated variable. Re-inserting an existing tuple keeps its
  // original annotation (L is one-to-one on tuples).
  [[nodiscard]] Result<VarId> InsertTuple(const std::string& relation, relational::Tuple t,
                            std::string owner = "", double probability = 0.5);

  // Inserts a tuple annotated by an EXISTING consent variable — a "block"
  // of tuples whose consent is given or withheld uniformly (Sec. VII,
  // "Beyond unique annotations"). The annotation function is then no longer
  // one-to-one, so variables co-occur in provenance expressions and the
  // read-once guarantees of Table I no longer apply syntactically; the
  // runtime provenance checks still select a correct algorithm.
  [[nodiscard]] Status InsertTupleInBlock(const std::string& relation, relational::Tuple t,
                            VarId block_variable);

  // The annotation L(t) of the `index`-th tuple of `relation`.
  [[nodiscard]] Result<VarId> AnnotationOf(const std::string& relation, size_t index) const;
  // The annotation of a tuple by value.
  [[nodiscard]] Result<VarId> AnnotationOf(const std::string& relation,
                             const relational::Tuple& t) const;

  // All annotations of `relation`, indexed like its tuples() vector.
  [[nodiscard]] Result<const std::vector<VarId>*> Annotations(
      const std::string& relation) const;

  // The sub-database D' of Def. II.6: tuples whose annotation is True under
  // `val` (variables not set are treated as False — no consent, no sharing).
  relational::Database ConsentedFragment(
      const provenance::PartialValuation& val) const;

  // Number of annotated tuples across all relations.
  size_t TotalTuples() const { return db_.TotalTuples(); }

  // Monotone content-version counter, bumped by every mutation that can
  // change a query result or its provenance annotations (CreateRelation and
  // actual tuple inserts). Pool metadata edits (probabilities, owners) do
  // NOT bump it: they affect strategy choices, which are never cached, but
  // not the annotated evaluation the session engine's provenance cache
  // stores. Cache entries stamped with a version are invalidated by any
  // mutation.
  uint64_t version() const { return version_; }

 private:
  relational::Database db_;
  VariablePool pool_;
  // relation name -> per-tuple-index consent variable
  std::unordered_map<std::string, std::vector<VarId>> annotations_;
  uint64_t version_ = 0;
};

}  // namespace consentdb::consent

#endif  // CONSENTDB_CONSENT_SHARED_DATABASE_H_
