// Monotone normal forms: Dnf (disjunction of conjunctive terms) and Cnf
// (conjunction of disjunctive clauses), with absorption-based minimisation,
// Kleene evaluation, conversions and read-once detection.
//
// Conventions (standard for monotone formulas):
//   * A Dnf with no terms is the constant False; a Dnf containing the empty
//     term is the constant True.
//   * A Cnf with no clauses is the constant True; a Cnf containing the empty
//     clause is the constant False.

#ifndef CONSENTDB_PROVENANCE_NORMAL_FORM_H_
#define CONSENTDB_PROVENANCE_NORMAL_FORM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "consentdb/provenance/bool_expr.h"
#include "consentdb/provenance/var_set.h"
#include "consentdb/util/result.h"

namespace consentdb::provenance {

// Limits applied by conversions to normal form: the number of terms/clauses
// may blow up exponentially (e.g. CNF of a projection-unlimited provenance),
// so every conversion takes a budget and fails with ResourceExhausted when
// exceeded — callers (the Q-value applicability check, Fig. 3b) treat that
// as "not applicable", never as a crash.
struct NormalFormLimits {
  size_t max_sets = 100000;  // max number of terms/clauses at any point

  static NormalFormLimits Unlimited() {
    return NormalFormLimits{static_cast<size_t>(-1)};
  }
};

class Dnf {
 public:
  Dnf() = default;  // constant False
  explicit Dnf(std::vector<VarSet> terms, bool absorb = true);

  static Dnf ConstantFalse() { return Dnf(); }
  static Dnf ConstantTrue() { return Dnf({VarSet{}}); }

  // Flattens a positive Boolean expression into minimal monotone DNF
  // (absorption applied throughout). Fails when the term budget is exceeded.
  [[nodiscard]] static Result<Dnf> FromExpr(const BoolExprPtr& expr,
                              NormalFormLimits limits = {});

  const std::vector<VarSet>& terms() const { return terms_; }
  size_t num_terms() const { return terms_.size(); }
  // Total number of variable occurrences (the paper's "provenance size").
  size_t TotalLiterals() const;
  // Largest term size — the k of the k-DNF (Def. IV.1).
  size_t MaxTermSize() const;

  bool IsConstantFalse() const { return terms_.empty(); }
  bool IsConstantTrue() const {
    return terms_.size() == 1 && terms_[0].empty();
  }

  // All distinct variables, sorted.
  VarSet Vars() const;

  // Kleene evaluation: True if some term is all-True, False if every term
  // has a False variable, else Unknown.
  Truth Evaluate(const PartialValuation& val) const;

  // The residual formula after substituting known values: False terms are
  // dropped, True variables are removed from terms; absorption re-applied.
  Dnf Simplify(const PartialValuation& val) const;

  // True when no variable occurs in two different terms (read-once within
  // this formula — "per-tuple read-once" when applied tuple-wise).
  bool IsReadOnce() const;

  // Probability that the formula evaluates to True when each variable x is
  // independently True with probability pi[x]. Exact for read-once formulas;
  // computed by inclusion-exclusion otherwise (exponential in #terms, capped
  // by CONSENTDB_CHECK at 20 terms — use for tests/small inputs only).
  double TrueProbability(const std::vector<double>& pi) const;

  BoolExprPtr ToExpr() const;
  std::string ToString() const;

  friend bool operator==(const Dnf& a, const Dnf& b) {
    return a.terms_ == b.terms_;
  }

 private:
  // Sorted minimal (antichain) list of terms.
  std::vector<VarSet> terms_;
};

class Cnf {
 public:
  Cnf() = default;  // constant True
  explicit Cnf(std::vector<VarSet> clauses, bool absorb = true);

  static Cnf ConstantTrue() { return Cnf(); }
  static Cnf ConstantFalse() { return Cnf({VarSet{}}); }

  [[nodiscard]] static Result<Cnf> FromExpr(const BoolExprPtr& expr,
                              NormalFormLimits limits = {});

  const std::vector<VarSet>& clauses() const { return clauses_; }
  size_t num_clauses() const { return clauses_.size(); }
  size_t TotalLiterals() const;

  bool IsConstantTrue() const { return clauses_.empty(); }
  bool IsConstantFalse() const {
    return clauses_.size() == 1 && clauses_[0].empty();
  }

  VarSet Vars() const;
  Truth Evaluate(const PartialValuation& val) const;

  BoolExprPtr ToExpr() const;
  std::string ToString() const;

  friend bool operator==(const Cnf& a, const Cnf& b) {
    return a.clauses_ == b.clauses_;
  }

 private:
  std::vector<VarSet> clauses_;
};

// Converts a monotone DNF to the equivalent minimal monotone CNF by
// distribution with absorption (the "brute force" of Prop. IV.11's proof).
// Fails with ResourceExhausted when the clause budget is exceeded.
[[nodiscard]] Result<Cnf> DnfToCnf(const Dnf& dnf, NormalFormLimits limits = {});

// Dual direction, used by tests.
[[nodiscard]] Result<Dnf> CnfToDnf(const Cnf& cnf, NormalFormLimits limits = {});

// --- Bit-matrix kernel -------------------------------------------------------
//
// DnfToCnf and CnfToDnf are thin wrappers over this kernel; callers that
// already hold their sets as bits (EvaluationState's residual term masks)
// use it directly. A family of sets lives over a dense local universe of
// bits — for the tie-breaks below to match the VarSet conversions, bit i is
// the i-th smallest variable of the universe — as a flat row-major bit
// matrix, so subset checks, pairwise unions and pivot counts are
// word-parallel AND/OR/POPCNT.

struct MaskFamily {
  size_t words = 1;            // words per row (fixed for a whole transpose)
  size_t count = 0;            // number of rows
  std::vector<uint64_t> bits;  // count * words, row-major

  const uint64_t* row(size_t i) const { return bits.data() + i * words; }
  uint64_t* row(size_t i) { return bits.data() + i * words; }
  // Number of set bits (the set's size) of row i.
  size_t RowSize(size_t i) const {
    size_t n = 0;
    for (size_t w = 0; w < words; ++w) n += __builtin_popcountll(row(i)[w]);
    return n;
  }

  void PushRow(const uint64_t* r) {
    bits.insert(bits.end(), r, r + words);
    ++count;
  }
  void PushEmptyRow() {
    bits.insert(bits.end(), words, 0);
    ++count;
  }
  void PushSingleton(size_t bit) {
    PushEmptyRow();
    row(count - 1)[bit / 64] = uint64_t{1} << (bit % 64);
  }
};

// Absorption on the bit matrix: keeps only the minimal rows (one copy of
// each). The surviving antichain is unique as a set; rows come out in
// ascending popcount order, ties in input order.
void MinimizeMasks(MaskFamily* fam);

// Dual transposition: given a monotone formula as a minimal family of rows
// over `num_bits` bits, computes the family of its dual normal form (the
// minimal hitting sets) — DNF terms to CNF clauses and back. The result is
// a minimal antichain in recursion order, and both it and every budget
// check along the way depend only on the set of input rows, not on their
// order. Fails with ResourceExhausted when a family exceeds the budget.
[[nodiscard]] Result<MaskFamily> TransposeMasked(const MaskFamily& fam,
                                                 size_t num_bits,
                                                 const NormalFormLimits& limits);

}  // namespace consentdb::provenance

#endif  // CONSENTDB_PROVENANCE_NORMAL_FORM_H_
