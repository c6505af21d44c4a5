#include "consentdb/provenance/normal_form.h"

#include <algorithm>
#include <cstdint>
#include <set>

#include "consentdb/util/check.h"
#include "consentdb/util/string_util.h"

namespace consentdb::provenance {

namespace {

// Keeps only the minimal sets (absorption: a monotone formula is unchanged
// by dropping any term/clause that is a superset of another), then sorts for
// canonical order.
void Minimize(std::vector<VarSet>* sets) {
  std::sort(sets->begin(), sets->end(), [](const VarSet& a, const VarSet& b) {
    if (a.size() != b.size()) return a.size() < b.size();
    return a < b;
  });
  std::vector<VarSet> kept;
  for (VarSet& candidate : *sets) {
    bool absorbed = false;
    for (const VarSet& k : kept) {
      if (k.SubsetOf(candidate)) {
        absorbed = true;
        break;
      }
    }
    if (!absorbed) kept.push_back(std::move(candidate));
  }
  // Remove exact duplicates introduced by the move above (SubsetOf covers
  // equality, so duplicates are already absorbed; nothing further needed).
  std::sort(kept.begin(), kept.end());
  *sets = std::move(kept);
}

Status BudgetExceeded(size_t budget) {
  return Status::ResourceExhausted(
      "normal form exceeds the term/clause budget of " +
      std::to_string(budget));
}

// Shared recursion for expression -> normal form. `disjunctive_kind` is the
// operator that maps to set-union of the result lists (kOr for DNF, kAnd for
// CNF); the other operator maps to the pairwise-union cross product.
Result<std::vector<VarSet>> ExprToSets(const BoolExprPtr& expr,
                                       ExprKind disjunctive_kind,
                                       const NormalFormLimits& limits) {
  // Constants: for DNF (disjunctive_kind == kOr), False -> no terms and
  // True -> the empty term; for CNF it is exactly dual.
  bool constant_is_empty_list = disjunctive_kind == ExprKind::kOr
                                    ? expr->kind() == ExprKind::kFalse
                                    : expr->kind() == ExprKind::kTrue;
  if (expr->is_constant()) {
    if (constant_is_empty_list) return std::vector<VarSet>{};
    return std::vector<VarSet>{VarSet{}};
  }
  if (expr->kind() == ExprKind::kVar) {
    return std::vector<VarSet>{VarSet{expr->var()}};
  }
  // Recurse on children.
  std::vector<std::vector<VarSet>> child_sets;
  child_sets.reserve(expr->children().size());
  for (const BoolExprPtr& c : expr->children()) {
    CONSENTDB_ASSIGN_OR_RETURN(std::vector<VarSet> sets,
                               ExprToSets(c, disjunctive_kind, limits));
    child_sets.push_back(std::move(sets));
  }
  if (expr->kind() == disjunctive_kind) {
    // Union of lists.
    std::vector<VarSet> out;
    for (std::vector<VarSet>& sets : child_sets) {
      out.insert(out.end(), std::make_move_iterator(sets.begin()),
                 std::make_move_iterator(sets.end()));
      if (out.size() > limits.max_sets) return BudgetExceeded(limits.max_sets);
    }
    Minimize(&out);
    return out;
  }
  // Cross product of lists (distribution).
  std::vector<VarSet> acc{VarSet{}};
  for (const std::vector<VarSet>& sets : child_sets) {
    std::vector<VarSet> next;
    next.reserve(acc.size() * std::max<size_t>(sets.size(), 1));
    for (const VarSet& a : acc) {
      for (const VarSet& b : sets) {
        next.push_back(a.Union(b));
        if (next.size() > limits.max_sets) {
          return BudgetExceeded(limits.max_sets);
        }
      }
    }
    Minimize(&next);
    acc = std::move(next);
    if (acc.empty()) break;  // child list empty => whole product empty
  }
  return acc;
}

VarSet UnionOfAll(const std::vector<VarSet>& sets) {
  std::set<VarId> vars;
  for (const VarSet& s : sets) vars.insert(s.begin(), s.end());
  return VarSet(std::vector<VarId>(vars.begin(), vars.end()));
}

size_t SumOfSizes(const std::vector<VarSet>& sets) {
  size_t n = 0;
  for (const VarSet& s : sets) n += s.size();
  return n;
}

bool NoSharedVars(const std::vector<VarSet>& sets) {
  std::set<VarId> seen;
  for (const VarSet& s : sets) {
    for (VarId x : s) {
      if (!seen.insert(x).second) return false;
    }
  }
  return true;
}

// --- Bit-matrix transposition ----------------------------------------------
//
// Transposition works over a dense local universe: the distinct variables of
// the input family, sorted ascending, each mapped to one bit (MaskFamily in
// the header). The inner-loop operations — subset checks during absorption,
// pairwise unions during merging, pivot frequency counts — are word-parallel
// AND/OR/POPCNT instead of per-element walks over std::vector<VarId>.

bool RowIsZero(const uint64_t* r, size_t words) {
  for (size_t w = 0; w < words; ++w) {
    if (r[w] != 0) return false;
  }
  return true;
}

// True iff a ⊆ b.
bool RowSubsetOf(const uint64_t* a, const uint64_t* b, size_t words) {
  for (size_t w = 0; w < words; ++w) {
    if ((a[w] & ~b[w]) != 0) return false;
  }
  return true;
}

}  // namespace

void MinimizeMasks(MaskFamily* fam) {
  const size_t words = fam->words;
  std::vector<uint32_t> order(fam->count);
  std::vector<uint32_t> sizes(fam->count);
  for (uint32_t i = 0; i < fam->count; ++i) {
    order[i] = i;
    sizes[i] = static_cast<uint32_t>(fam->RowSize(i));
  }
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return sizes[a] < sizes[b];
  });
  MaskFamily kept;
  kept.words = words;
  kept.bits.reserve(fam->bits.size());
  for (uint32_t i : order) {
    const uint64_t* cand = fam->row(i);
    bool absorbed = false;
    for (size_t k = 0; k < kept.count; ++k) {
      // Every kept row has popcount <= cand's, so ⊆ covers equality too.
      if (RowSubsetOf(kept.row(k), cand, words)) {
        absorbed = true;
        break;
      }
    }
    if (!absorbed) kept.PushRow(cand);
  }
  *fam = std::move(kept);
}

namespace {

// Merges two families of the dual form: dual(A ∨ B) = minimal pairwise
// unions (bitwise ORs) of dual(A) and dual(B). Minimises periodically so the
// working set stays near the size of the true (minimal) result; only the
// minimised size counts against the budget.
Result<MaskFamily> MergeDualsMasked(const MaskFamily& left,
                                    const MaskFamily& right,
                                    const NormalFormLimits& limits) {
  const size_t words = left.words;
  // Disjoint variable supports (e.g. read-once formulas): pairwise unions
  // of two antichains over disjoint variables are again an antichain, so
  // minimisation is a no-op — emit directly under the budget.
  std::vector<uint64_t> support_left(words, 0), support_right(words, 0);
  for (size_t i = 0; i < left.count; ++i) {
    for (size_t w = 0; w < words; ++w) support_left[w] |= left.row(i)[w];
  }
  for (size_t i = 0; i < right.count; ++i) {
    for (size_t w = 0; w < words; ++w) support_right[w] |= right.row(i)[w];
  }
  bool disjoint = true;
  for (size_t w = 0; w < words; ++w) {
    if ((support_left[w] & support_right[w]) != 0) {
      disjoint = false;
      break;
    }
  }
  MaskFamily out;
  out.words = words;
  if (disjoint) {
    if (left.count * right.count > limits.max_sets) {
      return BudgetExceeded(limits.max_sets);
    }
    out.bits.reserve(left.count * right.count * words);
    for (size_t i = 0; i < left.count; ++i) {
      for (size_t j = 0; j < right.count; ++j) {
        out.PushEmptyRow();
        uint64_t* r = out.row(out.count - 1);
        for (size_t w = 0; w < words; ++w) {
          r[w] = left.row(i)[w] | right.row(j)[w];
        }
      }
    }
    return out;
  }
  size_t threshold = std::max<size_t>(4096, 4 * (left.count + right.count));
  for (size_t i = 0; i < left.count; ++i) {
    for (size_t j = 0; j < right.count; ++j) {
      out.PushEmptyRow();
      uint64_t* r = out.row(out.count - 1);
      for (size_t w = 0; w < words; ++w) {
        r[w] = left.row(i)[w] | right.row(j)[w];
      }
    }
    if (out.count > threshold) {
      MinimizeMasks(&out);
      if (out.count > limits.max_sets) return BudgetExceeded(limits.max_sets);
      // Avoid thrashing: keep the threshold well above the minimal size.
      threshold = std::max(threshold, out.count * 2);
    }
  }
  MinimizeMasks(&out);
  if (out.count > limits.max_sets) return BudgetExceeded(limits.max_sets);
  return out;
}

}  // namespace

// Recursion pivots on the most frequent variable x, factoring
//   ∨ rows  =  (x ∧ A) ∨ R,   A = {t \ {x} : x ∈ t},  R = {t : x ∉ t},
// so that  dual(rows) = merge({{x}} ∪ dual(A), dual(R)).
// On structured inputs (e.g. the psi family, whose DNF has 2^k terms but a
// linear-size CNF) the factorisation follows the formula structure and the
// intermediate families stay near the size of the final result; a midpoint
// divide-and-conquer or one-term-at-a-time expansion blows up instead. The
// inherent worst case (read-once inputs) stays exponential and is caught by
// the budget.
Result<MaskFamily> TransposeMasked(const MaskFamily& fam, size_t num_bits,
                                   const NormalFormLimits& limits) {
  const size_t words = fam.words;
  MaskFamily out;
  out.words = words;
  // No rows: the constant False as a DNF; dual is {{}} (the neutral element
  // of the merge). An all-zero row among the inputs: the constant True;
  // dual is {} (the absorbing element of the merge).
  if (fam.count == 0) {
    out.PushEmptyRow();
    return out;
  }
  for (size_t i = 0; i < fam.count; ++i) {
    if (RowIsZero(fam.row(i), words)) return out;
  }
  if (fam.count == 1) {
    // Dual of a single conjunction x1∧...∧xk is (x1)∧...∧(xk) — singletons.
    const uint64_t* r = fam.row(0);
    for (size_t w = 0; w < words; ++w) {
      uint64_t word = r[w];
      while (word != 0) {
        size_t bit = w * 64 + static_cast<size_t>(__builtin_ctzll(word));
        out.PushSingleton(bit);
        word &= word - 1;
      }
    }
    return out;
  }
  // Pick the most frequent variable (ties: smallest id, for determinism —
  // bit order is ascending VarId order because the universe is sorted).
  std::vector<uint32_t> counts(num_bits, 0);
  for (size_t i = 0; i < fam.count; ++i) {
    const uint64_t* r = fam.row(i);
    for (size_t w = 0; w < words; ++w) {
      uint64_t word = r[w];
      while (word != 0) {
        ++counts[w * 64 + static_cast<size_t>(__builtin_ctzll(word))];
        word &= word - 1;
      }
    }
  }
  size_t pivot = 0;
  uint32_t best = 0;
  for (size_t bit = 0; bit < num_bits; ++bit) {
    if (counts[bit] > best) {
      pivot = bit;
      best = counts[bit];
    }
  }
  const size_t pivot_word = pivot / 64;
  const uint64_t pivot_mask = uint64_t{1} << (pivot % 64);
  MaskFamily with_pivot;  // A: pivot stripped
  with_pivot.words = words;
  MaskFamily without_pivot;  // R
  without_pivot.words = words;
  for (size_t i = 0; i < fam.count; ++i) {
    const uint64_t* r = fam.row(i);
    if ((r[pivot_word] & pivot_mask) != 0) {
      with_pivot.PushRow(r);
      with_pivot.row(with_pivot.count - 1)[pivot_word] &= ~pivot_mask;
    } else {
      without_pivot.PushRow(r);
    }
  }
  CONSENTDB_ASSIGN_OR_RETURN(MaskFamily dual_a,
                             TransposeMasked(with_pivot, num_bits, limits));
  // dual(x ∧ A) = {{x}} ∪ dual(A); minimal since A never mentions x.
  MaskFamily dual_xa;
  dual_xa.words = words;
  dual_xa.bits.reserve((dual_a.count + 1) * words);
  dual_xa.PushSingleton(pivot);
  for (size_t i = 0; i < dual_a.count; ++i) dual_xa.PushRow(dual_a.row(i));
  if (without_pivot.count == 0) return dual_xa;
  CONSENTDB_ASSIGN_OR_RETURN(MaskFamily dual_r,
                             TransposeMasked(without_pivot, num_bits, limits));
  return MergeDualsMasked(dual_xa, dual_r, limits);
}

namespace {

// Converts between the VarSet and bit-matrix representations and runs the
// masked transpose. The result is a minimal antichain but in recursion
// order, not canonical order — callers re-sort (Dnf/Cnf constructors do).
Result<std::vector<VarSet>> Transpose(const std::vector<VarSet>& sets,
                                      const NormalFormLimits& limits) {
  // Dense local universe: distinct input variables, ascending.
  std::vector<VarId> universe;
  universe.reserve(SumOfSizes(sets));
  for (const VarSet& s : sets) {
    universe.insert(universe.end(), s.begin(), s.end());
  }
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()),
                 universe.end());
  MaskFamily fam;
  fam.words = std::max<size_t>(1, (universe.size() + 63) / 64);
  fam.bits.reserve(sets.size() * fam.words);
  for (const VarSet& s : sets) {
    fam.PushEmptyRow();
    uint64_t* r = fam.row(fam.count - 1);
    for (VarId x : s) {
      size_t bit = static_cast<size_t>(
          std::lower_bound(universe.begin(), universe.end(), x) -
          universe.begin());
      r[bit / 64] |= uint64_t{1} << (bit % 64);
    }
  }
  CONSENTDB_ASSIGN_OR_RETURN(
      MaskFamily dual, TransposeMasked(fam, universe.size(), limits));
  std::vector<VarSet> out;
  out.reserve(dual.count);
  for (size_t i = 0; i < dual.count; ++i) {
    const uint64_t* r = dual.row(i);
    std::vector<VarId> ids;
    for (size_t w = 0; w < dual.words; ++w) {
      uint64_t word = r[w];
      while (word != 0) {
        size_t bit = w * 64 + static_cast<size_t>(__builtin_ctzll(word));
        ids.push_back(universe[bit]);
        word &= word - 1;
      }
    }
    out.push_back(VarSet::FromSorted(std::move(ids)));
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Dnf

Dnf::Dnf(std::vector<VarSet> terms, bool absorb) : terms_(std::move(terms)) {
  if (absorb) {
    Minimize(&terms_);
  } else {
    std::sort(terms_.begin(), terms_.end());
    terms_.erase(std::unique(terms_.begin(), terms_.end()), terms_.end());
  }
}

Result<Dnf> Dnf::FromExpr(const BoolExprPtr& expr, NormalFormLimits limits) {
  CONSENTDB_ASSIGN_OR_RETURN(std::vector<VarSet> terms,
                             ExprToSets(expr, ExprKind::kOr, limits));
  Minimize(&terms);
  Dnf out;
  out.terms_ = std::move(terms);
  return out;
}

size_t Dnf::TotalLiterals() const { return SumOfSizes(terms_); }

size_t Dnf::MaxTermSize() const {
  size_t k = 0;
  for (const VarSet& t : terms_) k = std::max(k, t.size());
  return k;
}

VarSet Dnf::Vars() const { return UnionOfAll(terms_); }

Truth Dnf::Evaluate(const PartialValuation& val) const {
  bool any_unknown = false;
  for (const VarSet& term : terms_) {
    bool term_false = false;
    bool term_unknown = false;
    for (VarId x : term) {
      Truth t = val.Get(x);
      if (t == Truth::kFalse) {
        term_false = true;
        break;
      }
      if (t == Truth::kUnknown) term_unknown = true;
    }
    if (term_false) continue;
    if (!term_unknown) return Truth::kTrue;  // all-True term
    any_unknown = true;
  }
  return any_unknown ? Truth::kUnknown : Truth::kFalse;
}

Dnf Dnf::Simplify(const PartialValuation& val) const {
  std::vector<VarSet> kept;
  for (const VarSet& term : terms_) {
    std::vector<VarId> residual;
    bool term_false = false;
    for (VarId x : term) {
      Truth t = val.Get(x);
      if (t == Truth::kFalse) {
        term_false = true;
        break;
      }
      if (t == Truth::kUnknown) residual.push_back(x);
    }
    if (term_false) continue;
    if (residual.empty()) return ConstantTrue();
    kept.emplace_back(std::move(residual));
  }
  return Dnf(std::move(kept));
}

bool Dnf::IsReadOnce() const { return NoSharedVars(terms_); }

double Dnf::TrueProbability(const std::vector<double>& pi) const {
  if (IsConstantFalse()) return 0.0;
  if (IsConstantTrue()) return 1.0;
  auto var_prob = [&pi](VarId x) {
    CONSENTDB_CHECK(x < pi.size(), "probability missing for variable");
    return pi[x];
  };
  if (IsReadOnce()) {
    double prob_all_terms_false = 1.0;
    for (const VarSet& term : terms_) {
      double term_true = 1.0;
      for (VarId x : term) term_true *= var_prob(x);
      prob_all_terms_false *= 1.0 - term_true;
    }
    return 1.0 - prob_all_terms_false;
  }
  CONSENTDB_CHECK(terms_.size() <= 20,
                  "inclusion-exclusion limited to 20 terms");
  double p = 0.0;
  size_t combos = static_cast<size_t>(1) << terms_.size();
  for (size_t mask = 1; mask < combos; ++mask) {
    VarSet covered;
    int bits = 0;
    for (size_t i = 0; i < terms_.size(); ++i) {
      if ((mask >> i) & 1) {
        covered = covered.Union(terms_[i]);
        ++bits;
      }
    }
    double term_prob = 1.0;
    for (VarId x : covered) term_prob *= var_prob(x);
    p += (bits % 2 == 1 ? 1.0 : -1.0) * term_prob;
  }
  return p;
}

BoolExprPtr Dnf::ToExpr() const {
  std::vector<BoolExprPtr> term_exprs;
  term_exprs.reserve(terms_.size());
  for (const VarSet& term : terms_) {
    std::vector<BoolExprPtr> lits;
    lits.reserve(term.size());
    for (VarId x : term) lits.push_back(BoolExpr::Var(x));
    term_exprs.push_back(BoolExpr::AndN(std::move(lits)));
  }
  return BoolExpr::OrN(std::move(term_exprs));
}

std::string Dnf::ToString() const {
  if (IsConstantFalse()) return "false";
  if (IsConstantTrue()) return "true";
  std::vector<std::string> parts;
  parts.reserve(terms_.size());
  for (const VarSet& t : terms_) parts.push_back(t.ToString("∧"));
  return Join(parts, " ∨ ");
}

// ---------------------------------------------------------------------------
// Cnf

Cnf::Cnf(std::vector<VarSet> clauses, bool absorb)
    : clauses_(std::move(clauses)) {
  if (absorb) {
    Minimize(&clauses_);
  } else {
    std::sort(clauses_.begin(), clauses_.end());
    clauses_.erase(std::unique(clauses_.begin(), clauses_.end()),
                   clauses_.end());
  }
}

Result<Cnf> Cnf::FromExpr(const BoolExprPtr& expr, NormalFormLimits limits) {
  CONSENTDB_ASSIGN_OR_RETURN(std::vector<VarSet> clauses,
                             ExprToSets(expr, ExprKind::kAnd, limits));
  Minimize(&clauses);
  Cnf out;
  out.clauses_ = std::move(clauses);
  return out;
}

size_t Cnf::TotalLiterals() const { return SumOfSizes(clauses_); }

VarSet Cnf::Vars() const { return UnionOfAll(clauses_); }

Truth Cnf::Evaluate(const PartialValuation& val) const {
  bool any_unknown = false;
  for (const VarSet& clause : clauses_) {
    bool clause_true = false;
    bool clause_unknown = false;
    for (VarId x : clause) {
      Truth t = val.Get(x);
      if (t == Truth::kTrue) {
        clause_true = true;
        break;
      }
      if (t == Truth::kUnknown) clause_unknown = true;
    }
    if (clause_true) continue;
    if (!clause_unknown) return Truth::kFalse;  // all-False clause
    any_unknown = true;
  }
  return any_unknown ? Truth::kUnknown : Truth::kTrue;
}

BoolExprPtr Cnf::ToExpr() const {
  std::vector<BoolExprPtr> clause_exprs;
  clause_exprs.reserve(clauses_.size());
  for (const VarSet& clause : clauses_) {
    std::vector<BoolExprPtr> lits;
    lits.reserve(clause.size());
    for (VarId x : clause) lits.push_back(BoolExpr::Var(x));
    clause_exprs.push_back(BoolExpr::OrN(std::move(lits)));
  }
  return BoolExpr::AndN(std::move(clause_exprs));
}

std::string Cnf::ToString() const {
  if (IsConstantTrue()) return "true";
  if (IsConstantFalse()) return "false";
  std::vector<std::string> parts;
  parts.reserve(clauses_.size());
  for (const VarSet& c : clauses_) parts.push_back(c.ToString("∨"));
  return Join(parts, " ∧ ");
}

// ---------------------------------------------------------------------------
// Conversions

Result<Cnf> DnfToCnf(const Dnf& dnf, NormalFormLimits limits) {
  CONSENTDB_ASSIGN_OR_RETURN(
      std::vector<VarSet> clauses,
      Transpose(dnf.terms(), limits));
  // Transpose output is already a minimal antichain; only canonical
  // (sort + dedup) ordering is needed, not another absorption pass.
  return Cnf(std::move(clauses), /*absorb=*/false);
}

Result<Dnf> CnfToDnf(const Cnf& cnf, NormalFormLimits limits) {
  CONSENTDB_ASSIGN_OR_RETURN(
      std::vector<VarSet> terms,
      Transpose(cnf.clauses(), limits));
  return Dnf(std::move(terms), /*absorb=*/false);
}

}  // namespace consentdb::provenance
