#include "consentdb/strategy/evaluation_state.h"

#include <algorithm>
#include <utility>

#include "consentdb/util/check.h"

namespace consentdb::strategy {

namespace {

// All-ones mask over the low `n` bits of the last word of an n-literal term.
uint64_t TailMask(size_t n) {
  size_t rem = n % 64;
  return rem == 0 ? ~uint64_t{0} : (uint64_t{1} << rem) - 1;
}

// Canonical (VarSet) order of two distinct rows of an antichain over an
// ascending universe: neither is a prefix of the other, so the row holding
// the lowest differing bit is the lexicographically smaller one.
bool RowPrecedes(const uint64_t* a, const uint64_t* b, size_t words) {
  for (size_t w = 0; w < words; ++w) {
    const uint64_t diff = a[w] ^ b[w];
    if (diff != 0) return (a[w] & diff & (~diff + 1)) != 0;
  }
  return false;
}

template <typename T>
void Release(std::vector<T>* v) {
  std::vector<T>().swap(*v);
}

}  // namespace

EvaluationState::EvaluationState(const std::vector<Dnf>& dnfs,
                                 std::vector<double> pi)
    : pi_(std::move(pi)), num_vars_(pi_.size()), val_(pi_.size()) {
  const size_t num_words = (num_vars_ + 63) / 64;
  known_.assign(num_words, 0);
  useful_.assign(num_words, 0);
  var_live_terms_.assign(num_vars_, 0);

  // Pass 1: sizes, so every flat array is allocated exactly once.
  size_t total_terms = 0;
  size_t total_lits = 0;
  size_t total_mask_words = 0;
  for (const Dnf& dnf : dnfs) {
    if (dnf.IsConstantTrue() || dnf.IsConstantFalse()) continue;
    total_terms += dnf.num_terms();
    for (const VarSet& term : dnf.terms()) {
      total_lits += term.size();
      total_mask_words += (term.size() + 63) / 64;
    }
  }
  formulas_.reserve(dnfs.size());
  term_formula_.reserve(total_terms);
  term_state_.reserve(total_terms);
  term_unknown_.reserve(total_terms);
  term_lit_off_.reserve(total_terms + 1);
  term_lit_var_.reserve(total_lits);
  term_mask_off_.reserve(total_terms + 1);
  term_mask_.reserve(total_mask_words);
  term_lit_off_.push_back(0);
  term_mask_off_.push_back(0);

  // Pass 2: fill the term columns and count per-variable occurrences.
  for (size_t j = 0; j < dnfs.size(); ++j) {
    const Dnf& dnf = dnfs[j];
    FormulaInfo f;
    f.term_begin = f.term_end = static_cast<uint32_t>(term_formula_.size());
    if (dnf.IsConstantTrue()) {
      f.value = Truth::kTrue;
    } else if (dnf.IsConstantFalse()) {
      f.value = Truth::kFalse;
    } else {
      for (const VarSet& term : dnf.terms()) {
        CONSENTDB_CHECK(!term.empty(), "empty term in non-constant DNF");
        for (VarId v : term) {
          CONSENTDB_CHECK(v < num_vars_,
                          "variable without probability: x" + std::to_string(v));
          ++var_live_terms_[v];
        }
        term_formula_.push_back(static_cast<uint32_t>(j));
        term_state_.push_back(TermState::kLive);
        term_unknown_.push_back(static_cast<uint32_t>(term.size()));
        term_lit_var_.insert(term_lit_var_.end(), term.begin(), term.end());
        term_lit_off_.push_back(static_cast<uint32_t>(term_lit_var_.size()));
        // Fresh residual mask: every literal unknown.
        size_t words = (term.size() + 63) / 64;
        for (size_t w = 0; w + 1 < words; ++w) term_mask_.push_back(~uint64_t{0});
        term_mask_.push_back(TailMask(term.size()));
        term_mask_off_.push_back(static_cast<uint32_t>(term_mask_.size()));
      }
      f.term_end = static_cast<uint32_t>(term_formula_.size());
      f.live_terms = f.qv_unknown_terms = f.term_end - f.term_begin;
      ++num_undecided_;
    }
    formulas_.push_back(f);
  }

  // var -> (term, slot) CSR via counting sort; tid-ascending per variable.
  vt_off_.assign(num_vars_ + 1, 0);
  for (VarId v = 0; v < num_vars_; ++v) {
    vt_off_[v + 1] = vt_off_[v] + var_live_terms_[v];
  }
  vt_tid_.resize(total_lits);
  vt_slot_.resize(total_lits);
  std::vector<uint32_t> cursor(vt_off_.begin(), vt_off_.end() - 1);
  for (size_t tid = 0; tid < term_formula_.size(); ++tid) {
    const uint32_t lit_begin = term_lit_off_[tid];
    const uint32_t lit_end = term_lit_off_[tid + 1];
    for (uint32_t i = lit_begin; i < lit_end; ++i) {
      VarId v = term_lit_var_[i];
      uint32_t pos = cursor[v]++;
      vt_tid_[pos] = static_cast<uint32_t>(tid);
      vt_slot_[pos] = i - lit_begin;
    }
  }

  all_vars_.reserve(num_vars_);
  for (VarId v = 0; v < num_vars_; ++v) {
    if (var_live_terms_[v] == 0) continue;
    all_vars_.push_back(v);
    useful_[v >> 6] |= uint64_t{1} << (v & 63);
    if (var_live_terms_[v] >= 2) ++multi_live_unknown_;
  }

  var_stamp_.assign(num_vars_, 0);
  scratch_epoch_.assign(formulas_.size(), 0);
  scratch_.assign(formulas_.size(), Scratch{});
  qv_score_cache_.assign(num_vars_, 0.0);
  qv_dirty_.assign(num_vars_, true);
}

void EvaluationState::MarkQValueDirty(size_t formula) {
  // The CNF is over the same variable set as the DNF, so marking the term
  // variables covers every affected candidate.
  const FormulaInfo& f = formulas_[formula];
  const uint32_t lit_begin = term_lit_off_[f.term_begin];
  const uint32_t lit_end = term_lit_off_[f.term_end];
  for (uint32_t i = lit_begin; i < lit_end; ++i) {
    qv_dirty_[term_lit_var_[i]] = true;
  }
}

Truth EvaluationState::formula_value(size_t j) const {
  CONSENTDB_CHECK(j < formulas_.size(), "formula index out of range");
  return formulas_[j].value;
}

std::vector<Truth> EvaluationState::FormulaValues() const {
  std::vector<Truth> out;
  out.reserve(formulas_.size());
  for (const FormulaInfo& f : formulas_) out.push_back(f.value);
  return out;
}

void EvaluationState::SetCosts(std::vector<double> costs) {
  CONSENTDB_CHECK(val_.CountKnown() == 0,
                  "SetCosts must be called before any probe");
  CONSENTDB_CHECK(costs.size() >= pi_.size(),
                  "cost vector must cover every variable");
  for (double c : costs) {
    CONSENTDB_CHECK(c > 0.0, "probe costs must be positive");
  }
  costs_ = std::move(costs);
}

double EvaluationState::probability(VarId x) const {
  CONSENTDB_CHECK(x < pi_.size(), "variable without probability");
  return pi_[x];
}

void EvaluationState::MarkUnreachable(VarId x) {
  CONSENTDB_CHECK(x < pi_.size(), "unknown variable id");
  CONSENTDB_CHECK(val_.Get(x) == Truth::kUnknown,
                  "cannot lose an already-answered variable: x" +
                      std::to_string(x));
  if (unreachable_.empty()) unreachable_.assign(pi_.size(), false);
  if (!unreachable_[x]) {
    unreachable_[x] = true;
    ++num_unreachable_;
    ClearUseful(x);
  }
}

bool EvaluationState::IsUnreachable(VarId x) const {
  return x < unreachable_.size() && unreachable_[x];
}

bool EvaluationState::HasUsefulVar() const {
  for (uint64_t word : useful_) {
    if (word != 0) return true;
  }
  return false;
}

std::vector<VarId> EvaluationState::UsefulVars() const {
  std::vector<VarId> out;
  for (size_t w = 0; w < useful_.size(); ++w) {
    uint64_t word = useful_[w];
    while (word != 0) {
      out.push_back(static_cast<VarId>(
          w * 64 + static_cast<size_t>(__builtin_ctzll(word))));
      word &= word - 1;
    }
  }
  return out;
}

void EvaluationState::DecrementVarLive(VarId v) {
  uint32_t n = --var_live_terms_[v];
  if (n == 1) --multi_live_unknown_;  // crossed the >= 2 boundary
  if (n == 0) ClearUseful(v);
}

void EvaluationState::Assign(VarId x, bool value) {
  CONSENTDB_CHECK(x < pi_.size(), "unknown variable id");
  CONSENTDB_CHECK(val_.Get(x) == Truth::kUnknown,
                  "variable probed twice: x" + std::to_string(x));
  val_.Set(x, value);
  known_[x >> 6] |= uint64_t{1} << (x & 63);
  ClearUseful(x);
  // x leaves the unknown population; its live-term count stays as is (other
  // terms' masks still referencing x are cleaned up below).
  if (var_live_terms_[x] >= 2) --multi_live_unknown_;

  // Invalidate cached Q-value scores of every variable sharing a formula
  // with x (before states change, so the formula sets are still complete).
  const uint32_t vt_begin = vt_off_[x];
  const uint32_t vt_end = vt_off_[x + 1];
  for (uint32_t i = vt_begin; i < vt_end; ++i) {
    MarkQValueDirty(term_formula_[vt_tid_[i]]);
  }
  if (!vc_off_.empty()) {
    for (uint32_t i = vc_off_[x]; i < vc_off_[x + 1]; ++i) {
      MarkQValueDirty(clause_formula_[vc_cid_[i]]);
    }
  }

  for (uint32_t i = vt_begin; i < vt_end; ++i) {
    const uint32_t tid = vt_tid_[i];
    TermState st = term_state_[tid];
    if (st != TermState::kLive && st != TermState::kAbsorbed) continue;
    const size_t j = term_formula_[tid];
    FormulaInfo& f = formulas_[j];
    if (f.value != Truth::kUnknown) continue;  // defensive; should be defunct
    const uint32_t xslot = vt_slot_[i];
    if (!value) {
      bool was_live = st == TermState::kLive;
      term_state_[tid] = TermState::kFalsified;
      --f.qv_unknown_terms;
      if (was_live) {
        --f.live_terms;
        // The mask bits are exactly the term's unknown variables plus the
        // still-set bit of x itself; skip that slot.
        ForEachMaskVarSlots(tid, [&](VarId v, uint32_t slot) {
          if (slot != xslot) DecrementVarLive(v);
        });
      }
      if (f.live_terms == 0) DecideFormula(j, Truth::kFalse);
    } else {
      --term_unknown_[tid];
      const uint32_t mask_begin = term_mask_off_[tid];
      term_mask_[mask_begin + (xslot >> 6)] &=
          ~(uint64_t{1} << (xslot & 63));
      if (term_unknown_[tid] == 0) {
        term_state_[tid] = TermState::kSatisfied;
        DecideFormula(j, Truth::kTrue);
      }
    }
  }

  if (cnfs_attached_ && !vc_off_.empty()) {
    for (uint32_t i = vc_off_[x]; i < vc_off_[x + 1]; ++i) {
      const uint32_t cid = vc_cid_[i];
      if (clause_state_[cid] != ClauseState::kLive) continue;
      const size_t j = clause_formula_[cid];
      FormulaInfo& f = formulas_[j];
      if (f.value != Truth::kUnknown) continue;
      if (value) {
        clause_state_[cid] = ClauseState::kSatisfied;
        --f.live_clauses;
      } else {
        --clause_unknown_[cid];
        if (clause_unknown_[cid] == 0) {
          clause_state_[cid] = ClauseState::kFalsified;
          --f.live_clauses;
          DecideFormula(j, Truth::kFalse);
        }
      }
    }
  }

  if (value) {
    // A True assignment shrinks residual terms, which can create new
    // subsumptions; retire them so no strategy probes a useless variable.
    std::vector<size_t> touched;
    for (uint32_t i = vt_begin; i < vt_end; ++i) {
      size_t j = term_formula_[vt_tid_[i]];
      if (formulas_[j].value == Truth::kUnknown) touched.push_back(j);
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    for (size_t j : touched) AbsorbWithin(j);
  }
}

void EvaluationState::DecideFormula(size_t j, Truth value) {
  FormulaInfo& f = formulas_[j];
  if (f.value != Truth::kUnknown) return;
  f.value = value;
  --num_undecided_;
  for (uint32_t tid = f.term_begin; tid < f.term_end; ++tid) {
    if (term_state_[tid] == TermState::kLive) {
      // Skip already-known variables: mid-Assign the probed variable's bit
      // can still be set in sibling terms' masks.
      ForEachMaskVar(tid, [&](VarId v) {
        if (!KnownBit(v)) DecrementVarLive(v);
      });
      term_state_[tid] = TermState::kDefunct;
    } else if (term_state_[tid] == TermState::kAbsorbed) {
      term_state_[tid] = TermState::kDefunct;
    }
  }
  f.live_terms = 0;
  f.qv_unknown_terms = 0;
  for (uint32_t cid = f.clause_begin; cid < f.clause_end; ++cid) {
    if (clause_state_[cid] == ClauseState::kLive) {
      clause_state_[cid] = ClauseState::kDefunct;
    }
  }
  f.live_clauses = 0;
}

void EvaluationState::SetAbsorptionEnabled(bool enabled) {
  CONSENTDB_CHECK(val_.CountKnown() == 0,
                  "SetAbsorptionEnabled must be called before any probe");
  absorption_enabled_ = enabled;
}

void EvaluationState::AbsorbWithin(size_t j) {
  if (!absorption_enabled_) return;
  FormulaInfo& f = formulas_[j];
  if (f.value != Truth::kUnknown || f.live_terms <= 1) return;
  // Live terms ordered by (residual size, tid): a term can only be subsumed
  // by an earlier one, so one forward pass with a kept-list suffices.
  struct Entry {
    uint32_t unknown;
    uint32_t tid;
    bool operator<(const Entry& other) const {
      if (unknown != other.unknown) return unknown < other.unknown;
      return tid < other.tid;
    }
  };
  std::vector<Entry> live;
  live.reserve(f.live_terms);
  for (uint32_t tid = f.term_begin; tid < f.term_end; ++tid) {
    if (term_state_[tid] == TermState::kLive) {
      live.push_back(Entry{term_unknown_[tid], tid});
    }
  }
  std::sort(live.begin(), live.end());
  std::vector<uint32_t> kept;
  kept.reserve(live.size());
  for (const Entry& e : live) {
    // Stamp the candidate's residual variables, then test each kept term
    // for containment: kept ⊆ candidate iff all its residuals are stamped.
    ++stamp_epoch_;
    ForEachMaskVar(e.tid, [&](VarId v) { var_stamp_[v] = stamp_epoch_; });
    bool absorbed = false;
    for (uint32_t k : kept) {
      bool subset = true;
      ForEachMaskVar(k, [&](VarId v) {
        if (var_stamp_[v] != stamp_epoch_) subset = false;
      });
      if (subset) {
        absorbed = true;
        break;
      }
    }
    if (!absorbed) {
      kept.push_back(e.tid);
      continue;
    }
    term_state_[e.tid] = TermState::kAbsorbed;
    --f.live_terms;
    ForEachMaskVar(e.tid, [&](VarId v) { DecrementVarLive(v); });
  }
}

Status EvaluationState::AttachCnfs(provenance::NormalFormLimits limits) {
  CONSENTDB_CHECK(val_.CountKnown() == 0,
                  "AttachCnfs must be called before any probe; use "
                  "TryAttachResidualCnfs mid-run");
  if (cnfs_attached_) return Status::OK();
  if (TryAttachResidualCnfs(limits)) return Status::OK();
  return Status::ResourceExhausted(
      "CNF of the provenance exceeds the clause budget; Q-value not "
      "applicable");
}

void EvaluationState::AttachPrecomputedCnfs(const std::vector<Cnf>& cnfs) {
  CONSENTDB_CHECK(val_.CountKnown() == 0,
                  "AttachPrecomputedCnfs must be called before any probe");
  CONSENTDB_CHECK(cnfs.size() == formulas_.size(),
                  "one CNF per formula required");
  CONSENTDB_CHECK(!cnfs_attached_, "CNFs already attached");
  for (size_t j = 0; j < formulas_.size(); ++j) {
    if (formulas_[j].value != Truth::kUnknown) continue;
    RegisterClauses(j, cnfs[j]);
  }
  BuildClauseIndex();
  cnfs_attached_ = true;
}

bool EvaluationState::TryAttachResidualCnfs(
    provenance::NormalFormLimits limits) {
  if (cnfs_attached_) return true;
  // Try the largest formulas first: when the brute-force CNF is infeasible
  // it is the big DNFs that blow the budget, and failing fast on them saves
  // converting hundreds of small formulas for nothing. This order is also
  // the clause-id order across formulas, which fixes Q-value's first-touch
  // summation order and so its rounding and tie-breaks.
  std::vector<size_t> order;
  order.reserve(formulas_.size());
  for (size_t j = 0; j < formulas_.size(); ++j) {
    if (formulas_[j].value == Truth::kUnknown) order.push_back(j);
  }
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return formulas_[a].live_terms > formulas_[b].live_terms;
  });

  // Each formula's live residual terms become bit rows over its own
  // residual variables (bit i = the i-th smallest), read straight off the
  // term masks; the dual rows go straight into the clause columns. The
  // formulas are handed their clauses only once every CNF fits the budget.
  std::vector<uint32_t> bit_of(num_vars_);
  std::vector<VarId> universe;
  provenance::MaskFamily rows;
  std::vector<uint64_t> support;
  std::vector<uint32_t> clause_order;
  std::vector<uint32_t> clause_ends;
  clause_ends.reserve(order.size());
  clause_lit_off_.assign(1, 0);
  // Returns false when formula j's CNF exceeds the budget.
  auto append_cnf = [&](size_t j) {
    const FormulaInfo& f = formulas_[j];
    universe.clear();
    for (uint32_t tid = f.term_begin; tid < f.term_end; ++tid) {
      if (term_state_[tid] != TermState::kLive) continue;
      ForEachMaskVar(tid, [&](VarId v) { universe.push_back(v); });
    }
    const size_t literals = universe.size();
    std::sort(universe.begin(), universe.end());
    universe.erase(std::unique(universe.begin(), universe.end()),
                   universe.end());
    for (uint32_t b = 0; b < universe.size(); ++b) bit_of[universe[b]] = b;
    rows.words = std::max<size_t>(1, (universe.size() + 63) / 64);
    rows.count = 0;
    rows.bits.clear();
    for (uint32_t tid = f.term_begin; tid < f.term_end; ++tid) {
      if (term_state_[tid] != TermState::kLive) continue;
      rows.PushEmptyRow();
      uint64_t* r = rows.row(rows.count - 1);
      ForEachMaskVar(tid, [&](VarId v) {
        r[bit_of[v] / 64] |= uint64_t{1} << (bit_of[v] % 64);
      });
    }
    // Pairwise-disjoint (read-once) terms are already minimal. Otherwise
    // minimise — without absorption the live terms need not be — so the
    // kernel sees exactly the minimal residual DNF.
    bool read_once = literals == universe.size();
    if (!read_once) {
      MinimizeMasks(&rows);
      support.assign(rows.words, 0);
      read_once = true;
      for (size_t i = 0; i < rows.count; ++i) {
        for (size_t w = 0; w < rows.words; ++w) {
          if ((support[w] & rows.row(i)[w]) != 0) read_once = false;
          support[w] |= rows.row(i)[w];
        }
      }
    }
    // Read-once fast path: with pairwise-disjoint terms the minimal CNF has
    // exactly prod(|term|) clauses, so infeasibility is decidable without
    // running the conversion.
    if (read_once) {
      size_t product = 1;
      for (size_t i = 0; i < rows.count; ++i) {
        product *= rows.RowSize(i);
        if (product > limits.max_sets) return false;
      }
    }
    Result<provenance::MaskFamily> dual =
        provenance::TransposeMasked(rows, universe.size(), limits);
    if (!dual.ok()) return false;
    // Canonical (sorted VarSet) clause order, as DnfToCnf returns it. No
    // score or verdict depends on it, but clauses sharing their smallest
    // variables then sit together, which keeps the var -> clause index
    // build and Q-value scoring local on formulas with thousands of
    // clauses (kernel order read ~10-20% slower at 1000 rows).
    clause_order.resize(dual->count);
    for (uint32_t i = 0; i < dual->count; ++i) clause_order[i] = i;
    std::sort(clause_order.begin(), clause_order.end(),
              [&](uint32_t a, uint32_t b) {
                return RowPrecedes(dual->row(a), dual->row(b), dual->words);
              });
    for (uint32_t i : clause_order) {
      const uint64_t* r = dual->row(i);
      for (size_t w = 0; w < dual->words; ++w) {
        for (uint64_t word = r[w]; word != 0; word &= word - 1) {
          clause_lit_var_.push_back(
              universe[w * 64 + static_cast<size_t>(__builtin_ctzll(word))]);
        }
      }
      CloseClause(j);
    }
    return true;
  };
  for (size_t j : order) {
    if (!append_cnf(j)) {
      DropClauses();
      return false;
    }
    clause_ends.push_back(static_cast<uint32_t>(clause_formula_.size()));
  }
  uint32_t begin = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    CommitClauses(order[i], begin, clause_ends[i]);
    begin = clause_ends[i];
  }
  BuildClauseIndex();
  cnfs_attached_ = true;
  return true;
}

void EvaluationState::RegisterClauses(size_t j, const Cnf& cnf) {
  const auto begin = static_cast<uint32_t>(clause_formula_.size());
  if (clause_lit_off_.empty()) clause_lit_off_.push_back(0);
  for (const VarSet& clause : cnf.clauses()) {
    clause_lit_var_.insert(clause_lit_var_.end(), clause.begin(),
                           clause.end());
    CloseClause(j);
  }
  CommitClauses(j, begin, static_cast<uint32_t>(clause_formula_.size()));
}

void EvaluationState::CloseClause(size_t j) {
  const auto end = static_cast<uint32_t>(clause_lit_var_.size());
  CONSENTDB_CHECK(end > clause_lit_off_.back(),
                  "empty clause for undecided formula");
  clause_formula_.push_back(static_cast<uint32_t>(j));
  clause_state_.push_back(ClauseState::kLive);
  clause_unknown_.push_back(end - clause_lit_off_.back());
  clause_lit_off_.push_back(end);
}

void EvaluationState::CommitClauses(size_t j, uint32_t begin, uint32_t end) {
  FormulaInfo& f = formulas_[j];
  f.clause_begin = begin;
  f.clause_end = end;
  f.live_clauses = end - begin;
  // Freeze the DHK utility totals for the residual subproblem.
  f.qv_total_terms = static_cast<double>(f.qv_unknown_terms);
  f.qv_total_clauses = static_cast<double>(f.live_clauses);
  MarkQValueDirty(j);
}

void EvaluationState::DropClauses() {
  // The memory goes too: the state lives on after a failed attach (Auto
  // falls back to General) and may have written most of a large CNF.
  Release(&clause_formula_);
  Release(&clause_state_);
  Release(&clause_unknown_);
  Release(&clause_lit_off_);
  Release(&clause_lit_var_);
}

void EvaluationState::BuildClauseIndex() {
  // Counting sort of (variable -> clause id) pairs; iterating clause ids in
  // ascending order keeps each variable's row cid-ascending.
  vc_off_.assign(num_vars_ + 1, 0);
  for (VarId v : clause_lit_var_) ++vc_off_[v + 1];
  for (VarId v = 0; v < num_vars_; ++v) vc_off_[v + 1] += vc_off_[v];
  vc_cid_.resize(clause_lit_var_.size());
  std::vector<uint32_t> cursor(vc_off_.begin(), vc_off_.end() - 1);
  for (size_t cid = 0; cid < clause_formula_.size(); ++cid) {
    const uint32_t lit_begin = clause_lit_off_[cid];
    const uint32_t lit_end = clause_lit_off_[cid + 1];
    for (uint32_t i = lit_begin; i < lit_end; ++i) {
      vc_cid_[cursor[clause_lit_var_[i]]++] = static_cast<uint32_t>(cid);
    }
  }
}

bool EvaluationState::TermLive(size_t tid) const {
  CONSENTDB_CHECK(tid < term_formula_.size(), "term index out of range");
  return term_state_[tid] == TermState::kLive;
}

size_t EvaluationState::TermFormula(size_t tid) const {
  CONSENTDB_CHECK(tid < term_formula_.size(), "term index out of range");
  return term_formula_[tid];
}

std::vector<VarId> EvaluationState::TermResidualVars(size_t tid) const {
  CONSENTDB_CHECK(tid < term_formula_.size(), "term index out of range");
  std::vector<VarId> out;
  ForEachTermResidualVar(tid, [&out](VarId v) { out.push_back(v); });
  return out;
}

size_t EvaluationState::TermResidualSize(size_t tid) const {
  CONSENTDB_CHECK(tid < term_formula_.size(), "term index out of range");
  return term_unknown_[tid];
}

double EvaluationState::TermResidualProbability(size_t tid) const {
  CONSENTDB_CHECK(tid < term_formula_.size(), "term index out of range");
  double p = 1.0;
  ForEachTermResidualVar(tid, [&](VarId v) { p *= pi_[v]; });
  return p;
}

void EvaluationState::ForEachLiveTerm(
    const std::function<void(size_t)>& fn) const {
  for (size_t tid = 0; tid < term_state_.size(); ++tid) {
    if (term_state_[tid] == TermState::kLive) fn(tid);
  }
}

double EvaluationState::QValueScore(VarId x) const {
  CONSENTDB_CHECK(cnfs_attached_, "QValueScore requires attached CNFs");
  CONSENTDB_CHECK(val_.Get(x) == Truth::kUnknown, "variable already known");
  ++epoch_;
  scratch_formulas_.clear();
  auto touch = [this](size_t j) -> Scratch& {
    if (scratch_epoch_[j] != epoch_) {
      scratch_epoch_[j] = epoch_;
      scratch_[j] = Scratch{};
      scratch_formulas_.push_back(j);
    }
    return scratch_[j];
  };
  for (uint32_t i = vt_off_[x]; i < vt_off_[x + 1]; ++i) {
    const uint32_t tid = vt_tid_[i];
    TermState st = term_state_[tid];
    if (st != TermState::kLive && st != TermState::kAbsorbed) continue;
    Scratch& s = touch(term_formula_[tid]);
    ++s.terms_with_x;
    if (term_unknown_[tid] == 1) s.sat_trigger = true;
  }
  if (!vc_off_.empty()) {
    for (uint32_t i = vc_off_[x]; i < vc_off_[x + 1]; ++i) {
      const uint32_t cid = vc_cid_[i];
      if (clause_state_[cid] != ClauseState::kLive) continue;
      Scratch& s = touch(clause_formula_[cid]);
      ++s.clauses_with_x;
      if (clause_unknown_[cid] == 1) s.false_trigger = true;
    }
  }
  double delta_true = 0;
  double delta_false = 0;
  for (size_t j : scratch_formulas_) {
    const FormulaInfo& f = formulas_[j];
    const Scratch& s = scratch_[j];
    double max_contrib = f.qv_total_terms * f.qv_total_clauses;
    double t = static_cast<double>(f.qv_unknown_terms);
    double c = static_cast<double>(f.live_clauses);
    double now = max_contrib - t * c;
    double if_true =
        s.sat_trigger
            ? max_contrib
            : max_contrib - t * (c - static_cast<double>(s.clauses_with_x));
    double if_false =
        s.false_trigger
            ? max_contrib
            : max_contrib - (t - static_cast<double>(s.terms_with_x)) * c;
    delta_true += if_true - now;
    delta_false += if_false - now;
  }
  return pi_[x] * delta_true + (1.0 - pi_[x]) * delta_false;
}

VarId EvaluationState::QValueArgMax() const {
  // With non-uniform costs the greedy maximises expected utility gain per
  // unit of cost (the standard adaptive-submodular form of the rule).
  VarId best = provenance::kInvalidVar;
  double best_score = -1.0;
  for (VarId x : all_vars_) {
    if (!IsUseful(x)) continue;
    if (qv_dirty_[x]) {
      qv_score_cache_[x] = QValueScore(x) / cost(x);
      qv_dirty_[x] = false;
    }
    double score = qv_score_cache_[x];
    if (best == provenance::kInvalidVar || score > best_score) {
      best = x;
      best_score = score;
    }
  }
  return best;
}

size_t EvaluationState::MaxLiveTermsPerFormula() const {
  size_t max_terms = 0;
  for (const FormulaInfo& f : formulas_) {
    if (f.value == Truth::kUnknown) {
      max_terms = std::max(max_terms, f.live_terms);
    }
  }
  return max_terms;
}

size_t EvaluationState::live_terms(size_t j) const {
  CONSENTDB_CHECK(j < formulas_.size(), "formula index out of range");
  return formulas_[j].live_terms;
}

size_t EvaluationState::qv_unknown_terms(size_t j) const {
  CONSENTDB_CHECK(j < formulas_.size(), "formula index out of range");
  return formulas_[j].qv_unknown_terms;
}

size_t EvaluationState::live_clauses(size_t j) const {
  CONSENTDB_CHECK(j < formulas_.size(), "formula index out of range");
  return formulas_[j].live_clauses;
}

std::vector<VarSet> EvaluationState::LiveClauses(size_t j) const {
  CONSENTDB_CHECK(j < formulas_.size(), "formula index out of range");
  const FormulaInfo& f = formulas_[j];
  std::vector<VarSet> out;
  for (uint32_t cid = f.clause_begin; cid < f.clause_end; ++cid) {
    if (clause_state_[cid] != ClauseState::kLive) continue;
    std::vector<VarId> unknown;
    for (uint32_t i = clause_lit_off_[cid]; i < clause_lit_off_[cid + 1];
         ++i) {
      if (!KnownBit(clause_lit_var_[i])) unknown.push_back(clause_lit_var_[i]);
    }
    out.push_back(VarSet::FromSorted(std::move(unknown)));
  }
  return out;
}

std::string EvaluationState::ToString() const {
  std::string out = "EvaluationState{formulas=";
  out += std::to_string(formulas_.size());
  out += ", undecided=" + std::to_string(num_undecided_);
  out += ", known_vars=" + std::to_string(val_.CountKnown());
  out += cnfs_attached_ ? ", cnfs" : "";
  return out + "}";
}

}  // namespace consentdb::strategy
