// EvaluationState: the shared runtime substrate of all probing strategies.
//
// Holds a system of monotone DNF formulas (one per query output tuple, from
// the provenance), optional CNFs (for Q-value), the probability map pi, and
// a partial consent valuation. After every probe answer the state performs
// the "maximal simplification" required of all algorithms in Sec. V-A:
//   * terms with a False variable are falsified;
//   * True variables are removed from terms; an emptied term satisfies its
//     formula;
//   * terms subsumed by a smaller residual term are retired (absorption), so
//     no strategy ever probes a useless variable;
//   * clauses are updated dually; a formula is decided the moment its value
//     is determined, retiring all of its terms and clauses.
//
// Layout: everything is columnar and arena-style. Terms, clauses and
// formulas live in flat parallel arrays; variable-to-term and
// variable-to-clause adjacency is CSR (one offsets array plus one flat index
// array, no vector-of-vectors); each term carries a residual bitmask over
// its own literal slots (bit i set = literal i still unknown) in a shared
// 64-bit word arena, so falsify/satisfy/absorption checks are word-parallel
// AND/POPCNT operations; the valuation and usefulness sets are word bitsets.
//
// All bookkeeping is incremental: Assign(x, b) costs O(deg(x)) plus an
// absorption pass over the formulas containing x, Q-value candidate scoring
// costs O(deg(x)) per *dirty* candidate, and the overall-read-once check is
// O(1) via a maintained counter — this is what makes the paper's 1000-row
// experiments tractable.

#ifndef CONSENTDB_STRATEGY_EVALUATION_STATE_H_
#define CONSENTDB_STRATEGY_EVALUATION_STATE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "consentdb/provenance/normal_form.h"
#include "consentdb/provenance/truth.h"
#include "consentdb/util/result.h"

namespace consentdb::strategy {

using provenance::Cnf;
using provenance::Dnf;
using provenance::PartialValuation;
using provenance::Truth;
using provenance::VarId;
using provenance::VarSet;

class EvaluationState {
 public:
  // A borrowed view over a contiguous run of term ids (one CSR row).
  struct TidSpan {
    const uint32_t* data = nullptr;
    size_t count = 0;
    const uint32_t* begin() const { return data; }
    const uint32_t* end() const { return data + count; }
    size_t size() const { return count; }
    bool empty() const { return count == 0; }
  };

  // `pi[x]` is the probability that variable x is True; it must cover every
  // variable occurring in `dnfs`. The DNFs are read, not kept: sessions over
  // one prepared query share its profile's DNFs without copying them.
  EvaluationState(const std::vector<Dnf>& dnfs, std::vector<double> pi);

  // --- CNF attachment (required by Q-value scoring) -----------------------

  // Computes the CNF of every formula from its original DNF. Fails with
  // ResourceExhausted if a CNF exceeds `limits` (Q-value "not applicable").
  [[nodiscard]] Status AttachCnfs(provenance::NormalFormLimits limits = {});

  // Attaches precomputed CNFs (one per formula, same order as the DNFs;
  // entries for constant formulas are ignored). Avoids re-running the
  // conversion when many sessions share one formula system. Must be called
  // before any probe.
  void AttachPrecomputedCnfs(const std::vector<Cnf>& cnfs);

  // Computes CNFs of the *residual* formulas (Hybrid's late attachment);
  // returns true on success. No-op (true) when already attached. All or
  // nothing: when any CNF exceeds `limits`, no clause is kept and
  // cnfs_attached() stays false, so a later call may retry.
  bool TryAttachResidualCnfs(provenance::NormalFormLimits limits = {});

  bool cnfs_attached() const { return cnfs_attached_; }

  // --- Formulas ------------------------------------------------------------

  size_t num_formulas() const { return formulas_.size(); }
  size_t num_undecided() const { return num_undecided_; }
  bool AllDecided() const { return num_undecided_ == 0; }
  Truth formula_value(size_t j) const;
  std::vector<Truth> FormulaValues() const;

  // --- Variables -----------------------------------------------------------

  const std::vector<double>& pi() const { return pi_; }
  double probability(VarId x) const;

  // Optional non-uniform probe costs (Sec. VII, "the cost could differ
  // across peers"). Defaults to 1 for every variable; must be set before
  // any probe. Cost-aware strategies divide their scores by the cost.
  void SetCosts(std::vector<double> costs);
  bool has_costs() const { return !costs_.empty(); }
  double cost(VarId x) const {
    return x < costs_.size() ? costs_[x] : 1.0;
  }
  Truth var_value(VarId x) const { return val_.Get(x); }
  const PartialValuation& valuation() const { return val_; }

  // Every variable occurring in the original formulas, ascending.
  const std::vector<VarId>& AllVars() const { return all_vars_; }

  // A variable is useful iff it is unprobed, reachable, and occurs in a
  // live (residual, non-absorbed) term of an undecided formula; probing any
  // other variable can never affect the outcome (or is impossible).
  bool IsUseful(VarId x) const {
    return x < num_vars_ &&
           (useful_[x >> 6] >> (x & 63)) & uint64_t{1};
  }
  std::vector<VarId> UsefulVars() const;

  // --- Unreachable variables (resilience: permanently-dead peers) ----------

  // Declares that `x` can never be answered (its peer is gone, or retries
  // were exhausted). The variable stays Unknown — a term containing it can
  // still be falsified through its other variables, and its formula can
  // still be satisfied through other terms, but x itself is no longer
  // useful and will not be chosen by any strategy. Irreversible.
  void MarkUnreachable(VarId x);
  bool IsUnreachable(VarId x) const;
  size_t num_unreachable() const { return num_unreachable_; }

  // True while some useful variable remains. When this turns false with
  // formulas still undecided, those formulas are permanently unresolvable
  // (three-valued kUnresolved outcome): every path to deciding them runs
  // through an unreachable variable.
  bool HasUsefulVar() const;
  // Number of live terms containing x (the Freq criterion).
  size_t LiveTermCount(VarId x) const {
    return x < num_vars_ ? var_live_terms_[x] : 0;
  }

  // Records a probe answer and simplifies. `x` must be unprobed.
  void Assign(VarId x, bool value);

  // Ablation switch: disables the residual-absorption pass (subsumed terms
  // then stay live, so strategies may issue useless probes). Intended for
  // the ablation benchmarks only; must be set before any probe.
  void SetAbsorptionEnabled(bool enabled);

  // --- Terms (for RO / General / Freq) --------------------------------------

  size_t num_terms() const { return term_formula_.size(); }
  // Ids of all terms whose original conjunction contains x (any state),
  // ascending — a borrowed view into the CSR index.
  TidSpan TermsContaining(VarId x) const {
    if (x >= num_vars_) return TidSpan{};
    return TidSpan{vt_tid_.data() + vt_off_[x], vt_off_[x + 1] - vt_off_[x]};
  }
  bool TermLive(size_t tid) const;
  size_t TermFormula(size_t tid) const;
  // Unknown variables of a live term, ascending.
  std::vector<VarId> TermResidualVars(size_t tid) const;
  size_t TermResidualSize(size_t tid) const;
  // Product of pi over the term's unknown variables.
  double TermResidualProbability(size_t tid) const;
  // Calls fn(tid) for every live term of every undecided formula.
  void ForEachLiveTerm(const std::function<void(size_t)>& fn) const;

  // Calls fn(v) for every unknown variable of term `tid`, ascending.
  // Allocation-free equivalent of TermResidualVars for hot strategy loops.
  template <typename Fn>
  void ForEachTermResidualVar(size_t tid, Fn&& fn) const {
    if (term_state_[tid] == TermState::kLive ||
        term_state_[tid] == TermState::kAbsorbed) {
      ForEachMaskVar(tid, fn);
      return;
    }
    // Dead terms no longer maintain their residual mask; fall back to the
    // valuation scan (matches the historical any-state semantics).
    const uint32_t lit_begin = term_lit_off_[tid];
    const uint32_t lit_end = term_lit_off_[tid + 1];
    for (uint32_t i = lit_begin; i < lit_end; ++i) {
      VarId v = term_lit_var_[i];
      if (!KnownBit(v)) fn(v);
    }
  }

  // --- Q-value scoring (Algs. 2-3); requires attached CNFs ------------------

  // The greedy Q-value of probing x: pi(x)*DeltaTrue + (1-pi(x))*DeltaFalse,
  // where Delta_b is the increase of the DHK goal utility
  // sum_j terms[j]*clauses[j] - t_j*c_j under the hypothetical answer b.
  double QValueScore(VarId x) const;
  // argmax of QValueScore over useful variables (ties: smallest id).
  VarId QValueArgMax() const;

  // --- Residual-structure checks (Hybrid / diagnostics) ---------------------

  // No unknown variable occurs in two live terms (across all undecided
  // formulas) — RO is provably optimal from this point on. O(1): the count
  // of unknown variables with >= 2 live terms is maintained incrementally.
  bool ResidualOverallReadOnce() const { return multi_live_unknown_ == 0; }
  size_t MaxLiveTermsPerFormula() const;
  // Live (unknown-ish) term/clause counters per formula, for tests.
  size_t live_terms(size_t j) const;
  size_t qv_unknown_terms(size_t j) const;
  size_t live_clauses(size_t j) const;
  // Unknown variables of every live clause of formula j, in clause order.
  std::vector<VarSet> LiveClauses(size_t j) const;

  std::string ToString() const;

 private:
  enum class TermState : uint8_t {
    kLive,       // value Unknown, not subsumed
    kAbsorbed,   // value Unknown but subsumed by a smaller live term
    kFalsified,  // contains a False variable
    kSatisfied,  // all variables True (formula decided True)
    kDefunct,    // its formula was decided by other means
  };
  enum class ClauseState : uint8_t { kLive, kSatisfied, kFalsified, kDefunct };

  struct FormulaInfo {
    Truth value = Truth::kUnknown;
    // Terms and clauses of a formula are contiguous id ranges (terms are
    // appended formula by formula in the constructor, clauses at attach).
    uint32_t term_begin = 0;
    uint32_t term_end = 0;
    uint32_t clause_begin = 0;
    uint32_t clause_end = 0;
    size_t live_terms = 0;        // TermState::kLive only
    size_t qv_unknown_terms = 0;  // kLive + kAbsorbed (DHK's t_j)
    size_t live_clauses = 0;      // DHK's c_j
    // Frozen totals for the DHK utility (set at CNF attachment).
    double qv_total_terms = 0;
    double qv_total_clauses = 0;
  };

  bool KnownBit(VarId v) const {
    return (known_[v >> 6] >> (v & 63)) & uint64_t{1};
  }
  void ClearUseful(VarId v) { useful_[v >> 6] &= ~(uint64_t{1} << (v & 63)); }

  // Calls fn(v) for every set bit of tid's residual mask, slot-ascending
  // (= VarId-ascending: literals are stored sorted).
  template <typename Fn>
  void ForEachMaskVar(size_t tid, Fn&& fn) const {
    const uint32_t mask_begin = term_mask_off_[tid];
    const uint32_t mask_end = term_mask_off_[tid + 1];
    const uint32_t lit_begin = term_lit_off_[tid];
    for (uint32_t w = mask_begin; w < mask_end; ++w) {
      uint64_t word = term_mask_[w];
      while (word != 0) {
        uint32_t slot = (w - mask_begin) * 64 +
                        static_cast<uint32_t>(__builtin_ctzll(word));
        fn(term_lit_var_[lit_begin + slot]);
        word &= word - 1;
      }
    }
  }

  // As ForEachMaskVar, but also hands fn the literal slot index.
  template <typename Fn>
  void ForEachMaskVarSlots(size_t tid, Fn&& fn) const {
    const uint32_t mask_begin = term_mask_off_[tid];
    const uint32_t mask_end = term_mask_off_[tid + 1];
    const uint32_t lit_begin = term_lit_off_[tid];
    for (uint32_t w = mask_begin; w < mask_end; ++w) {
      uint64_t word = term_mask_[w];
      while (word != 0) {
        uint32_t slot = (w - mask_begin) * 64 +
                        static_cast<uint32_t>(__builtin_ctzll(word));
        fn(term_lit_var_[lit_begin + slot], slot);
        word &= word - 1;
      }
    }
  }

  // Decrements the live-term count of an *unknown* variable, maintaining
  // the usefulness bitset and the read-once counter.
  void DecrementVarLive(VarId v);

  void DecideFormula(size_t j, Truth value);
  // Retires live terms of formula j that are subsumed by a smaller residual
  // term (run after a True assignment touched the formula).
  void AbsorbWithin(size_t j);
  void RegisterClauses(size_t j, const Cnf& cnf);
  // Closes the clause whose variables were just appended to
  // clause_lit_var_ as one more live clause of formula j.
  void CloseClause(size_t j);
  // Hands formula j the clauses [begin, end) and freezes its DHK totals.
  void CommitClauses(size_t j, uint32_t begin, uint32_t end);
  // Empties the clause columns and releases their memory (failed attach).
  void DropClauses();
  // Builds the var -> clause CSR index after all clauses are registered.
  void BuildClauseIndex();

  // --- Formula table --------------------------------------------------------
  std::vector<FormulaInfo> formulas_;

  // --- Term table (parallel columns indexed by tid) -------------------------
  std::vector<uint32_t> term_formula_;
  std::vector<TermState> term_state_;
  std::vector<uint32_t> term_unknown_;
  // Literals: CSR of sorted VarIds per term.
  std::vector<uint32_t> term_lit_off_;  // num_terms + 1
  std::vector<VarId> term_lit_var_;
  // Residual masks: per-term word ranges in a shared arena; bit i of term t
  // means literal i of t is still unknown (maintained for kLive/kAbsorbed).
  std::vector<uint32_t> term_mask_off_;  // num_terms + 1 (word offsets)
  std::vector<uint64_t> term_mask_;

  // --- Clause table (parallel columns indexed by cid) -----------------------
  std::vector<uint32_t> clause_formula_;
  std::vector<ClauseState> clause_state_;
  std::vector<uint32_t> clause_unknown_;
  std::vector<uint32_t> clause_lit_off_;  // num_clauses + 1
  std::vector<VarId> clause_lit_var_;

  // --- Variable-indexed columns ---------------------------------------------
  // CSR var -> (term id, slot of the variable within that term).
  std::vector<uint32_t> vt_off_;  // num_vars + 1
  std::vector<uint32_t> vt_tid_;
  std::vector<uint32_t> vt_slot_;
  // CSR var -> clause id (built once at CNF attachment).
  std::vector<uint32_t> vc_off_;  // num_vars + 1 (empty until attached)
  std::vector<uint32_t> vc_cid_;
  // Live-term occurrence count per variable.
  std::vector<uint32_t> var_live_terms_;
  // Word bitsets over [0, num_vars): probed, and useful (unknown, reachable,
  // live-term count > 0).
  std::vector<uint64_t> known_;
  std::vector<uint64_t> useful_;

  std::vector<VarId> all_vars_;
  std::vector<double> pi_;
  std::vector<double> costs_;  // empty = unit costs
  size_t num_vars_ = 0;
  PartialValuation val_;
  // Permanently unanswerable variables (resilience); grows monotonically.
  std::vector<bool> unreachable_;
  size_t num_unreachable_ = 0;
  size_t num_undecided_ = 0;
  // Number of unknown variables occurring in >= 2 live terms; zero iff the
  // residual system is overall read-once. Never increases after build.
  size_t multi_live_unknown_ = 0;
  bool cnfs_attached_ = false;
  bool absorption_enabled_ = true;

  // Scratch for AbsorbWithin (epoch-stamped per-variable membership marks).
  mutable std::vector<uint64_t> var_stamp_;
  mutable uint64_t stamp_epoch_ = 0;

  // Scratch for QValueScore (epoch-stamped per-formula accumulators).
  mutable std::vector<uint64_t> scratch_epoch_;
  mutable std::vector<size_t> scratch_formulas_;
  mutable uint64_t epoch_ = 0;
  struct Scratch {
    size_t terms_with_x = 0;
    size_t clauses_with_x = 0;
    bool sat_trigger = false;    // some term with x has unknown_count == 1
    bool false_trigger = false;  // some clause with x has unknown_count == 1
  };
  mutable std::vector<Scratch> scratch_;

  // Q-value score cache: a variable's score only changes when a formula it
  // occurs in is touched by an assignment, so QValueArgMax re-scores only
  // the dirty candidates (the difference between O(#vars * deg) and
  // O(#dirty * deg) per probe dominates large skewed workloads).
  void MarkQValueDirty(size_t formula);
  mutable std::vector<double> qv_score_cache_;
  mutable std::vector<bool> qv_dirty_;
};

}  // namespace consentdb::strategy

#endif  // CONSENTDB_STRATEGY_EVALUATION_STATE_H_
