// ConsentManager: the end-to-end public API of the library.
//
// Implements OPT-PEER-PROBE and OPT-PEER-PROBE-SINGLE (Def. II.8): given a
// shared database and an SPJU query, it evaluates the query with provenance
// tracking, picks a probing algorithm (by the query class and the runtime
// provenance-structure checks of Sec. IV-D), and probes the peers through an
// oracle until the shareability of the requested output tuples is decided.

#ifndef CONSENTDB_CORE_CONSENT_MANAGER_H_
#define CONSENTDB_CORE_CONSENT_MANAGER_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "consentdb/consent/oracle.h"
#include "consentdb/consent/shared_database.h"
#include "consentdb/eval/evaluate.h"
#include "consentdb/eval/provenance_profile.h"
#include "consentdb/obs/metrics.h"
#include "consentdb/obs/span.h"
#include "consentdb/obs/tracer.h"
#include "consentdb/query/classify.h"
#include "consentdb/query/parser.h"
#include "consentdb/strategy/runner.h"
#include "consentdb/util/clock.h"
#include "consentdb/util/result.h"

namespace consentdb::core {

enum class Algorithm {
  kAuto,  // select by query class + runtime provenance checks (default)
  kRandom,
  kFreq,
  kRo,
  kQValue,
  kGeneral,
  kHybrid,
  kOptimal,  // exponential; small provenance only
};

const char* AlgorithmToString(Algorithm a);

// What RetryPolicy::Decide makes of one faulted probe attempt.
struct RetryDecision {
  enum class Kind : uint8_t {
    kRetry,          // ask again once the clock reaches wake_at_nanos
    kUnavailable,    // lost: the peer is permanently gone
    kExhausted,      // lost: max_attempts attempts were made
    kProbeDeadline,  // lost: the next backoff would overrun the deadline
  };
  Kind kind = Kind::kRetry;
  int64_t backoff_nanos = 0;  // kRetry: the policy's backoff
  int64_t wake_at_nanos = 0;  // kRetry: now + backoff, capped at the deadline
};

// Retry discipline for fallible oracles (Sec. "fault tolerance"). A probe
// that returns a transient fault is retried with exponential backoff until
// it answers, attempts run out, or a deadline expires; a probe that returns
// kUnavailable (peer permanently gone) is never retried. Exhausted probes
// degrade gracefully: the variable is declared unreachable and affected
// tuples resolve to Verdict::kUnresolved instead of aborting the session.
struct RetryPolicy {
  // Maximum oracle attempts per probe, including the first. 0 = unlimited
  // (bound the session with a deadline instead).
  size_t max_attempts = 3;
  // Backoff before retry k (1-based) is
  //   min(initial * multiplier^(k-1), max) * jitter_factor.
  int64_t initial_backoff_nanos = 1'000'000;  // 1ms
  double backoff_multiplier = 2.0;
  int64_t max_backoff_nanos = 1'000'000'000;  // 1s
  // jitter_factor is drawn deterministically from (jitter_seed, variable,
  // attempt) in [1 - jitter, 1 + jitter]; 0 disables jitter entirely.
  double jitter = 0.0;
  uint64_t jitter_seed = 0;
  // Give up on a probe when its next backoff would land past this budget
  // (measured from the probe's first attempt). 0 = no per-probe deadline.
  int64_t probe_deadline_nanos = 0;
  // Stop the whole session (remaining tuples unresolved) once this much
  // time elapsed since the probe loop started. 0 = no session deadline.
  int64_t session_deadline_nanos = 0;

  // The delay before retry `attempt` (1-based) of variable `x`.
  int64_t BackoffNanos(size_t attempt, provenance::VarId x) const;

  // The one retry decision, a pure function: attempt `attempts` (1-based)
  // at `x` faulted with `fault` at `now`; the probe's first attempt was at
  // `probe_start`, the probe loop began at `session_start`.
  RetryDecision Decide(consent::ProbeFault fault, size_t attempts,
                       provenance::VarId x, int64_t now, int64_t probe_start,
                       int64_t session_start) const;

  // Whether the session deadline has passed at `now`.
  bool SessionExpired(int64_t now, int64_t session_start) const;
};

struct SessionOptions {
  Algorithm algorithm = Algorithm::kAuto;
  // Budgets for flattening provenance to DNF and for CNF computation.
  provenance::NormalFormLimits dnf_limits = {};
  provenance::NormalFormLimits cnf_limits = {};
  // Auto selection attempts Q-value only when no tuple has more DNF terms
  // than this (brute-force CNF feasibility, Sec. IV-C).
  size_t qvalue_max_terms = 64;
  uint64_t random_seed = 42;       // for Algorithm::kRandom
  size_t optimal_max_vars = 20;    // for Algorithm::kOptimal

  // Opt-in telemetry. With `metrics` attached the whole pipeline records
  // phase timings and counters (session.*, eval.*, query.*, strategy.*);
  // with `tracer` attached the session logs one structured event per probe
  // (cleared at session start, enriched with peer names/owners at the end).
  // Both default to null — the null sink — which skips every clock read and
  // must not change which probes are issued.
  obs::MetricsRegistry* metrics = nullptr;
  obs::SessionTracer* tracer = nullptr;
  // With `spans` attached the session records a causal timeline of nested
  // spans (session.run > session.select / session.probe > retry.wait, plus
  // wal.* underneath when the ledger journals through a WAL), exportable as
  // Chrome trace-event JSON. Null — the default — skips even the clock
  // read, like the other two sinks.
  obs::SpanCollector* spans = nullptr;

  // Opt-in resilience. Every session probes through ProbeOracle::TryProbe.
  // Unset (the default), the first fault fails the session with
  // kUnavailable and reports carry no resilience fields (byte-identical to
  // pre-resilience builds). Set, faults are retried under this policy and
  // exhausted probes degrade to kUnresolved verdicts.
  std::optional<RetryPolicy> retry;
  // Time source for backoff sleeps and deadlines; null = the real clock.
  // Tests inject a VirtualClock so no wall-clock time ever passes.
  Clock* clock = nullptr;

  // Opt-in durability/resume: when set, every probe of the session routes
  // through this ledger (first touch forwards to the oracle, repeats answer
  // from the ledger; see ConsentLedger). A ledger recovered from its WAL
  // answers every previously journaled variable without peer traffic —
  // that is how a resumed session avoids duplicate probes — while ledger
  // hits still count as session probes (the paper's cost model), so the
  // resumed report is byte-identical to the uninterrupted one. Leave null
  // inside SessionEngine: the engine wires its own shared ledger.
  consent::ConsentLedger* ledger = nullptr;
};

// Shareability verdict for one output tuple.
struct TupleConsent {
  // Three-valued outcome: kUnresolved appears only in resilient sessions
  // whose probes were exhausted by faults (the consent state is genuinely
  // unknown — under possible-world semantics the tuple may or may not be
  // shareable).
  enum class Verdict : uint8_t { kNotShareable, kShareable, kUnresolved };

  relational::Tuple tuple;
  // Conservative boolean view: an unresolved tuple is NOT shareable
  // (consent defaults to deny). shareable == (verdict == kShareable).
  bool shareable = false;
  Verdict verdict = Verdict::kNotShareable;
};

const char* VerdictToString(TupleConsent::Verdict v);

// Why probes failed, by terminal cause (resilient sessions only).
struct FailureBreakdown {
  size_t transient = 0;         // transient faults observed (pre-retry)
  size_t unavailable = 0;       // probes lost to permanently-dead peers
  size_t retries_exhausted = 0; // probes lost to max_attempts
  size_t probe_deadline = 0;    // probes lost to the per-probe deadline
  size_t session_deadline = 0;  // 1 when the session deadline fired

  size_t lost_probes() const {
    return unavailable + retries_exhausted + probe_deadline;
  }
};

struct SessionReport {
  std::vector<TupleConsent> tuples;
  size_t num_probes = 0;
  // Probe sequence: variable, owning peer, answer.
  struct ProbeRecord {
    provenance::VarId variable;
    std::string variable_name;
    std::string owner;
    bool answer;
  };
  std::vector<ProbeRecord> trace;
  std::string algorithm_used;
  std::string selection_rationale;
  // True when the strategy attempted a mid-run residual-CNF attachment that
  // failed its budget (Hybrid wanted Q-value but retreated to General).
  // Distinguishes "Hybrid ran Q-value" from "Hybrid never could" in
  // reports; emitted in ToJson only when set so legacy reports stay
  // byte-identical.
  bool cnf_attach_failed = false;
  // Classification of the plan the session actually evaluated and selected
  // its strategy from (the optimized plan) — the class whose Table I
  // guarantees the session relied on.
  query::QueryProfile query_profile;
  // Classification of the plan as submitted, before optimization. Usually
  // identical; selection pushdown cannot change the fragment letters, but
  // the two are reported separately so they can never silently disagree.
  query::QueryProfile query_profile_submitted;
  // Summary of the provenance structure the session ran on.
  size_t provenance_tuples = 0;
  size_t provenance_max_terms = 0;
  size_t provenance_max_term_size = 0;
  bool provenance_overall_read_once = false;
  bool provenance_per_tuple_read_once = false;

  // --- Resilience (populated only when SessionOptions::retry is set) -------
  // When false, the fields below stay zero and are omitted from ToJson /
  // ToString, keeping legacy reports byte-identical.
  bool resilient = false;
  size_t num_retries = 0;     // repeat oracle attempts beyond the first
  size_t num_unresolved = 0;  // tuples with Verdict::kUnresolved
  FailureBreakdown failures;

  std::string ToString() const;
  // Machine-readable export: algorithm, probes, per-tuple verdicts, trace.
  std::string ToJson() const;
};

// Static analysis bundle (used by examples and the Table I bench).
struct QueryAnalysis {
  query::QueryProfile profile;
  query::Guarantees guarantees;
  eval::ProvenanceProfile provenance;
};

// The oracle-independent prefix of a consent session: the resolved plan
// with its provenance-annotated evaluation over one database state.
// Immutable once built, so concurrent sessions may share one instance —
// this is the unit the session engine's provenance cache stores, keyed by
// (plan fingerprint, database version).
struct PreparedSession {
  query::PlanPtr plan;       // as submitted
  query::PlanPtr effective;  // after optimization
  query::QueryProfile profile;            // classification of `effective`
  query::QueryProfile submitted_profile;  // classification of `plan`
  std::vector<relational::Tuple> tuples;  // output tuples (or the target)
  eval::ProvenanceProfile provenance;     // per-tuple DNFs + structure
  bool single = false;  // built for one target tuple (DecideSingle)
};

class ConsentManager {
 public:
  explicit ConsentManager(const consent::SharedDatabase& sdb) : sdb_(sdb) {}

  // OPT-PEER-PROBE: decides shareability of every output tuple.
  [[nodiscard]] Result<SessionReport> DecideAll(const query::PlanPtr& plan,
                                  consent::ProbeOracle& oracle,
                                  const SessionOptions& options = {}) const;
  [[nodiscard]] Result<SessionReport> DecideAll(std::string_view sql,
                                  consent::ProbeOracle& oracle,
                                  const SessionOptions& options = {}) const;

  // OPT-PEER-PROBE-SINGLE: decides shareability of one output tuple (which
  // must belong to the query result).
  [[nodiscard]] Result<SessionReport> DecideSingle(const query::PlanPtr& plan,
                                     const relational::Tuple& tuple,
                                     consent::ProbeOracle& oracle,
                                     const SessionOptions& options = {}) const;
  [[nodiscard]] Result<SessionReport> DecideSingle(std::string_view sql,
                                     const relational::Tuple& tuple,
                                     consent::ProbeOracle& oracle,
                                     const SessionOptions& options = {}) const;

  // Prepares a query without probing: the classification of the plan it
  // evaluates, its Table I guarantees and its provenance profile.
  [[nodiscard]] Result<QueryAnalysis> Analyze(const query::PlanPtr& plan,
                                const SessionOptions& options = {}) const;

  // --- Split pipeline (used by the session engine's caches) -----------------

  // The oracle-independent phase: optimizes, evaluates with provenance
  // tracking (only the target's provenance when `single` is set), flattens
  // to DNF and classifies. The result depends only on the plan and the
  // current database content, never on an oracle. A `single` tuple outside
  // the query result is NotFound.
  [[nodiscard]] Result<PreparedSession> Prepare(const query::PlanPtr& plan,
                                  std::optional<relational::Tuple> single,
                                  const SessionOptions& options = {}) const;
  // Same, with the optimized plan supplied by the caller (the engine's plan
  // cache).
  [[nodiscard]] Result<PreparedSession> PrepareResolved(
      const query::PlanPtr& plan, const query::PlanPtr& effective,
      std::optional<relational::Tuple> single,
      const SessionOptions& options = {}) const;

  // The probing phase: strategy selection and the probe loop over an
  // already-prepared session. Safe to call concurrently from multiple
  // threads on one shared `prepared` (each call builds its own
  // EvaluationState) as long as the database and its variable pool are not
  // mutated meanwhile and each concurrent call uses its own tracer.
  [[nodiscard]] Result<SessionReport> RunPrepared(const PreparedSession& prepared,
                                    consent::ProbeOracle& oracle,
                                    const SessionOptions& options = {}) const;

  const consent::SharedDatabase& shared_database() const { return sdb_; }

 private:
  [[nodiscard]] Result<SessionReport> RunSession(const query::PlanPtr& plan,
                                   std::optional<relational::Tuple> single,
                                   consent::ProbeOracle& oracle,
                                   const SessionOptions& options) const;
  [[nodiscard]] Result<SessionReport> FinishSession(const PreparedSession& prepared,
                                      consent::ProbeOracle& oracle,
                                      const SessionOptions& options,
                                      int64_t session_start) const;

  const consent::SharedDatabase& sdb_;
};

// --- Session internals --------------------------------------------------------
//
// The steps AsyncConsentSession composes into a session, exposed so that
// the session benchmark (perfbench/) can time each one on its own. Not part
// of the public API surface.
namespace internal {

// A chosen probing strategy plus the explanation reports carry.
struct StrategySelection {
  std::unique_ptr<strategy::ProbeStrategy> strategy;
  std::string rationale;
};

// Strategy selection (Sec. IV-D runtime checks over Table I guarantees).
// May attach CNFs to `state` as a side effect (Q-value paths).
[[nodiscard]] Result<StrategySelection> SelectSessionStrategy(
    Algorithm algorithm, const eval::ProvenanceProfile& profile,
    bool single_tuple, const SessionOptions& options,
    const std::vector<double>& pi, strategy::EvaluationState* state);

// What the probe loop produced, independent of how it was driven.
struct ProbePhase {
  size_t num_probes = 0;
  std::vector<provenance::Truth> outcomes;
  std::vector<std::pair<provenance::VarId, bool>> trace;
  bool resilient = false;
  size_t num_retries = 0;
  FailureBreakdown failures;
};

// Builds the SessionReport from a finished probe phase: verdicts, trace
// enrichment with peer names/owners, and the session.* report metrics.
SessionReport AssembleReport(const consent::SharedDatabase& sdb,
                             const PreparedSession& prepared,
                             const StrategySelection& sel, ProbePhase phase,
                             const SessionOptions& options);

}  // namespace internal

}  // namespace consentdb::core

#endif  // CONSENTDB_CORE_CONSENT_MANAGER_H_
