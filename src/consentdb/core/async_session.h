// AsyncConsentSession: one consent session as a resumable object, advanced
// by events instead of blocking oracle calls. It is the only session state
// machine: Pump() says what the session needs next (probe a variable, wait
// until a time, done), OnAnswer/OnFault feed in what happened, and
// RetryPolicy::Decide turns a fault into a lost variable or a backoff parked
// on the injected clock (without a policy, a fault fails the session).
//
// Two drivers run it:
//   * ConsentManager drives it inline: kProbe makes one TryProbe attempt
//     and feeds the answer or fault straight back; kWait sleeps on the
//     session clock inside a retry.wait span.
//   * ProbeServer parks it between network events: kProbe ships a
//     ProbeRequest, the client's answer or fault arrives on a later poll,
//     and kWait is a timer. One thread thus keeps every session moving.
//
// Ledger integration differs by driver. ConsentManager interposes a
// LedgerOracle and runs the session itself without a ledger: the ledger
// holds its lock across the peer call, which is what stops concurrent
// sessions from asking a peer twice. The server, whose answers arrive
// later, hands the session the ledger instead: a variable already in the
// ledger resolves instantly (a ledger *hit*, still counted as a session
// probe per the paper's cost model), a fresh network answer is recorded
// through TryProbeVia so it is journaled and tallied as an oracle probe,
// and faulted attempts leave no trace. That shared ledger is what makes
// resume safe: re-opening a session after a connection loss replays its
// journaled answers without ever re-probing a peer.

#ifndef CONSENTDB_CORE_ASYNC_SESSION_H_
#define CONSENTDB_CORE_ASYNC_SESSION_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "consentdb/core/consent_manager.h"

namespace consentdb::core {

class AsyncConsentSession {
 public:
  // What the session needs next.
  struct Step {
    enum class Kind : uint8_t {
      kProbe,  // probe `variable` (ask its owner)
      kWait,   // nothing to do until the clock reaches `wake_at_nanos`
      kDone,   // finished; report() is available
    };
    Kind kind = Kind::kDone;
    provenance::VarId variable = 0;  // kProbe only
    int64_t wake_at_nanos = 0;       // kWait only
  };

  // Builds the session over an already-prepared query: evaluation state,
  // strategy selection (in a session.select span), the algorithm metric and
  // the tracer's algorithm. `prepared`, the database, and every pointer in
  // `options` must outlive the session. `options.spans` must be null unless
  // the session is driven to completion on one thread (see SessionStepper).
  static Result<std::unique_ptr<AsyncConsentSession>> Create(
      const consent::SharedDatabase& sdb, const PreparedSession& prepared,
      const SessionOptions& options);

  // Advances as far as possible without external input and reports the next
  // need. Idempotent: while a probe is outstanding it returns the same
  // kProbe again (safe to call after a resume to re-issue the request).
  Step Pump();

  // The owner's answer for variable `x`. Answers for variables that are
  // not the outstanding probe are ignored — duplicate deliveries and
  // answers racing a reconnect are harmless.
  void OnAnswer(provenance::VarId x, bool answer);

  // A probe attempt for `x` failed. In a resilient session
  // RetryPolicy::Decide rules on it (a backoff becomes a kWait park); in a
  // non-resilient session any fault fails the whole session.
  void OnFault(provenance::VarId x, consent::ProbeFault fault);

  // The session deadline fired (resilient sessions only): undecided tuples
  // degrade to kUnresolved and the next Pump() completes the report.
  void Expire();

  bool done() const { return done_; }
  bool resilient() const { return resilient_; }
  // Attempts made so far at the outstanding probe.
  size_t attempts() const { return attempts_; }

  // The finished report (or the error that ended the session); the caller
  // may move it out. Only valid once Pump() returned kDone.
  Result<SessionReport>& report();

 private:
  AsyncConsentSession(const consent::SharedDatabase& sdb,
                      const PreparedSession& prepared,
                      const SessionOptions& options);

  void Finish();

  const consent::SharedDatabase& sdb_;
  const PreparedSession& prepared_;
  SessionOptions options_;
  const bool resilient_;
  RetryPolicy policy_;  // meaningful only when resilient_
  Clock* clock_;
  int64_t session_start_ = 0;

  std::vector<double> pi_;
  std::unique_ptr<strategy::EvaluationState> state_;
  internal::StrategySelection sel_;
  std::unique_ptr<strategy::SessionStepper> stepper_;

  // Outstanding probe, if any, with its retry bookkeeping.
  std::optional<provenance::VarId> awaiting_;
  size_t attempts_ = 0;
  int64_t probe_start_ = 0;
  std::optional<int64_t> wake_at_;  // parked backoff (awaiting_ stays set)

  size_t num_retries_ = 0;
  FailureBreakdown failures_;

  // Retry metrics, hoisted once (resilient sessions only).
  obs::Counter* retries_ = nullptr;
  obs::Counter* transient_ = nullptr;
  obs::Counter* unavailable_ = nullptr;
  obs::Counter* exhausted_ = nullptr;
  obs::Counter* deadline_ = nullptr;
  obs::Histogram* backoff_ns_ = nullptr;

  bool expired_ = false;  // deadline fired; the stepper was told once
  bool done_ = false;
  std::optional<Result<SessionReport>> report_;
};

}  // namespace consentdb::core

#endif  // CONSENTDB_CORE_ASYNC_SESSION_H_
