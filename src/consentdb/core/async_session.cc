#include "consentdb/core/async_session.h"

#include <algorithm>

#include "consentdb/obs/names.h"
#include "consentdb/util/check.h"

namespace consentdb::core {

using consent::ProbeAttempt;
using consent::ProbeFault;
using provenance::VarId;

namespace {

// Hands the ledger an answer (or fault) that arrived over the network, as
// if it were a live oracle: ledger.TryProbeVia(OneShotOracle, x) records and
// journals the answer with exactly the accounting a blocking session gets
// from LedgerOracle.
class OneShotOracle : public consent::ProbeOracle {
 public:
  explicit OneShotOracle(ProbeAttempt attempt) : attempt_(attempt) {}

  bool Probe(VarId) override {
    CONSENTDB_CHECK(attempt_.ok(), "faulted attempt reached Probe()");
    ++count_;
    return attempt_.answer;
  }
  ProbeAttempt TryProbe(VarId) override {
    ++count_;
    return attempt_;
  }
  size_t probe_count() const override { return count_; }

 private:
  const ProbeAttempt attempt_;
  size_t count_ = 0;
};

// Backs ledger lookups that must be hits: reaching the oracle would mean
// the ledger forgot an answer it was just seen holding.
class UnreachableOracle : public consent::ProbeOracle {
 public:
  bool Probe(VarId x) override {
    CONSENTDB_CHECK(false,
                    "ledger lost the answer for x" + std::to_string(x));
    return false;
  }
  size_t probe_count() const override { return 0; }
};

}  // namespace

AsyncConsentSession::AsyncConsentSession(const consent::SharedDatabase& sdb,
                                         const PreparedSession& prepared,
                                         const SessionOptions& options)
    : sdb_(sdb),
      prepared_(prepared),
      options_(options),
      resilient_(options.retry.has_value()),
      policy_(options.retry.value_or(RetryPolicy{})),
      clock_(options.clock != nullptr ? options.clock : RealClock()) {}

Result<std::unique_ptr<AsyncConsentSession>> AsyncConsentSession::Create(
    const consent::SharedDatabase& sdb, const PreparedSession& prepared,
    const SessionOptions& options) {
  std::unique_ptr<AsyncConsentSession> s(
      new AsyncConsentSession(sdb, prepared, options));
  obs::MetricsRegistry* metrics = options.metrics;
  const eval::ProvenanceProfile& profile = prepared.provenance;
  s->pi_ = sdb.pool().Probabilities();
  s->state_ =
      std::make_unique<strategy::EvaluationState>(profile.dnfs, s->pi_);
  {
    obs::ScopedTimer timer(obs::MaybeHistogram(metrics, "session.select_ns"));
    obs::Span span(options.spans, obs::names::kSpanSessionSelect);
    CONSENTDB_ASSIGN_OR_RETURN(
        s->sel_, internal::SelectSessionStrategy(options.algorithm, profile,
                                                 prepared.single, options,
                                                 s->pi_, s->state_.get()));
  }
  if (metrics != nullptr) {
    obs::Increment(metrics,
                   ("session.algorithm." + s->sel_.strategy->name()).c_str());
  }
  if (options.tracer != nullptr) {
    options.tracer->set_algorithm(s->sel_.strategy->name());
  }
  if (s->resilient_) {
    // The session deadline counts from here, when the probe loop starts.
    s->session_start_ = s->clock_->NowNanos();
    if (metrics != nullptr) {
      s->retries_ = metrics->GetCounter("retry.count");
      s->transient_ = metrics->GetCounter("retry.transient");
      s->unavailable_ = metrics->GetCounter("retry.unavailable");
      s->exhausted_ = metrics->GetCounter("retry.exhausted");
      s->deadline_ = metrics->GetCounter("retry.deadline");
      s->backoff_ns_ = metrics->GetHistogram("retry.backoff_ns",
                                             obs::RetryBackoffBuckets());
    }
  }

  strategy::RunInstrumentation instr;
  instr.metrics = metrics;
  instr.tracer = options.tracer;
  instr.spans = options.spans;
  s->stepper_ = std::make_unique<strategy::SessionStepper>(
      *s->state_, *s->sel_.strategy, instr);
  return s;
}

void AsyncConsentSession::ResolveFromLedger(VarId x) {
  // The ledger already holds x: resolve without client traffic, through the
  // same ProbeVia path a blocking session takes so hit tallies move.
  UnreachableOracle unreachable;
  bool answer;
  if (resilient_) {
    answer = options_.ledger->TryProbeVia(unreachable, x).answer;
  } else {
    answer = options_.ledger->ProbeVia(unreachable, x);
  }
  stepper_->OnAnswer(answer);
}

AsyncConsentSession::Step AsyncConsentSession::Pump() {
  while (true) {
    if (done_) return Step{Step::Kind::kDone, 0, 0};
    if (wake_at_.has_value()) {
      if (clock_->NowNanos() < *wake_at_) {
        return Step{Step::Kind::kWait, 0, *wake_at_};
      }
      wake_at_.reset();  // backoff over; the probe below re-issues
    }
    std::optional<VarId> x = stepper_->Next();
    if (!x.has_value()) {
      Finish();
      return Step{Step::Kind::kDone, 0, 0};
    }
    // The session deadline is checked before every attempt (a backoff
    // never parks past it), but not once nothing is left to probe.
    if (resilient_ && policy_.session_deadline_nanos > 0 &&
        clock_->NowNanos() - session_start_ >= policy_.session_deadline_nanos) {
      Expire();
      continue;
    }
    if (awaiting_ == x) return Step{Step::Kind::kProbe, *x, 0};
    if (options_.ledger != nullptr &&
        options_.ledger->Lookup(*x).has_value()) {
      ResolveFromLedger(*x);
      continue;
    }
    awaiting_ = *x;
    attempts_ = 0;
    if (resilient_) probe_start_ = clock_->NowNanos();
    return Step{Step::Kind::kProbe, *x, 0};
  }
}

void AsyncConsentSession::OnAnswer(VarId x, bool answer) {
  if (done_ || awaiting_ != x) return;  // stale or duplicate delivery
  awaiting_.reset();
  wake_at_.reset();
  ++attempts_;
  bool final_answer = answer;
  if (options_.ledger != nullptr) {
    // Record through the ledger so the answer is journaled and tallied; if
    // another session answered x meanwhile, the ledger's (consistent)
    // answer wins and this counts as a hit, exactly as under LedgerOracle.
    OneShotOracle shot(ProbeAttempt::Answered(answer));
    if (resilient_) {
      final_answer = options_.ledger->TryProbeVia(shot, x).answer;
    } else {
      final_answer = options_.ledger->ProbeVia(shot, x);
    }
  }
  stepper_->OnAnswer(final_answer);
}

void AsyncConsentSession::OnFault(VarId x, ProbeFault fault) {
  if (done_ || awaiting_ != x) return;
  CONSENTDB_CHECK(fault != ProbeFault::kNone, "OnFault with kNone");
  if (!resilient_) {
    // The legacy pipeline has no notion of a failed probe; the session dies.
    awaiting_.reset();
    report_ = Status::Unavailable("probe for x" + std::to_string(x) +
                                  " faulted in a non-resilient session");
    done_ = true;
    return;
  }
  ++attempts_;
  if (options_.ledger != nullptr) {
    // Mirror LedgerOracle: the faulted attempt flows through TryProbeVia so
    // faulted_probes tallies move — and if another session has answered x
    // meanwhile, the ledger answers and the fault is moot.
    OneShotOracle shot(ProbeAttempt::Faulted(fault));
    ProbeAttempt attempt = options_.ledger->TryProbeVia(shot, x);
    if (attempt.ok()) {
      awaiting_.reset();
      wake_at_.reset();
      stepper_->OnAnswer(attempt.answer);
      return;
    }
    fault = attempt.fault;
  }
  if (fault == ProbeFault::kUnavailable) {
    ++failures_.unavailable;
    if (unavailable_ != nullptr) unavailable_->Add();
    awaiting_.reset();
    stepper_->OnVariableLost();
    return;
  }
  ++failures_.transient;
  if (transient_ != nullptr) transient_->Add();
  if (policy_.max_attempts > 0 && attempts_ >= policy_.max_attempts) {
    ++failures_.retries_exhausted;
    if (exhausted_ != nullptr) exhausted_->Add();
    awaiting_.reset();
    stepper_->OnVariableLost();
    return;
  }
  const int64_t now = clock_->NowNanos();
  const int64_t backoff = policy_.BackoffNanos(attempts_, x);
  if (policy_.probe_deadline_nanos > 0 &&
      now + backoff - probe_start_ > policy_.probe_deadline_nanos) {
    ++failures_.probe_deadline;
    if (deadline_ != nullptr) deadline_->Add();
    awaiting_.reset();
    stepper_->OnVariableLost();
    return;
  }
  ++num_retries_;
  if (retries_ != nullptr) retries_->Add();
  if (backoff_ns_ != nullptr) {
    backoff_ns_->Observe(static_cast<uint64_t>(backoff));
  }
  // Park until the backoff is over, but never past the session deadline: a
  // full backoff that overshoots it would stall the expiry (and, served
  // over the network, the client's error) until the wait ran out.
  int64_t wait_nanos = backoff;
  if (policy_.session_deadline_nanos > 0) {
    const int64_t remaining =
        session_start_ + policy_.session_deadline_nanos - now;
    wait_nanos = std::min(wait_nanos, remaining > 0 ? remaining : 0);
  }
  wake_at_ = now + wait_nanos;
}

void AsyncConsentSession::Expire() {
  CONSENTDB_CHECK(resilient_, "Expire() on a non-resilient session");
  if (done_ || expired_) return;
  expired_ = true;
  failures_.session_deadline = 1;
  awaiting_.reset();
  wake_at_.reset();
  stepper_->OnSessionExpired();
}

void AsyncConsentSession::Finish() {
  strategy::ResilientProbeRun run = stepper_->Take();
  internal::ProbePhase phase;
  phase.num_probes = run.num_probes;
  phase.outcomes = std::move(run.outcomes);
  phase.trace = std::move(run.trace);
  phase.resilient = resilient_;
  phase.num_retries = num_retries_;
  phase.failures = failures_;
  report_ = internal::AssembleReport(sdb_, prepared_, sel_, std::move(phase),
                                     options_);
  if (options_.tracer != nullptr) {
    for (obs::ProbeEvent& ev : options_.tracer->mutable_events()) {
      ev.variable_name = sdb_.pool().name(ev.variable);
      ev.owner = sdb_.pool().owner(ev.variable);
    }
  }
  done_ = true;
}

Result<SessionReport>& AsyncConsentSession::report() {
  CONSENTDB_CHECK(done_, "session still running");
  CONSENTDB_CHECK(report_.has_value(), "finished session without a report");
  return *report_;
}

}  // namespace consentdb::core
