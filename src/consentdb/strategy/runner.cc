#include "consentdb/strategy/runner.h"

#include "consentdb/obs/names.h"
#include "consentdb/util/check.h"

namespace consentdb::strategy {

namespace {

size_t CountLiveTerms(const EvaluationState& state) {
  size_t live = 0;
  state.ForEachLiveTerm([&live](size_t) { ++live; });
  return live;
}

}  // namespace

ProbeRun RunToCompletion(EvaluationState& state, ProbeStrategy& strategy,
                         const ProbeFn& probe,
                         const RunInstrumentation& instr) {
  SessionStepper stepper(state, strategy, instr);
  while (std::optional<VarId> x = stepper.Next()) stepper.OnAnswer(probe(*x));
  ResilientProbeRun run = stepper.Take();
  return ProbeRun{run.num_probes, run.total_cost, std::move(run.outcomes),
                  std::move(run.trace)};
}

ResilientProbeRun RunToCompletionResilient(EvaluationState& state,
                                           ProbeStrategy& strategy,
                                           const FallibleProbeFn& probe,
                                           const RunInstrumentation& instr) {
  SessionStepper stepper(state, strategy, instr);
  while (std::optional<VarId> x = stepper.Next()) {
    const FallibleProbe result = probe(*x);
    switch (result.outcome) {
      case ProbeOutcome::kAnswered:
        stepper.OnAnswer(result.answer);
        break;
      case ProbeOutcome::kVariableLost:
        stepper.OnVariableLost();
        break;
      case ProbeOutcome::kSessionExpired:
        stepper.OnSessionExpired();
        break;
    }
  }
  return stepper.Take();
}

SessionStepper::SessionStepper(EvaluationState& state, ProbeStrategy& strategy,
                               const RunInstrumentation& instr)
    : state_(state),
      strategy_(strategy),
      instr_(instr),
      tracer_(instr.tracer != nullptr ? instr.tracer : &local_tracer_),
      first_event_(tracer_->events().size()),
      instrumented_(instr.enabled()) {
  // Hoist instrument pointers once; per-probe updates are then lock-free.
  if (instr_.metrics != nullptr) {
    probe_count_ = instr_.metrics->GetCounter("probe.count");
    answer_true_ = instr_.metrics->GetCounter("probe.answer_true");
    answer_false_ = instr_.metrics->GetCounter("probe.answer_false");
    decision_ns_ = instr_.metrics->GetHistogram("strategy.decision_ns");
  }
}

std::optional<VarId> SessionStepper::Next() {
  if (finished_) return std::nullopt;
  if (expired_) {
    run_.session_expired = true;
    Finish();
    return std::nullopt;
  }
  if (pending_.has_value()) return pending_;
  // Only a lost variable can make every remaining path undecidable, so the
  // scan is skipped entirely on the (common) fault-free trajectory.
  if (state_.AllDecided() ||
      (run_.num_lost > 0 && !state_.HasUsefulVar())) {
    Finish();
    return std::nullopt;
  }
  if (instr_.spans != nullptr) {
    probe_span_.emplace(instr_.spans, obs::names::kSpanSessionProbe);
  }
  const int64_t t0 = instrumented_ ? obs::MonotonicNanos() : 0;
  VarId x = strategy_.ChooseNext(state_);
  pending_deliberation_ = instrumented_ ? obs::MonotonicNanos() - t0 : 0;
  CONSENTDB_CHECK(state_.IsUseful(x),
                  "strategy '" + strategy_.name() +
                      "' chose a useless or known variable: x" +
                      std::to_string(x));
  if (probe_span_.has_value()) {
    probe_span_->SetArg(obs::names::kArgVariable, x);
  }
  pending_ = x;
  return pending_;
}

void SessionStepper::OnAnswer(bool answer) {
  CONSENTDB_CHECK(pending_.has_value(), "no probe pending");
  const VarId x = *pending_;
  pending_.reset();
  state_.Assign(x, answer);
  strategy_.OnAnswer(state_, x, answer);
  ++run_.num_probes;
  run_.total_cost += state_.cost(x);

  obs::ProbeEvent ev;
  ev.probe_index = run_.num_probes - 1;
  ev.variable = x;
  ev.answer = answer;
  ev.decision_nanos = pending_deliberation_;
  ev.formulas_decided = state_.num_formulas() - state_.num_undecided();
  ev.formulas_remaining = state_.num_undecided();
  if (instrumented_) ev.residual_terms = CountLiveTerms(state_);
  tracer_->OnProbe(std::move(ev));

  if (instr_.metrics != nullptr) {
    probe_count_->Add();
    (answer ? answer_true_ : answer_false_)->Add();
    decision_ns_->Observe(static_cast<uint64_t>(pending_deliberation_));
  }
  probe_span_.reset();
}

void SessionStepper::OnVariableLost() {
  CONSENTDB_CHECK(pending_.has_value(), "no probe pending");
  state_.MarkUnreachable(*pending_);
  pending_.reset();
  ++run_.num_lost;
  obs::Increment(instr_.metrics, "probe.lost_vars");
  probe_span_.reset();
}

void SessionStepper::OnSessionExpired() {
  pending_.reset();
  expired_ = true;
  probe_span_.reset();
}

void SessionStepper::Finish() {
  run_.outcomes = state_.FormulaValues();
  const std::vector<obs::ProbeEvent>& events = tracer_->events();
  run_.trace.reserve(events.size() - first_event_);
  for (size_t i = first_event_; i < events.size(); ++i) {
    run_.trace.emplace_back(events[i].variable, events[i].answer);
  }
  finished_ = true;
}

ResilientProbeRun SessionStepper::Take() {
  CONSENTDB_CHECK(finished_, "session still running");
  return std::move(run_);
}

ProbeRun RunToCompletion(EvaluationState& state, ProbeStrategy& strategy,
                         const PartialValuation& hidden,
                         const RunInstrumentation& instr) {
  return RunToCompletion(
      state, strategy,
      [&hidden](VarId x) {
        Truth t = hidden.Get(x);
        CONSENTDB_CHECK(t != Truth::kUnknown,
                        "hidden valuation does not cover x" +
                            std::to_string(x));
        return t == Truth::kTrue;
      },
      instr);
}

}  // namespace consentdb::strategy
