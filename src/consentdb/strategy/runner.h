// The probing session loop: repeatedly ask the strategy for a variable,
// probe it, and apply the answer until every formula is decided.

#ifndef CONSENTDB_STRATEGY_RUNNER_H_
#define CONSENTDB_STRATEGY_RUNNER_H_

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "consentdb/obs/metrics.h"
#include "consentdb/obs/span.h"
#include "consentdb/obs/tracer.h"
#include "consentdb/strategy/strategies.h"

namespace consentdb::strategy {

// Answers a probe for variable x; must be consistent across calls.
using ProbeFn = std::function<bool(VarId)>;

// Opt-in telemetry sinks for a probing session. All default to null, in
// which case the loop records no timings and reads no clocks; attaching
// any of them must not change which probes are issued (verified by tests).
struct RunInstrumentation {
  obs::MetricsRegistry* metrics = nullptr;
  obs::SessionTracer* tracer = nullptr;
  // One session.probe span per probe (deliberation + oracle round-trip,
  // with retry.wait spans nested inside on the resilient path).
  obs::SpanCollector* spans = nullptr;

  // Whether the per-probe deliberation clock must run. A span-only session
  // counts too: the session.probe spans embed the probe events' decision
  // timings and residual-term counts, which would otherwise read as zero.
  bool enabled() const {
    return metrics != nullptr || tracer != nullptr || spans != nullptr;
  }
};

struct ProbeRun {
  // Total probes issued — the cost the paper optimises.
  size_t num_probes = 0;
  // Sum of per-variable probe costs (== num_probes under unit costs).
  double total_cost = 0.0;
  // Final truth value of every formula (none Unknown).
  std::vector<Truth> outcomes;
  // The probe sequence with answers, in order. Derived from the session's
  // tracer events (runner.cc records each probe exactly once), so this view
  // and SessionTracer::events() cannot diverge.
  std::vector<std::pair<VarId, bool>> trace;
};

// Runs `strategy` on `state` until all formulas are decided. Checks the
// invariants every strategy must satisfy: each chosen variable is useful and
// never probed twice. With instrumentation attached, records one ProbeEvent
// per probe (decision wall-time, residual-formula shape) and bumps
// probe/decision metrics.
ProbeRun RunToCompletion(EvaluationState& state, ProbeStrategy& strategy,
                         const ProbeFn& probe,
                         const RunInstrumentation& instr = {});

// Convenience overload reading answers from a fixed hidden valuation (must
// cover every variable of the formulas).
ProbeRun RunToCompletion(EvaluationState& state, ProbeStrategy& strategy,
                         const PartialValuation& hidden,
                         const RunInstrumentation& instr = {});

// --- Resilient session loop (fault-tolerant probing) ------------------------

// What became of one probe request after the caller's retry policy ran its
// course.
enum class ProbeOutcome : uint8_t {
  kAnswered,        // the peer answered; `answer` is valid
  kVariableLost,    // retries/deadline exhausted or peer gone — give up on x
  kSessionExpired,  // the whole session hit its deadline — stop probing
};

struct FallibleProbe {
  ProbeOutcome outcome = ProbeOutcome::kAnswered;
  bool answer = false;
};

// A probe that may fail permanently. Implementations own retrying: by the
// time they return kVariableLost the variable is unrecoverable for this
// session.
using FallibleProbeFn = std::function<FallibleProbe(VarId)>;

struct ResilientProbeRun {
  // Successfully answered probes only; lost attempts are not counted.
  size_t num_probes = 0;
  // Sum of per-variable costs over *answered* probes.
  double total_cost = 0.0;
  // Final truth value of every formula; kUnknown marks formulas that could
  // not be decided because every path to them ran through a lost variable.
  std::vector<Truth> outcomes;
  // Answered probes with answers, in order (lost probes leave no trace —
  // they produced no information).
  std::vector<std::pair<VarId, bool>> trace;
  // Variables given up on (MarkUnreachable was applied for each).
  size_t num_lost = 0;
  // True when the loop stopped on kSessionExpired rather than convergence.
  bool session_expired = false;
};

// Fault-tolerant variant of RunToCompletion: probes until every formula is
// decided OR no useful variable remains (lost variables cut all remaining
// paths) OR the probe fn reports session expiry. With a fault-free probe fn
// this issues the byte-identical probe sequence of RunToCompletion.
ResilientProbeRun RunToCompletionResilient(EvaluationState& state,
                                           ProbeStrategy& strategy,
                                           const FallibleProbeFn& probe,
                                           const RunInstrumentation& instr = {});

// --- The probe loop ------------------------------------------------------------

// The one probing session loop, with the control flow turned inside out:
// instead of calling a probe function and blocking, the stepper *emits* the
// variable it wants probed and parks until the caller reports what happened.
// RunToCompletion, RunToCompletionResilient and RunWithBudget are short
// drivers over it, and it is what lets ProbeServer keep hundreds of sessions
// in flight on one thread — each session advances only when its client's
// answer arrives.
//
//   while (auto x = stepper.Next()) {        // nullopt == finished
//     ... ship ProbeRequest(*x), await the client ...
//     stepper.OnAnswer(answer);              // or OnVariableLost()
//   }
//   ResilientProbeRun run = stepper.Take();
//
// Next() is idempotent: until the pending variable is resolved by OnAnswer /
// OnVariableLost it returns the same id again (safe to call after a resume).
//
// With `instr.spans` attached, one session.probe span stays open from the
// Next() that chooses a variable until that probe resolves, so spans opened
// meanwhile on the same thread (retry waits, WAL appends) nest under it.
// Spans are thread-scoped: a stepper that parks across threads or event-loop
// turns (the server's) must run with `instr.spans` null.
class SessionStepper {
 public:
  SessionStepper(EvaluationState& state, ProbeStrategy& strategy,
                 const RunInstrumentation& instr = {});

  // The variable to probe next, or nullopt once the session has finished
  // (all formulas decided, no useful variable left, or expired).
  std::optional<VarId> Next();

  // Resolves the pending probe with the owner's answer.
  void OnAnswer(bool answer);

  // Resolves the pending probe as permanently lost (retries exhausted).
  void OnVariableLost();

  // Aborts the session: the next Next() finishes with session_expired set.
  // May be called with or without a pending probe.
  void OnSessionExpired();

  // The completed run; call only after Next() returned nullopt.
  ResilientProbeRun Take();

 private:
  void Finish();

  EvaluationState& state_;
  ProbeStrategy& strategy_;
  RunInstrumentation instr_;
  // Records the probes when no tracer is attached, so the run's trace and
  // a tracer's events always come from the same code path.
  obs::SessionTracer local_tracer_;
  obs::SessionTracer* tracer_;
  size_t first_event_;
  bool instrumented_;

  obs::Counter* probe_count_ = nullptr;
  obs::Counter* answer_true_ = nullptr;
  obs::Counter* answer_false_ = nullptr;
  obs::Histogram* decision_ns_ = nullptr;

  std::optional<VarId> pending_;
  std::optional<obs::Span> probe_span_;  // open while pending_ (spans only)
  int64_t pending_deliberation_ = 0;
  bool expired_ = false;
  bool finished_ = false;
  ResilientProbeRun run_;
};

}  // namespace consentdb::strategy

#endif  // CONSENTDB_STRATEGY_RUNNER_H_
