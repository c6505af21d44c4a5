#include "consentdb/strategy/batch_runner.h"

#include "consentdb/util/check.h"

namespace consentdb::strategy {

BatchProbeRun RunToCompletionBatched(EvaluationState& state,
                                     const StrategyFactory& factory,
                                     const ProbeFn& probe, size_t batch_size,
                                     const RunInstrumentation& instr) {
  CONSENTDB_CHECK(batch_size >= 1, "batch size must be positive");
  BatchProbeRun run;
  obs::Histogram* plan_ns = obs::MaybeHistogram(instr.metrics, "batch.plan_ns");
  while (!state.AllDecided()) {
    // Plan the round on a scratch copy under most-likely answers.
    std::vector<VarId> batch;
    const int64_t t0 = instr.enabled() ? obs::MonotonicNanos() : 0;
    {
      EvaluationState scratch = state;
      std::unique_ptr<ProbeStrategy> planner = factory();
      while (batch.size() < batch_size && !scratch.AllDecided()) {
        VarId x = planner->ChooseNext(scratch);
        CONSENTDB_CHECK(scratch.IsUseful(x),
                        "planner chose a useless variable");
        batch.push_back(x);
        bool guess = scratch.probability(x) >= 0.5;
        scratch.Assign(x, guess);
        planner->OnAnswer(scratch, x, guess);
      }
    }
    const int64_t planning = instr.enabled() ? obs::MonotonicNanos() - t0 : 0;
    if (plan_ns != nullptr) plan_ns->Observe(static_cast<uint64_t>(planning));
    CONSENTDB_CHECK(!batch.empty(), "empty batch with undecided formulas");
    // Send the batch: every planned probe is sent and counts, even those
    // made redundant by earlier answers of the same round.
    bool planning_attributed = false;
    for (VarId x : batch) {
      bool answer = probe(x);
      ++run.num_probes;
      if (state.var_value(x) == Truth::kUnknown) state.Assign(x, answer);
      obs::Increment(instr.metrics, "batch.probes");
      if (instr.tracer != nullptr) {
        obs::ProbeEvent ev;
        ev.probe_index = run.num_probes - 1;
        ev.variable = x;
        ev.answer = answer;
        // Planning time is a per-round cost; attribute it to the round's
        // first sent probe so event sums match wall time.
        ev.decision_nanos = planning_attributed ? 0 : planning;
        ev.formulas_decided = state.num_formulas() - state.num_undecided();
        ev.formulas_remaining = state.num_undecided();
        instr.tracer->OnProbe(std::move(ev));
      }
      planning_attributed = true;
    }
    // Commit the round only after every probe of it returned: a failing
    // oracle mid-round must not inflate the round count (probes already
    // count one-by-one, strictly after each successful return).
    ++run.num_rounds;
    obs::Increment(instr.metrics, "batch.rounds");
  }
  run.outcomes = state.FormulaValues();
  return run;
}

BudgetedProbeRun RunWithBudget(EvaluationState& state, ProbeStrategy& strategy,
                               const ProbeFn& probe, size_t max_probes,
                               const RunInstrumentation& instr) {
  BudgetedProbeRun run;
  SessionStepper stepper(state, strategy, instr);
  while (run.num_probes < max_probes) {
    std::optional<VarId> x = stepper.Next();
    if (!x.has_value()) break;
    stepper.OnAnswer(probe(*x));
    ++run.num_probes;
  }
  run.outcomes = state.FormulaValues();
  for (Truth t : run.outcomes) {
    if (t != Truth::kUnknown) ++run.num_decided;
  }
  return run;
}

}  // namespace consentdb::strategy
