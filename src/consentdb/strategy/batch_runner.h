// Extensions of the probing loop from Sec. VII ("Different models for
// probes and answers" / "Different problem variants"):
//
//  * Batched probing — send up to `batch_size` probes per round without
//    waiting for answers, trading extra probes for fewer latency rounds.
//    Later probes of a round are chosen by simulating the strategy under
//    the most likely answers to the earlier ones.
//  * Budgeted probing — stop after a fixed number of probes and report
//    which formulas were decided (the "optimize the number of evaluated
//    expressions for a fixed number of probes" variant).

#ifndef CONSENTDB_STRATEGY_BATCH_RUNNER_H_
#define CONSENTDB_STRATEGY_BATCH_RUNNER_H_

#include "consentdb/strategy/runner.h"

namespace consentdb::strategy {

struct BatchProbeRun {
  // Total probes sent (>= the sequential optimum: some probes in a batch
  // can be made redundant by the answers to earlier ones).
  size_t num_probes = 0;
  // Latency rounds: batches sent.
  size_t num_rounds = 0;
  // Probes planned but not sent (skip_answered accounting only).
  size_t num_skipped = 0;
  std::vector<Truth> outcomes;
};

// Runs `factory`-built strategies in rounds of up to `batch_size` probes.
// Within a round, the strategy's subsequent picks are derived on a scratch
// copy of the state under the most-likely-answer assumption (x assumed True
// iff pi(x) >= 0.5). batch_size == 1 degenerates to sequential probing.
// With instrumentation attached, per-round planning time goes to the
// "batch.plan_ns" histogram and every sent probe becomes a tracer event.
//
// `skip_answered` selects the round's send-time accounting:
//   * false (default, the paper's model): the whole planned batch is sent —
//     every sent probe counts, even those made redundant (their variable
//     answered or their formulas decided) by earlier answers of the same
//     round.
//   * true: before sending each planned probe, the variable is re-checked
//     against the REAL state; probes whose variable is already answered or
//     no longer useful are dropped (not sent to the oracle, not counted,
//     tallied in num_skipped). This is the accounting the session engine's
//     shared consent ledger needs: a variable answered by a concurrent
//     session must not be re-sent to its peer.
BatchProbeRun RunToCompletionBatched(EvaluationState& state,
                                     const StrategyFactory& factory,
                                     const ProbeFn& probe, size_t batch_size,
                                     const RunInstrumentation& instr = {},
                                     bool skip_answered = false);

struct BudgetedProbeRun {
  size_t num_probes = 0;
  // Per-formula value; Unknown for formulas the budget did not resolve.
  std::vector<Truth> outcomes;
  size_t num_decided = 0;
};

// Probes sequentially with `strategy` but stops after `max_probes` (or when
// everything is decided, whichever comes first). A driver over
// SessionStepper, so it records the same events and metrics as
// RunToCompletion.
BudgetedProbeRun RunWithBudget(EvaluationState& state, ProbeStrategy& strategy,
                               const ProbeFn& probe, size_t max_probes,
                               const RunInstrumentation& instr = {});

}  // namespace consentdb::strategy

#endif  // CONSENTDB_STRATEGY_BATCH_RUNNER_H_
