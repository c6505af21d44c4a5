// Extension experiment: probing under peer faults (the resilience layer).
//
// Part 1 probes the psi-dataset through a FaultyOracle with increasing
// transient-failure probability. With enough retry attempts every transient
// fault is eventually survived, so the *information* of the session — the
// answered-probe sequence, probe count and verdicts — is identical to the
// fault-free run; what grows is the attempt overhead (retries) and the
// virtual time spent in backoff. The fault schedule and the backoff jitter
// are deterministic hashes of (seed, variable, attempt), and all waiting
// goes through a VirtualClock, so the bench performs zero real sleeps.
//
// Part 2 runs full consent sessions (ConsentManager::DecideAll with a
// RetryPolicy) over a join workload: a 20% transient fault plan must leave
// every verdict identical to the fault-free session with zero unresolved
// tuples, while a permanently-dead peer degrades the affected tuples to
// UNRESOLVED without aborting the session.

#include <cstdint>

#include "bench_common.h"
#include "consentdb/consent/faulty_oracle.h"
#include "consentdb/consent/oracle.h"
#include "consentdb/core/consent_manager.h"
#include "consentdb/datasets/psi.h"
#include "consentdb/strategy/runner.h"
#include "consentdb/util/clock.h"
#include "consentdb/util/rng.h"

using namespace consentdb;

namespace {

// The formula-level psi runs have no session, so this loop asks the
// sessions' retry decision (RetryPolicy::Decide) itself: transient faults
// back off on the virtual clock, exhaustion and dead peers lose the
// variable.
strategy::FallibleProbeFn RetryProbe(consent::FaultyOracle& oracle,
                                     const core::RetryPolicy& policy,
                                     Clock& clock, size_t& retries) {
  return [&oracle, &policy, &clock, &retries](provenance::VarId x) {
    const int64_t start = clock.NowNanos();
    for (size_t attempts = 1;; ++attempts) {
      consent::ProbeAttempt a = oracle.TryProbe(x);
      if (a.ok()) {
        return strategy::FallibleProbe{strategy::ProbeOutcome::kAnswered,
                                       a.answer};
      }
      const int64_t now = clock.NowNanos();
      const core::RetryDecision retry =
          policy.Decide(a.fault, attempts, x, now, start, start);
      if (retry.kind != core::RetryDecision::Kind::kRetry) {
        return strategy::FallibleProbe{strategy::ProbeOutcome::kVariableLost,
                                       false};
      }
      ++retries;
      clock.SleepFor(retry.wake_at_nanos - now);
    }
  };
}

// The join workload of the concurrent-sessions bench, shrunk: multi-term
// DNFs per output tuple, seven peers.
consent::SharedDatabase BuildJoinDatabase(size_t rows) {
  using relational::Column;
  using relational::Schema;
  using relational::Tuple;
  using relational::Value;
  using relational::ValueType;

  consent::SharedDatabase sdb;
  auto check = [](const Status& s) { CONSENTDB_CHECK(s.ok(), s.ToString()); };
  check(sdb.CreateRelation("R", Schema({Column{"a", ValueType::kInt64},
                                        Column{"b", ValueType::kInt64}})));
  check(sdb.CreateRelation("S", Schema({Column{"b", ValueType::kInt64},
                                        Column{"c", ValueType::kInt64}})));
  for (size_t i = 0; i < rows; ++i) {
    auto r = sdb.InsertTuple(
        "R", Tuple{Value(static_cast<int64_t>(i) % 20),
                   Value(static_cast<int64_t>(i) % 8)},
        "owner" + std::to_string(i % 7), 0.5);
    CONSENTDB_CHECK(r.ok(), r.status().ToString());
    auto s = sdb.InsertTuple(
        "S", Tuple{Value(static_cast<int64_t>(i * 5 + 3) % 8),
                   Value(static_cast<int64_t>(i) % 3)},
        "owner" + std::to_string(i % 7), 0.5);
    CONSENTDB_CHECK(s.ok(), s.status().ToString());
  }
  return sdb;
}

}  // namespace

int main() {
  const size_t reps = bench::RepsFromEnv(5);

  // --- Part 1: psi-dataset under transient faults -------------------------
  const int level = 6;  // the paper's default: 382 distinct variables
  std::cout << "=== Extension: faulty peers — psi_" << level
            << ", Freq strategy, retries vs fault rate (reps = " << reps
            << ") ===\n\n";

  bench::Table table({"fault prob", "probes", "attempts", "retries",
                      "overhead", "virt ms", "unresolved"});
  table.PrintHeader();

  for (double p_fault : {0.0, 0.05, 0.1, 0.2, 0.4}) {
    size_t total_probes = 0;
    size_t total_attempts = 0;
    size_t total_retries = 0;
    size_t total_unresolved = 0;
    int64_t virtual_nanos = 0;
    for (size_t rep = 0; rep < reps; ++rep) {
      consent::VariablePool pool;
      datasets::PsiFormula psi = datasets::BuildPsi(level, pool, 0.5);
      // Spread the variables over ten peers so per-peer fault plans apply.
      for (provenance::VarId x = 0; x < pool.size(); ++x) {
        pool.SetOwner(x, "peer" + std::to_string(x % 10));
      }
      std::vector<provenance::Dnf> dnfs = {datasets::PsiDnf(psi)};
      std::vector<double> pi = pool.Probabilities();
      Rng rng(7000 + 31 * rep);
      provenance::PartialValuation hidden = pool.SampleValuation(rng);

      // Fault-free baseline.
      strategy::EvaluationState baseline_state(dnfs, pi);
      strategy::FreqStrategy baseline_strategy;
      strategy::ProbeRun baseline = strategy::RunToCompletion(
          baseline_state, baseline_strategy, hidden);

      // Same hidden world behind a faulty oracle with retries. 16 attempts
      // make a lost variable virtually impossible even at 40% faults
      // (0.4^16 ~ 4e-9), so the runs must match the baseline exactly.
      consent::FaultPlan plan;
      plan.seed = 9100 + rep;
      plan.defaults.transient_failure_prob = p_fault;
      plan.defaults.latency_nanos = 2'000'000;  // 2ms per attempt
      VirtualClock clock;
      consent::ValuationOracle backing(hidden);
      consent::FaultyOracle faulty(backing, pool, plan, &clock);
      core::RetryPolicy policy;
      policy.max_attempts = 16;
      policy.jitter = 0.2;
      size_t retries = 0;
      strategy::EvaluationState state(dnfs, pi);
      strategy::FreqStrategy strategy;
      strategy::ResilientProbeRun run = strategy::RunToCompletionResilient(
          state, strategy, RetryProbe(faulty, policy, clock, retries));

      CONSENTDB_CHECK(run.trace == baseline.trace,
                      "faulty run diverged from the fault-free baseline");
      for (provenance::Truth t : run.outcomes) {
        total_unresolved += t == provenance::Truth::kUnknown ? 1 : 0;
      }
      total_probes += run.num_probes;
      total_attempts += faulty.stats().attempts;
      total_retries += retries;
      virtual_nanos += clock.NowNanos();
    }
    std::ostringstream label;
    label << std::fixed << std::setprecision(2) << p_fault;
    table.PrintRow(
        label.str(),
        {std::to_string(total_probes), std::to_string(total_attempts),
         std::to_string(total_retries),
         bench::FormatMean(static_cast<double>(total_attempts) /
                           static_cast<double>(total_probes)),
         std::to_string(virtual_nanos / 1'000'000),
         std::to_string(total_unresolved)});
  }

  // --- Part 2: full sessions under a 20% fault plan -----------------------
  const size_t rows = bench::Scaled(60);
  const size_t sessions = bench::Scaled(30);
  std::cout << "\n=== Full sessions (join workload, rows=" << rows
            << ", sessions=" << sessions << ") ===\n\n";

  consent::SharedDatabase sdb = BuildJoinDatabase(rows);
  core::ConsentManager manager(sdb);
  const std::string sql =
      "SELECT DISTINCT r.a FROM R r, S s WHERE r.b = s.b AND s.c = 1";

  size_t ff_probes = 0;
  size_t rs_probes = 0;
  size_t rs_retries = 0;
  size_t rs_unresolved = 0;
  size_t verdict_mismatches = 0;
  for (size_t i = 0; i < sessions; ++i) {
    Rng rng(5100 + 17 * i);
    provenance::PartialValuation hidden = sdb.pool().SampleValuation(rng);

    consent::ValuationOracle ff_oracle(hidden);
    Result<core::SessionReport> ff = manager.DecideAll(sql, ff_oracle);
    CONSENTDB_CHECK(ff.ok(), ff.status().ToString());
    ff_probes += ff.value().num_probes;

    consent::FaultPlan plan;
    plan.seed = 400 + i;
    plan.defaults.transient_failure_prob = 0.2;
    VirtualClock clock;
    consent::ValuationOracle backing(hidden);
    consent::FaultyOracle faulty(backing, sdb.pool(), plan, &clock);
    core::SessionOptions options;
    options.retry = core::RetryPolicy{};
    options.retry->max_attempts = 8;
    options.clock = &clock;
    Result<core::SessionReport> rs = manager.DecideAll(sql, faulty, options);
    CONSENTDB_CHECK(rs.ok(), rs.status().ToString());
    rs_probes += rs.value().num_probes;
    rs_retries += rs.value().num_retries;
    rs_unresolved += rs.value().num_unresolved;
    CONSENTDB_CHECK(
        ff.value().tuples.size() == rs.value().tuples.size(),
        "resilient session changed the output relation");
    for (size_t j = 0; j < ff.value().tuples.size(); ++j) {
      verdict_mismatches +=
          ff.value().tuples[j].shareable != rs.value().tuples[j].shareable ? 1
                                                                           : 0;
    }
  }
  std::cout << "20% transient faults: " << sessions
            << " sessions terminated; probes " << ff_probes
            << " (fault-free) vs " << rs_probes << " (resilient), "
            << rs_retries << " retries, " << rs_unresolved
            << " unresolved tuples, " << verdict_mismatches
            << " verdict mismatches\n";
  CONSENTDB_CHECK(ff_probes == rs_probes && rs_unresolved == 0 &&
                      verdict_mismatches == 0,
                  "transient-only faults must not change session outcomes");

  // A permanently-dead peer: sessions still terminate, affected tuples
  // degrade to UNRESOLVED.
  size_t dead_unresolved = 0;
  for (size_t i = 0; i < sessions; ++i) {
    Rng rng(5100 + 17 * i);
    provenance::PartialValuation hidden = sdb.pool().SampleValuation(rng);
    consent::FaultPlan plan;
    plan.seed = 800 + i;
    plan.per_peer["owner3"].permanently_unavailable = true;
    VirtualClock clock;
    consent::ValuationOracle backing(hidden);
    consent::FaultyOracle faulty(backing, sdb.pool(), plan, &clock);
    core::SessionOptions options;
    options.retry = core::RetryPolicy{};
    options.clock = &clock;
    Result<core::SessionReport> r = manager.DecideAll(sql, faulty, options);
    CONSENTDB_CHECK(r.ok(), r.status().ToString());
    dead_unresolved += r.value().num_unresolved;
  }
  std::cout << "dead peer (owner3): all " << sessions
            << " sessions terminated, " << dead_unresolved
            << " tuple verdicts degraded to UNRESOLVED\n";

  std::cout << "\nexpected shape: attempt overhead tracks 1/(1-p) while the "
               "probe count,\ntrace and verdicts stay identical to the "
               "fault-free run (zero unresolved);\nonly a permanently-dead "
               "peer produces UNRESOLVED verdicts.\n";
  return 0;
}
