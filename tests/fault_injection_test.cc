// Fault-injection + resilience layer: FaultPlan/FaultyOracle determinism,
// RetryPolicy backoff arithmetic, ledger fault semantics, the resilient
// runner's three-valued outcomes, and session-level graceful degradation.
// Everything runs on virtual time — no test sleeps for real.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "consentdb/consent/faulty_oracle.h"
#include "consentdb/consent/oracle.h"
#include "consentdb/core/consent_manager.h"
#include "consentdb/strategy/optimal.h"
#include "consentdb/strategy/runner.h"
#include "consentdb/strategy/strategies.h"
#include "consentdb/obs/metrics.h"
#include "consentdb/util/clock.h"
#include "consentdb/util/hash_mix.h"
#include "consentdb/util/rng.h"
#include "test_fixtures.h"

namespace consentdb {
namespace {

using consent::FaultPlan;
using consent::FaultyOracle;
using consent::PeerFaults;
using consent::ProbeAttempt;
using consent::ProbeFault;
using consent::ValuationOracle;
using consent::VariablePool;
using core::RetryPolicy;
using core::SessionOptions;
using core::SessionReport;
using core::TupleConsent;
using provenance::Dnf;
using provenance::PartialValuation;
using provenance::Truth;
using provenance::VarId;
using provenance::VarSet;
using strategy::EvaluationState;
using strategy::FallibleProbe;
using strategy::ProbeOutcome;

// A pool of n variables spread over peers "p0".."p{peers-1}".
VariablePool MakePool(size_t n, size_t peers = 3) {
  VariablePool pool;
  for (size_t i = 0; i < n; ++i) {
    pool.Allocate("x" + std::to_string(i), "p" + std::to_string(i % peers),
                  0.5);
  }
  return pool;
}

PartialValuation AllTrue(size_t n) {
  PartialValuation val(n);
  for (size_t i = 0; i < n; ++i) val.Set(static_cast<VarId>(i), true);
  return val;
}

// --- FaultPlan ----------------------------------------------------------------

TEST(FaultPlanTest, DefaultPlanIsEmpty) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(plan.defaults.faultless());
}

TEST(FaultPlanTest, FaultlessPerPeerEntriesKeepPlanEmpty) {
  FaultPlan plan;
  plan.per_peer["alice"] = PeerFaults{};
  EXPECT_TRUE(plan.empty());
}

TEST(FaultPlanTest, AnyFaultMakesPlanNonEmpty) {
  FaultPlan transient;
  transient.defaults.transient_failure_prob = 0.1;
  EXPECT_FALSE(transient.empty());

  FaultPlan dead;
  dead.per_peer["bob"].permanently_unavailable = true;
  EXPECT_FALSE(dead.empty());

  FaultPlan slow;
  slow.defaults.latency_nanos = 1;
  EXPECT_FALSE(slow.empty());
}

TEST(FaultPlanTest, ForPrefersPerPeerOverride) {
  FaultPlan plan;
  plan.defaults.transient_failure_prob = 0.5;
  plan.per_peer["alice"].transient_failure_prob = 0.9;
  EXPECT_DOUBLE_EQ(plan.For("alice").transient_failure_prob, 0.9);
  EXPECT_DOUBLE_EQ(plan.For("bob").transient_failure_prob, 0.5);
}

TEST(FaultPlanTest, ProbeFaultToString) {
  EXPECT_STREQ(consent::ProbeFaultToString(ProbeFault::kNone), "none");
  EXPECT_STREQ(consent::ProbeFaultToString(ProbeFault::kTransient),
               "transient");
  EXPECT_STREQ(consent::ProbeFaultToString(ProbeFault::kUnavailable),
               "unavailable");
}

// --- FaultyOracle -------------------------------------------------------------

TEST(FaultyOracleTest, EmptyPlanNeverFaults) {
  VariablePool pool = MakePool(8);
  ValuationOracle backing(AllTrue(8));
  FaultyOracle faulty(backing, pool, FaultPlan{});
  for (VarId x = 0; x < 8; ++x) {
    ProbeAttempt a = faulty.TryProbe(x);
    EXPECT_TRUE(a.ok());
    EXPECT_TRUE(a.answer);
  }
  EXPECT_EQ(faulty.stats().attempts, 8u);
  EXPECT_EQ(faulty.stats().successes, 8u);
  EXPECT_EQ(faulty.stats().transient_faults, 0u);
  EXPECT_EQ(faulty.probe_count(), 8u);
}

TEST(FaultyOracleTest, FaultScheduleIsDeterministicPerSeed) {
  VariablePool pool = MakePool(6);
  FaultPlan plan;
  plan.seed = 1234;
  plan.defaults.transient_failure_prob = 0.5;

  auto schedule = [&]() {
    ValuationOracle backing(AllTrue(6));
    FaultyOracle faulty(backing, pool, plan);
    std::vector<ProbeFault> faults;
    for (VarId x = 0; x < 6; ++x) {
      for (int attempt = 0; attempt < 10; ++attempt) {
        faults.push_back(faulty.TryProbe(x).fault);
      }
    }
    return faults;
  };
  EXPECT_EQ(schedule(), schedule());
}

TEST(FaultyOracleTest, DifferentSeedsGiveDifferentSchedules) {
  VariablePool pool = MakePool(6);
  auto schedule = [&pool](uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.defaults.transient_failure_prob = 0.5;
    ValuationOracle backing(AllTrue(6));
    FaultyOracle faulty(backing, pool, plan);
    std::vector<ProbeFault> faults;
    for (VarId x = 0; x < 6; ++x) {
      for (int attempt = 0; attempt < 10; ++attempt) {
        faults.push_back(faulty.TryProbe(x).fault);
      }
    }
    return faults;
  };
  EXPECT_NE(schedule(1), schedule(2));
}

TEST(FaultyOracleTest, ScheduleIndependentOfProbeInterleaving) {
  // The fault decision hashes (seed, variable, per-variable attempt index),
  // so probing variables in a different global order must not change which
  // attempts fault.
  VariablePool pool = MakePool(4);
  FaultPlan plan;
  plan.seed = 77;
  plan.defaults.transient_failure_prob = 0.5;

  // Order A: x0 x0 x1 x1 x2 x2 x3 x3. Order B: x3 x2 x1 x0 x0 x1 x2 x3.
  std::vector<VarId> order_a = {0, 0, 1, 1, 2, 2, 3, 3};
  std::vector<VarId> order_b = {3, 2, 1, 0, 0, 1, 2, 3};
  auto run = [&](const std::vector<VarId>& order) {
    ValuationOracle backing(AllTrue(4));
    FaultyOracle faulty(backing, pool, plan);
    // Map (variable, attempt index) -> fault for comparison.
    std::map<std::pair<VarId, size_t>, ProbeFault> outcome;
    std::map<VarId, size_t> next_attempt;
    for (VarId x : order) {
      size_t k = next_attempt[x]++;
      outcome[{x, k}] = faulty.TryProbe(x).fault;
    }
    return outcome;
  };
  auto a = run(order_a);
  auto b = run(order_b);
  for (const auto& [key, fault] : a) {
    auto it = b.find(key);
    if (it != b.end()) {
      EXPECT_EQ(fault, it->second);
    }
  }
}

TEST(FaultyOracleTest, TransientFaultAnswersOnRetry) {
  VariablePool pool = MakePool(1);
  FaultPlan plan;
  plan.seed = 5;
  plan.defaults.transient_failure_prob = 0.9;
  ValuationOracle backing(AllTrue(1));
  FaultyOracle faulty(backing, pool, plan);
  // With p=0.9 an answer still arrives with probability 1 over retries.
  for (int i = 0; i < 1000; ++i) {
    ProbeAttempt a = faulty.TryProbe(0);
    if (a.ok()) {
      EXPECT_TRUE(a.answer);
      EXPECT_GT(faulty.stats().transient_faults, 0u);
      return;
    }
    EXPECT_EQ(a.fault, ProbeFault::kTransient);
  }
  FAIL() << "1000 attempts at p=0.9 never answered (broken schedule hash)";
}

TEST(FaultyOracleTest, PermanentlyUnavailablePeer) {
  VariablePool pool = MakePool(6, /*peers=*/3);  // x0,x3 belong to p0
  FaultPlan plan;
  plan.per_peer["p0"].permanently_unavailable = true;
  ValuationOracle backing(AllTrue(6));
  FaultyOracle faulty(backing, pool, plan);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(faulty.TryProbe(0).fault, ProbeFault::kUnavailable);
    EXPECT_EQ(faulty.TryProbe(3).fault, ProbeFault::kUnavailable);
  }
  EXPECT_TRUE(faulty.TryProbe(1).ok());  // p1 unaffected
  EXPECT_EQ(faulty.stats().unavailable_faults, 6u);
  EXPECT_EQ(faulty.stats().successes, 1u);
}

TEST(FaultyOracleTest, PeerCrashesAfterAnswerBudget) {
  VariablePool pool = MakePool(6, /*peers=*/2);  // p0 owns x0,x2,x4
  FaultPlan plan;
  plan.per_peer["p0"].crash_after_answers = 2;
  ValuationOracle backing(AllTrue(6));
  FaultyOracle faulty(backing, pool, plan);
  EXPECT_TRUE(faulty.TryProbe(0).ok());
  EXPECT_TRUE(faulty.TryProbe(2).ok());
  // Third ask of the crashed peer fails permanently — crash-after-answer.
  EXPECT_EQ(faulty.TryProbe(4).fault, ProbeFault::kUnavailable);
  EXPECT_EQ(faulty.TryProbe(0).fault, ProbeFault::kUnavailable);
  EXPECT_TRUE(faulty.TryProbe(1).ok());  // p1 still alive
  EXPECT_EQ(faulty.stats().crashed_peers, 1u);
}

TEST(FaultyOracleTest, InjectedLatencyAdvancesTheVirtualClock) {
  VariablePool pool = MakePool(2);
  FaultPlan plan;
  plan.defaults.latency_nanos = 5'000'000;  // 5ms per attempt
  VirtualClock clock;
  ValuationOracle backing(AllTrue(2));
  FaultyOracle faulty(backing, pool, plan, &clock);
  EXPECT_TRUE(faulty.TryProbe(0).ok());
  EXPECT_TRUE(faulty.TryProbe(1).ok());
  EXPECT_EQ(clock.NowNanos(), 10'000'000);
}

TEST(FaultyOracleTest, AttemptsForCountsPerVariable) {
  VariablePool pool = MakePool(2);
  FaultPlan plan;
  plan.defaults.transient_failure_prob = 0.5;
  plan.seed = 3;
  ValuationOracle backing(AllTrue(2));
  FaultyOracle faulty(backing, pool, plan);
  for (int i = 0; i < 4; ++i) faulty.TryProbe(0);
  faulty.TryProbe(1);
  EXPECT_EQ(faulty.attempts_for(0), 4u);
  EXPECT_EQ(faulty.attempts_for(1), 1u);
  EXPECT_EQ(faulty.attempts_for(99), 0u);
}

TEST(FaultyOracleDeathTest, InfalliblePathRejectsInjectedFaults) {
  VariablePool pool = MakePool(1);
  FaultPlan plan;
  plan.per_peer["p0"].permanently_unavailable = true;
  ValuationOracle backing(AllTrue(1));
  FaultyOracle faulty(backing, pool, plan);
  EXPECT_DEATH(faulty.Probe(0), "infallible probe path");
}

// --- RetryPolicy backoff -------------------------------------------------------

TEST(RetryPolicyTest, ExponentialBackoffSequence) {
  RetryPolicy policy;  // 1ms initial, x2, 1s cap, no jitter
  EXPECT_EQ(policy.BackoffNanos(1, 0), 1'000'000);
  EXPECT_EQ(policy.BackoffNanos(2, 0), 2'000'000);
  EXPECT_EQ(policy.BackoffNanos(3, 0), 4'000'000);
  EXPECT_EQ(policy.BackoffNanos(4, 0), 8'000'000);
  EXPECT_EQ(policy.BackoffNanos(10, 0), 512'000'000);
}

TEST(RetryPolicyTest, BackoffIsCappedAtMax) {
  RetryPolicy policy;
  policy.max_backoff_nanos = 10'000'000;
  EXPECT_EQ(policy.BackoffNanos(1, 0), 1'000'000);
  EXPECT_EQ(policy.BackoffNanos(30, 0), 10'000'000);
}

TEST(RetryPolicyTest, JitterStaysWithinConfiguredBand) {
  RetryPolicy policy;
  policy.jitter = 0.25;
  policy.jitter_seed = 99;
  for (size_t attempt = 1; attempt <= 8; ++attempt) {
    for (VarId x = 0; x < 16; ++x) {
      RetryPolicy plain = policy;
      plain.jitter = 0.0;
      const double base = static_cast<double>(plain.BackoffNanos(attempt, x));
      const double jittered =
          static_cast<double>(policy.BackoffNanos(attempt, x));
      EXPECT_GE(jittered, base * 0.75 - 1);
      EXPECT_LE(jittered, base * 1.25 + 1);
    }
  }
}

TEST(RetryPolicyTest, JitterIsDeterministic) {
  RetryPolicy policy;
  policy.jitter = 0.5;
  policy.jitter_seed = 7;
  EXPECT_EQ(policy.BackoffNanos(3, 11), policy.BackoffNanos(3, 11));
  // Different variables draw different jitter (with overwhelming
  // probability for this seed — pinned here as a regression value).
  EXPECT_NE(policy.BackoffNanos(3, 11), policy.BackoffNanos(3, 12));
}

// --- RetryPolicy::Decide, the one retry decision -------------------------------

TEST(RetryPolicyTest, DecideTable) {
  constexpr int64_t kMs = 1'000'000;
  using Kind = core::RetryDecision::Kind;
  struct Case {
    const char* name;
    // Policy (backoff starts at 1ms and doubles, no jitter).
    size_t max_attempts;
    int64_t probe_deadline;
    int64_t session_deadline;
    // The faulted attempt.
    ProbeFault fault;
    size_t attempts;
    int64_t now;
    int64_t probe_start;
    int64_t session_start;
    // The decision (backoff and wake time are checked for kRetry only).
    Kind kind;
    int64_t backoff;
    int64_t wake_at;
  };
  const Case cases[] = {
      {"unavailable is lost on its first attempt", 3, 0, 0,
       ProbeFault::kUnavailable, 1, 0, 0, 0, Kind::kUnavailable, 0, 0},
      {"unavailable is lost under unlimited attempts", 0, 0, 0,
       ProbeFault::kUnavailable, 1, 0, 0, 0, Kind::kUnavailable, 0, 0},
      {"first transient fault retries after 1ms", 3, 0, 0,
       ProbeFault::kTransient, 1, 5 * kMs, 5 * kMs, 0, Kind::kRetry, kMs,
       6 * kMs},
      {"second transient fault backs off 2ms", 3, 0, 0,
       ProbeFault::kTransient, 2, 7 * kMs, 5 * kMs, 0, Kind::kRetry, 2 * kMs,
       9 * kMs},
      {"the attempt cap loses the variable", 3, 0, 0, ProbeFault::kTransient,
       3, 0, 0, 0, Kind::kExhausted, 0, 0},
      {"0 attempts means unlimited; backoff stops at its cap", 0, 0, 0,
       ProbeFault::kTransient, 40, 0, 0, 0, Kind::kRetry, 1000 * kMs,
       1000 * kMs},
      {"probe deadline: backoff lands inside it", 0, 10 * kMs, 0,
       ProbeFault::kTransient, 1, 108 * kMs, 100 * kMs, 0, Kind::kRetry, kMs,
       109 * kMs},
      {"probe deadline: backoff lands exactly on it", 0, 10 * kMs, 0,
       ProbeFault::kTransient, 1, 109 * kMs, 100 * kMs, 0, Kind::kRetry, kMs,
       110 * kMs},
      {"probe deadline: backoff would overrun it", 0, 10 * kMs, 0,
       ProbeFault::kTransient, 1, 109 * kMs + 1, 100 * kMs, 0,
       Kind::kProbeDeadline, 0, 0},
      {"probe deadline counts from the first attempt, not the session", 0,
       10 * kMs, 0, ProbeFault::kTransient, 2, 105 * kMs, 100 * kMs, 0,
       Kind::kRetry, 2 * kMs, 107 * kMs},
      {"wake time is clamped to the session deadline", 0, 0, 5 * kMs,
       ProbeFault::kTransient, 4, 2 * kMs, 2 * kMs, 0, Kind::kRetry, 8 * kMs,
       5 * kMs},
      {"past the session deadline the wake time is now", 0, 0, 5 * kMs,
       ProbeFault::kTransient, 1, 7 * kMs, 7 * kMs, 0, Kind::kRetry, kMs,
       7 * kMs},
      {"the session deadline counts from the session start", 0, 0, 5 * kMs,
       ProbeFault::kTransient, 1, 12 * kMs, 12 * kMs, 10 * kMs, Kind::kRetry,
       kMs, 13 * kMs},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    RetryPolicy policy;
    policy.max_attempts = c.max_attempts;
    policy.probe_deadline_nanos = c.probe_deadline;
    policy.session_deadline_nanos = c.session_deadline;
    const core::RetryDecision d = policy.Decide(
        c.fault, c.attempts, 0, c.now, c.probe_start, c.session_start);
    EXPECT_EQ(d.kind, c.kind);
    if (c.kind == Kind::kRetry) {
      EXPECT_EQ(d.backoff_nanos, c.backoff);
      EXPECT_EQ(d.wake_at_nanos, c.wake_at);
    }
  }
}

TEST(RetryPolicyTest, DecideJitterIsAPureFunctionOfSeedVariableAttempt) {
  RetryPolicy policy;
  policy.max_attempts = 0;
  policy.jitter = 0.5;
  policy.jitter_seed = 7;
  RetryPolicy reseeded = policy;
  reseeded.jitter_seed = 8;
  size_t reseeded_differs = 0;
  for (size_t attempt = 1; attempt <= 6; ++attempt) {
    for (VarId x = 0; x < 8; ++x) {
      const core::RetryDecision d =
          policy.Decide(ProbeFault::kTransient, attempt, x, 0, 0, 0);
      ASSERT_EQ(d.kind, core::RetryDecision::Kind::kRetry);
      EXPECT_EQ(d.backoff_nanos, policy.BackoffNanos(attempt, x));
      EXPECT_EQ(d.wake_at_nanos, d.backoff_nanos);
      // The clock only shifts the wake time; the jitter stays put.
      const core::RetryDecision later = policy.Decide(
          ProbeFault::kTransient, attempt, x, 3'000, 2'000, 1'000);
      EXPECT_EQ(later.backoff_nanos, d.backoff_nanos);
      EXPECT_EQ(later.wake_at_nanos, 3'000 + d.backoff_nanos);
      const core::RetryDecision other =
          reseeded.Decide(ProbeFault::kTransient, attempt, x, 0, 0, 0);
      if (other.backoff_nanos != d.backoff_nanos) ++reseeded_differs;
    }
  }
  EXPECT_GT(reseeded_differs, 0u);
}

TEST(RetryPolicyTest, SessionExpiresAtItsDeadline) {
  RetryPolicy policy;
  EXPECT_FALSE(policy.SessionExpired(int64_t{1} << 60, 0));  // no deadline
  policy.session_deadline_nanos = 50;
  EXPECT_FALSE(policy.SessionExpired(149, 100));
  EXPECT_TRUE(policy.SessionExpired(150, 100));
  EXPECT_TRUE(policy.SessionExpired(151, 100));
}

TEST(RetryPolicyTest, UnitUniformHashIsAPureFunction) {
  const double a = UnitUniformHash(1, 2, 3);
  EXPECT_EQ(a, UnitUniformHash(1, 2, 3));
  EXPECT_GE(a, 0.0);
  EXPECT_LT(a, 1.0);
  EXPECT_NE(a, UnitUniformHash(1, 2, 4));
}

// --- ConsentLedger fault semantics --------------------------------------------

TEST(LedgerFaultTest, FaultedAttemptLeavesNoTrace) {
  VariablePool pool = MakePool(2);
  FaultPlan plan;
  plan.per_peer["p0"].permanently_unavailable = true;
  ValuationOracle backing(AllTrue(2));
  FaultyOracle faulty(backing, pool, plan);
  consent::ConsentLedger ledger;

  ProbeAttempt a = ledger.TryProbeVia(faulty, 0);
  EXPECT_FALSE(a.ok());
  EXPECT_EQ(ledger.size(), 0u);
  EXPECT_EQ(ledger.faulted_probes(), 1u);
  EXPECT_FALSE(ledger.Lookup(0).has_value());
}

TEST(LedgerFaultTest, SuccessIsRecordedAndServedFromLedger) {
  VariablePool pool = MakePool(2);
  ValuationOracle backing(AllTrue(2));
  FaultyOracle faulty(backing, pool, FaultPlan{});
  consent::ConsentLedger ledger;

  bool from_ledger = true;
  ProbeAttempt first = ledger.TryProbeVia(faulty, 1, &from_ledger);
  EXPECT_TRUE(first.ok());
  EXPECT_FALSE(from_ledger);

  ProbeAttempt second = ledger.TryProbeVia(faulty, 1, &from_ledger);
  EXPECT_TRUE(second.ok());
  EXPECT_TRUE(from_ledger);
  EXPECT_EQ(second.answer, first.answer);
  EXPECT_EQ(faulty.stats().attempts, 1u);  // the peer was asked once
  EXPECT_EQ(ledger.hits(), 1u);
}

TEST(LedgerFaultTest, RetryAfterTransientFaultReachesThePeerAgain) {
  VariablePool pool = MakePool(1);
  FaultPlan plan;
  plan.seed = 5;  // same seed as TransientFaultAnswersOnRetry: x0 faults
  plan.defaults.transient_failure_prob = 0.9;
  ValuationOracle backing(AllTrue(1));
  FaultyOracle faulty(backing, pool, plan);
  consent::ConsentLedger ledger;

  size_t peer_attempts = 0;
  for (int i = 0; i < 1000; ++i) {
    ++peer_attempts;
    if (ledger.TryProbeVia(faulty, 0).ok()) break;
  }
  EXPECT_EQ(faulty.attempts_for(0), peer_attempts);
  EXPECT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger.oracle_probes(), 1u);
  EXPECT_EQ(ledger.faulted_probes(), peer_attempts - 1);
}

// --- Resilient runner ----------------------------------------------------------

TEST(ResilientRunnerTest, FaultFreeRunMatchesRunToCompletionExactly) {
  std::vector<double> pi = {0.3, 0.6, 0.8, 0.4};
  PartialValuation hidden(4);
  hidden.Set(0, true);
  hidden.Set(1, false);
  hidden.Set(2, true);
  hidden.Set(3, true);
  std::vector<Dnf> dnfs = {Dnf({VarSet{0, 1}, VarSet{2, 3}}),
                           Dnf({VarSet{1, 3}})};

  EvaluationState baseline_state(dnfs, pi);
  strategy::FreqStrategy baseline_strategy;
  strategy::ProbeRun baseline =
      strategy::RunToCompletion(baseline_state, baseline_strategy, hidden);

  EvaluationState state(dnfs, pi);
  strategy::FreqStrategy freq;
  strategy::ResilientProbeRun run = strategy::RunToCompletionResilient(
      state, freq, [&hidden](VarId x) {
        return FallibleProbe{ProbeOutcome::kAnswered,
                             hidden.Get(x) == Truth::kTrue};
      });

  EXPECT_EQ(run.trace, baseline.trace);
  EXPECT_EQ(run.num_probes, baseline.num_probes);
  EXPECT_EQ(run.outcomes, baseline.outcomes);
  EXPECT_EQ(run.num_lost, 0u);
  EXPECT_FALSE(run.session_expired);
}

TEST(ResilientRunnerTest, LosingTheOnlyVariableResolvesToUnknown) {
  std::vector<double> pi = {0.5};
  EvaluationState state({Dnf({VarSet{0}})}, pi);
  strategy::FreqStrategy freq;
  strategy::ResilientProbeRun run = strategy::RunToCompletionResilient(
      state, freq,
      [](VarId) { return FallibleProbe{ProbeOutcome::kVariableLost, false}; });
  EXPECT_EQ(run.outcomes, std::vector<Truth>{Truth::kUnknown});
  EXPECT_EQ(run.num_lost, 1u);
  EXPECT_EQ(run.num_probes, 0u);
  EXPECT_TRUE(run.trace.empty());
}

TEST(ResilientRunnerTest, LostVariableTermCanStillBeFalsified) {
  // Formula (x0 AND x1): x0 is lost, but x1 = False falsifies the term.
  std::vector<double> pi = {0.5, 0.5};
  EvaluationState state({Dnf({VarSet{0, 1}})}, pi);
  strategy::FreqStrategy freq;
  strategy::ResilientProbeRun run = strategy::RunToCompletionResilient(
      state, freq, [](VarId x) {
        if (x == 0) return FallibleProbe{ProbeOutcome::kVariableLost, false};
        return FallibleProbe{ProbeOutcome::kAnswered, false};
      });
  EXPECT_EQ(run.outcomes, std::vector<Truth>{Truth::kFalse});
  EXPECT_EQ(run.num_lost, 1u);
  EXPECT_EQ(run.num_probes, 1u);
}

TEST(ResilientRunnerTest, LostVariableFormulaDecidedThroughOtherTerm) {
  // Formula (x0 OR x1): x0 lost, x1 = True still proves the disjunction.
  std::vector<double> pi = {0.5, 0.5};
  EvaluationState state({Dnf({VarSet{0}, VarSet{1}})}, pi);
  strategy::FreqStrategy freq;
  strategy::ResilientProbeRun run = strategy::RunToCompletionResilient(
      state, freq, [](VarId x) {
        if (x == 0) return FallibleProbe{ProbeOutcome::kVariableLost, false};
        return FallibleProbe{ProbeOutcome::kAnswered, true};
      });
  EXPECT_EQ(run.outcomes, std::vector<Truth>{Truth::kTrue});
  EXPECT_EQ(run.num_lost, 1u);
}

TEST(ResilientRunnerTest, SessionExpiryStopsTheLoopImmediately) {
  std::vector<double> pi = {0.5, 0.5};
  EvaluationState state({Dnf({VarSet{0}}), Dnf({VarSet{1}})}, pi);
  strategy::FreqStrategy freq;
  size_t calls = 0;
  strategy::ResilientProbeRun run = strategy::RunToCompletionResilient(
      state, freq, [&calls](VarId) {
        ++calls;
        return FallibleProbe{ProbeOutcome::kSessionExpired, false};
      });
  EXPECT_TRUE(run.session_expired);
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(run.outcomes[0], Truth::kUnknown);
  EXPECT_EQ(run.outcomes[1], Truth::kUnknown);
}

TEST(ResilientRunnerTest, EveryStrategySurvivesLostVariables) {
  // Two overlapping formulas; x1 is lost, everything else answers True.
  // Whatever the strategy, the run must terminate with consistent
  // three-valued outcomes and never probe x1 twice.
  std::vector<double> pi = {0.4, 0.5, 0.6, 0.7};
  std::vector<Dnf> dnfs = {Dnf({VarSet{0, 1}, VarSet{2}}),
                           Dnf({VarSet{1, 3}})};
  struct Named {
    std::string name;
    strategy::StrategyFactory factory;
    bool attach_cnfs = false;
  };
  std::vector<Named> factories = {
      {"Random", strategy::MakeRandomFactory(17)},
      {"Freq", strategy::MakeFreqFactory()},
      {"RO", strategy::MakeRoFactory()},
      {"Q-value", strategy::MakeQValueFactory(), /*attach_cnfs=*/true},
      {"General", strategy::MakeGeneralFactory()},
      {"Hybrid", strategy::MakeHybridFactory()},
      // Optimal plans on its own residual copy of the formulas; it must
      // still learn of the lost variable from the state.
      {"Optimal",
       [&dnfs, &pi] {
         return std::make_unique<strategy::OptimalStrategy>(dnfs, pi);
       }},
  };
  for (const Named& entry : factories) {
    EvaluationState state(dnfs, pi);
    if (entry.attach_cnfs) {
      ASSERT_TRUE(state.AttachCnfs().ok());
    }
    std::unique_ptr<strategy::ProbeStrategy> strat = entry.factory();
    strategy::ResilientProbeRun run = strategy::RunToCompletionResilient(
        state, *strat, [](VarId x) {
          if (x == 1) return FallibleProbe{ProbeOutcome::kVariableLost, false};
          return FallibleProbe{ProbeOutcome::kAnswered, true};
        });
    SCOPED_TRACE(entry.name);
    EXPECT_LE(run.num_lost, 1u);
    // Formula 0 is provable through {2} regardless of x1.
    EXPECT_EQ(run.outcomes[0], Truth::kTrue);
    // Formula 1 needs x1: if x1 was lost it stays kUnknown.
    if (run.num_lost == 1) {
      EXPECT_EQ(run.outcomes[1], Truth::kUnknown);
    } else {
      EXPECT_EQ(run.outcomes[1], Truth::kTrue);
    }
  }
}

// --- EvaluationState unreachable bookkeeping -----------------------------------

TEST(UnreachableStateTest, MarkUnreachableRemovesUsefulness) {
  std::vector<double> pi = {0.5, 0.5};
  EvaluationState state({Dnf({VarSet{0}, VarSet{1}})}, pi);
  EXPECT_TRUE(state.IsUseful(0));
  EXPECT_TRUE(state.HasUsefulVar());
  state.MarkUnreachable(0);
  EXPECT_FALSE(state.IsUseful(0));
  EXPECT_TRUE(state.IsUnreachable(0));
  EXPECT_EQ(state.num_unreachable(), 1u);
  EXPECT_TRUE(state.HasUsefulVar());  // x1 remains
  state.MarkUnreachable(1);
  EXPECT_FALSE(state.HasUsefulVar());
  EXPECT_EQ(state.var_value(0), Truth::kUnknown);  // still unknown, not False
}

TEST(UnreachableStateTest, RoSkipsTermsWithAllVariablesDead) {
  // Term {0} is the best ratio but x0 is dead; RO must move to {1,2}.
  std::vector<double> pi = {0.9, 0.5, 0.5};
  EvaluationState state({Dnf({VarSet{0}, VarSet{1, 2}})}, pi);
  state.MarkUnreachable(0);
  strategy::RoStrategy ro;
  VarId x = ro.ChooseNext(state);
  EXPECT_TRUE(x == 1 || x == 2);
}

TEST(UnreachableStateTest, RoSkipsDeadVariableInsideCurrentTerm) {
  // Within term {0,1,2}, x1 has the lowest probability but is dead: RO must
  // pick the best reachable variable instead.
  std::vector<double> pi = {0.9, 0.2, 0.5};
  EvaluationState state({Dnf({VarSet{0, 1, 2}})}, pi);
  state.MarkUnreachable(1);
  strategy::RoStrategy ro;
  EXPECT_EQ(ro.ChooseNext(state), 2u);
}

// --- Session-level resilience --------------------------------------------------

TEST(ResilientSessionTest, TransientFaultsPreserveTheFaultFreeSession) {
  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  core::ConsentManager manager(sdb);
  Rng rng(41);
  PartialValuation hidden = sdb.pool().SampleValuation(rng);

  ValuationOracle plain(hidden);
  Result<SessionReport> fault_free =
      manager.DecideAll(testing::RecruitmentQuerySql(), plain);
  ASSERT_TRUE(fault_free.ok());

  FaultPlan plan;
  plan.seed = 2024;
  plan.defaults.transient_failure_prob = 0.3;
  VirtualClock clock;
  ValuationOracle backing(hidden);
  FaultyOracle faulty(backing, sdb.pool(), plan, &clock);
  SessionOptions options;
  options.retry = RetryPolicy{};
  options.retry->max_attempts = 12;
  options.clock = &clock;
  Result<SessionReport> resilient =
      manager.DecideAll(testing::RecruitmentQuerySql(), faulty, options);
  ASSERT_TRUE(resilient.ok());

  EXPECT_EQ(resilient.value().num_probes, fault_free.value().num_probes);
  EXPECT_EQ(resilient.value().num_unresolved, 0u);
  ASSERT_EQ(resilient.value().tuples.size(), fault_free.value().tuples.size());
  for (size_t i = 0; i < resilient.value().tuples.size(); ++i) {
    EXPECT_EQ(resilient.value().tuples[i].shareable,
              fault_free.value().tuples[i].shareable);
    EXPECT_NE(resilient.value().tuples[i].verdict,
              TupleConsent::Verdict::kUnresolved);
  }
  // The probe sequences are identical record for record.
  ASSERT_EQ(resilient.value().trace.size(), fault_free.value().trace.size());
  for (size_t i = 0; i < resilient.value().trace.size(); ++i) {
    EXPECT_EQ(resilient.value().trace[i].variable,
              fault_free.value().trace[i].variable);
    EXPECT_EQ(resilient.value().trace[i].answer,
              fault_free.value().trace[i].answer);
  }
  if (faulty.stats().transient_faults > 0) {
    EXPECT_GT(resilient.value().num_retries, 0u);
  }
}

TEST(ResilientSessionTest, ExhaustedRetriesDegradeToUnresolved) {
  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  core::ConsentManager manager(sdb);
  Rng rng(42);
  PartialValuation hidden = sdb.pool().SampleValuation(rng);

  // Every peer faults on every attempt: nothing can ever be answered.
  FaultPlan plan;
  plan.defaults.transient_failure_prob = 1.0;
  VirtualClock clock;
  ValuationOracle backing(hidden);
  FaultyOracle faulty(backing, sdb.pool(), plan, &clock);
  SessionOptions options;
  options.retry = RetryPolicy{};
  options.retry->max_attempts = 3;
  options.clock = &clock;
  Result<SessionReport> report =
      manager.DecideAll(testing::RecruitmentQuerySql(), faulty, options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().resilient);
  EXPECT_EQ(report.value().num_probes, 0u);
  EXPECT_EQ(report.value().num_unresolved, report.value().tuples.size());
  EXPECT_GT(report.value().num_unresolved, 0u);
  EXPECT_GT(report.value().failures.retries_exhausted, 0u);
  EXPECT_GT(report.value().failures.transient, 0u);
  for (const TupleConsent& tc : report.value().tuples) {
    EXPECT_EQ(tc.verdict, TupleConsent::Verdict::kUnresolved);
    EXPECT_FALSE(tc.shareable);  // consent defaults to deny
  }
}

TEST(ResilientSessionTest, DeadPeerDegradesDependentTuplesToUnresolved) {
  // Every 'hired' term of Q_ex runs through one of Bob's tuples, so with
  // Bob permanently unreachable the output tuple can neither be proved
  // (every term needs a Bob variable) nor refuted (Bob's variables stay
  // Unknown while everyone else answers True): the session must terminate
  // with the tuple UNRESOLVED after losing Bob's probes without retries.
  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  core::ConsentManager manager(sdb);
  PartialValuation hidden(sdb.pool().size());
  for (VarId x = 0; x < sdb.pool().size(); ++x) hidden.Set(x, true);

  FaultPlan plan;
  plan.per_peer["Bob"].permanently_unavailable = true;
  VirtualClock clock;
  ValuationOracle backing(hidden);
  FaultyOracle faulty(backing, sdb.pool(), plan, &clock);
  SessionOptions options;
  options.retry = RetryPolicy{};
  options.clock = &clock;
  Result<SessionReport> report =
      manager.DecideAll(testing::RecruitmentQuerySql(), faulty, options);
  ASSERT_TRUE(report.ok());
  // The session terminated; Bob's probes were lost without retries.
  EXPECT_GT(report.value().failures.unavailable, 0u);
  EXPECT_EQ(report.value().failures.retries_exhausted, 0u);
  EXPECT_GT(report.value().num_unresolved, 0u);
  size_t unresolved = 0;
  for (const TupleConsent& tc : report.value().tuples) {
    unresolved += tc.verdict == TupleConsent::Verdict::kUnresolved ? 1 : 0;
  }
  EXPECT_EQ(unresolved, report.value().num_unresolved);
}

TEST(ResilientSessionTest, SessionDeadlineExpiresViaVirtualTime) {
  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  core::ConsentManager manager(sdb);
  Rng rng(43);
  PartialValuation hidden = sdb.pool().SampleValuation(rng);

  FaultPlan plan;
  plan.defaults.latency_nanos = 10'000'000;  // 10ms per attempt
  VirtualClock clock;
  ValuationOracle backing(hidden);
  FaultyOracle faulty(backing, sdb.pool(), plan, &clock);
  SessionOptions options;
  options.retry = RetryPolicy{};
  options.retry->session_deadline_nanos = 25'000'000;  // fits ~2 probes
  options.clock = &clock;
  Result<SessionReport> report =
      manager.DecideAll(testing::RecruitmentQuerySql(), faulty, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().failures.session_deadline, 1u);
  EXPECT_LE(report.value().num_probes, 3u);
  EXPECT_GT(report.value().num_unresolved, 0u);
}

TEST(ResilientSessionTest, BackoffSleepIsClampedToSessionDeadline) {
  // Regression: a scheduled backoff used to be slept in full even when it
  // overshot the session deadline, so a session with a 10s backoff and a
  // 50ms deadline burned 10s of (virtual) wall clock before noticing it had
  // expired. The prober must clamp every backoff sleep to the remaining
  // session budget.
  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  core::ConsentManager manager(sdb);
  Rng rng(45);
  PartialValuation hidden = sdb.pool().SampleValuation(rng);

  FaultPlan plan;
  plan.defaults.transient_failure_prob = 1.0;  // every attempt backs off
  VirtualClock clock;
  ValuationOracle backing(hidden);
  FaultyOracle faulty(backing, sdb.pool(), plan, &clock);
  SessionOptions options;
  options.retry = RetryPolicy{};
  options.retry->initial_backoff_nanos = 10'000'000'000;  // 10s
  options.retry->max_backoff_nanos = 10'000'000'000;
  options.retry->session_deadline_nanos = 50'000'000;  // 50ms
  options.clock = &clock;

  const int64_t start = clock.NowNanos();
  Result<SessionReport> report =
      manager.DecideAll(testing::RecruitmentQuerySql(), faulty, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().failures.session_deadline, 1u);
  const int64_t elapsed = clock.NowNanos() - start;
  // The first backoff alone would be 200x the deadline; clamped, the whole
  // session ends within a small multiple of the deadline.
  EXPECT_LT(elapsed, 2 * options.retry->session_deadline_nanos) << elapsed;
}

TEST(ResilientSessionTest, ProbeDeadlineLosesSlowVariables) {
  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  core::ConsentManager manager(sdb);
  Rng rng(44);
  PartialValuation hidden = sdb.pool().SampleValuation(rng);

  FaultPlan plan;
  plan.defaults.transient_failure_prob = 1.0;  // never answers
  VirtualClock clock;
  ValuationOracle backing(hidden);
  FaultyOracle faulty(backing, sdb.pool(), plan, &clock);
  SessionOptions options;
  options.retry = RetryPolicy{};
  options.retry->max_attempts = 0;  // unlimited: only the deadline stops it
  options.retry->probe_deadline_nanos = 20'000'000;  // 20ms per probe
  options.clock = &clock;
  Result<SessionReport> report =
      manager.DecideAll(testing::RecruitmentQuerySql(), faulty, options);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report.value().failures.probe_deadline, 0u);
  EXPECT_EQ(report.value().num_unresolved, report.value().tuples.size());
}

TEST(ResilientSessionTest, LegacyReportsOmitResilienceFields) {
  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  core::ConsentManager manager(sdb);
  Rng rng(45);
  ValuationOracle oracle(sdb.pool().SampleValuation(rng));
  Result<SessionReport> report =
      manager.DecideAll(testing::RecruitmentQuerySql(), oracle);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().resilient);
  const std::string json = report.value().ToJson();
  EXPECT_EQ(json.find("num_retries"), std::string::npos);
  EXPECT_EQ(json.find("verdict"), std::string::npos);
  EXPECT_EQ(json.find("failures"), std::string::npos);
  const std::string text = report.value().ToString();
  EXPECT_EQ(text.find("unresolved"), std::string::npos);
  EXPECT_EQ(text.find("retries"), std::string::npos);
}

TEST(ResilientSessionTest, ResilientReportsCarryResilienceFields) {
  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  core::ConsentManager manager(sdb);
  Rng rng(46);
  PartialValuation hidden = sdb.pool().SampleValuation(rng);
  VirtualClock clock;
  ValuationOracle backing(hidden);
  FaultyOracle faulty(backing, sdb.pool(), FaultPlan{}, &clock);
  SessionOptions options;
  options.retry = RetryPolicy{};
  options.clock = &clock;
  Result<SessionReport> report =
      manager.DecideAll(testing::RecruitmentQuerySql(), faulty, options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().resilient);
  const std::string json = report.value().ToJson();
  EXPECT_NE(json.find("\"num_retries\""), std::string::npos);
  EXPECT_NE(json.find("\"num_unresolved\""), std::string::npos);
  EXPECT_NE(json.find("\"failures\""), std::string::npos);
  EXPECT_NE(json.find("\"verdict\""), std::string::npos);
  const std::string text = report.value().ToString();
  EXPECT_NE(text.find("unresolved=0"), std::string::npos);
}

TEST(ResilientSessionTest, EmptyFaultPlanIsByteIdenticalToLegacyProbes) {
  // A resilient session over a faultless oracle must issue the exact probe
  // sequence of the legacy session — the resilience layer is free when
  // nothing fails.
  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  core::ConsentManager manager(sdb);
  Rng rng(47);
  PartialValuation hidden = sdb.pool().SampleValuation(rng);

  ValuationOracle plain(hidden);
  Result<SessionReport> legacy =
      manager.DecideAll(testing::RecruitmentQuerySql(), plain);
  ASSERT_TRUE(legacy.ok());

  VirtualClock clock;
  ValuationOracle backing(hidden);
  FaultyOracle faulty(backing, sdb.pool(), FaultPlan{}, &clock);
  SessionOptions options;
  options.retry = RetryPolicy{};
  options.clock = &clock;
  Result<SessionReport> resilient =
      manager.DecideAll(testing::RecruitmentQuerySql(), faulty, options);
  ASSERT_TRUE(resilient.ok());

  EXPECT_EQ(resilient.value().num_probes, legacy.value().num_probes);
  EXPECT_EQ(resilient.value().num_retries, 0u);
  EXPECT_EQ(clock.NowNanos(), 0);  // no backoff, no latency
  ASSERT_EQ(resilient.value().trace.size(), legacy.value().trace.size());
  for (size_t i = 0; i < legacy.value().trace.size(); ++i) {
    EXPECT_EQ(resilient.value().trace[i].variable,
              legacy.value().trace[i].variable);
    EXPECT_EQ(resilient.value().trace[i].answer,
              legacy.value().trace[i].answer);
  }
}

TEST(ResilientSessionTest, RetryMetricsLandInTheRegistry) {
  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  core::ConsentManager manager(sdb);
  Rng rng(48);
  PartialValuation hidden = sdb.pool().SampleValuation(rng);

  obs::MetricsRegistry metrics;
  FaultPlan plan;
  plan.seed = 9;
  plan.defaults.transient_failure_prob = 0.5;
  VirtualClock clock;
  ValuationOracle backing(hidden);
  FaultyOracle faulty(backing, sdb.pool(), plan, &clock);
  SessionOptions options;
  options.retry = RetryPolicy{};
  options.retry->max_attempts = 20;
  options.clock = &clock;
  options.metrics = &metrics;
  Result<SessionReport> report =
      manager.DecideAll(testing::RecruitmentQuerySql(), faulty, options);
  ASSERT_TRUE(report.ok());
  ASSERT_GT(faulty.stats().transient_faults, 0u);  // p=0.5: some faults
  EXPECT_EQ(metrics.GetCounter("retry.transient")->value(),
            faulty.stats().transient_faults);
  EXPECT_EQ(metrics.GetCounter("retry.count")->value(),
            report.value().num_retries);
  EXPECT_EQ(metrics.GetHistogram("retry.backoff_ns")->count(),
            report.value().num_retries);
  // Virtual time advanced by the backoffs; real time did not block.
  EXPECT_GT(clock.NowNanos(), 0);
}

}  // namespace
}  // namespace consentdb
