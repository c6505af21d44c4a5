// Crash-recovery property harness: 240 seeded random crash schedules over
// full consent sessions on the recruitment database. Each schedule kills the
// process (via CrashingEnv) at a random WAL append or fsync — sometimes
// tearing the fatal write, sometimes cutting power — then restarts, recovers
// the ledger from snapshot + WAL tail, and re-runs the session.
//
// The invariants, for every schedule:
//
//   1. The resumed session's report is byte-identical (ToJson) to the
//      uninterrupted run — recovery is semantics-preserving.
//   2. No journaled variable ever reaches a peer again: the resumed
//      session's oracle traffic is exactly (distinct variables probed) −
//      (answers recovered from the journal).
//   3. Recovery itself never fails, whatever prefix of the WAL survived.
//
// Everything runs on the in-memory CrashingEnv; no real disk, no real time.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "consentdb/consent/oracle.h"
#include "consentdb/consent/sharded_ledger.h"
#include "consentdb/consent/wal.h"
#include "consentdb/core/checkpoint.h"
#include "consentdb/core/consent_manager.h"
#include "consentdb/util/clock.h"
#include "consentdb/util/io.h"
#include "consentdb/util/rng.h"
#include "test_fixtures.h"

namespace consentdb {
namespace {

using consent::ConsentLedger;
using consent::OpenShardWalSet;
using consent::RecoveryStats;
using consent::ShardedConsentLedger;
using consent::ShardWalSet;
using consent::ValuationOracle;
using consent::WalOptions;
using consent::WalWriter;
using provenance::PartialValuation;

TEST(CrashRecoveryProperty, ResumedSessionsAreByteIdenticalAndProbeOnceEver) {
  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  core::ConsentManager manager(sdb);

  size_t crashed_schedules = 0;
  size_t torn_schedules = 0;
  size_t power_loss_schedules = 0;
  size_t completed_schedules = 0;

  for (uint64_t seed = 0; seed < 240; ++seed) {
    SCOPED_TRACE("crash schedule seed " + std::to_string(seed));
    Rng rng(52'000 + seed);
    PartialValuation hidden = sdb.pool().SampleValuation(rng);

    // Ground truth: the uninterrupted session (through a ledger, exactly
    // like the recovered run, so the comparison is apples to apples).
    ValuationOracle baseline_backing(hidden);
    ConsentLedger baseline_ledger;
    core::SessionOptions options;
    options.ledger = &baseline_ledger;
    Result<core::SessionReport> baseline = manager.DecideAll(
        testing::RecruitmentQuerySql(), baseline_backing, options);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    const size_t distinct_vars = baseline_backing.probe_count();

    // The crash schedule: kill at a random append or fsync, torn bytes and
    // power loss at random; some schedules place the crash past the end of
    // the session and thus never fire.
    CrashingEnv env;
    CrashPlan plan;
    if (rng.Bernoulli(0.25)) {
      plan.crash_at_sync = 1 + rng.UniformIndex(distinct_vars + 2);
    } else {
      plan.crash_at_append = 1 + rng.UniformIndex(distinct_vars + 2);
    }
    plan.power_loss = rng.Bernoulli(0.4);
    if (rng.Bernoulli(0.5)) {
      plan.torn_bytes = 1 + rng.UniformIndex(16);
      ++torn_schedules;
    }
    if (plan.power_loss) ++power_loss_schedules;
    env.set_plan(plan);

    // Some schedules batch fsyncs (group commit on a virtual clock), which
    // under power loss exercises losing a whole unsynced batch.
    VirtualClock wal_clock;
    WalOptions wal_options;
    if (rng.Bernoulli(0.3)) {
      wal_options.group_commit_window_nanos = 1'000'000;
      wal_options.clock = &wal_clock;
    }

    // First attempt: probe with the WAL journaling every answer, and maybe
    // crash somewhere along the way.
    bool crashed = false;
    // Open itself appends and syncs the header, so the fatal op can fire
    // anywhere from WAL creation to the final session fsync. The WalWriter
    // destructor then runs against a dead env; its best-effort sync/close
    // must tolerate that (not throwing IS part of the property).
    try {
      Result<std::unique_ptr<WalWriter>> wal =
          WalWriter::Open(&env, "ledger.wal", wal_options);
      ASSERT_TRUE(wal.ok()) << wal.status().ToString();
      ConsentLedger ledger;
      const uint64_t compact_every =
          rng.Bernoulli(0.25) ? 1 + rng.UniformIndex(4) : 0;
      ledger.AttachJournal(wal.value().get(), compact_every);
      ValuationOracle backing(hidden);
      core::SessionOptions first_options;
      first_options.ledger = &ledger;
      Result<core::SessionReport> first = manager.DecideAll(
          testing::RecruitmentQuerySql(), backing, first_options);
      ASSERT_TRUE(first.ok()) << first.status().ToString();
      Status synced = wal.value()->Sync();
      ASSERT_TRUE(synced.ok()) << synced.ToString();
      // The schedule never fired: the journaled run must already match.
      EXPECT_EQ(first.value().ToJson(), baseline.value().ToJson());
    } catch (const CrashInjected&) {
      crashed = true;
    }
    if (crashed) {
      ++crashed_schedules;
    } else {
      ++completed_schedules;
    }

    // Reboot and recover whatever prefix of the journal survived.
    env.Restart();
    ConsentLedger recovered;
    Result<RecoveryStats> stats =
        consent::RecoverLedger(&env, "ledger.wal", &recovered);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    const uint64_t replayed = recovered.restored_answers();
    ASSERT_LE(replayed, distinct_vars);

    // Invariant 1 + 2: the resumed session reports byte-identically, and
    // peers are asked only the not-yet-journaled variables.
    ValuationOracle resumed_backing(hidden);
    core::SessionOptions resume_options;
    resume_options.ledger = &recovered;
    Result<core::SessionReport> resumed = manager.DecideAll(
        testing::RecruitmentQuerySql(), resumed_backing, resume_options);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(resumed.value().ToJson(), baseline.value().ToJson());
    EXPECT_EQ(resumed_backing.probe_count(), distinct_vars - replayed);
  }

  // The generator must exercise every regime, including actual crashes,
  // torn writes, power cuts and crash-free completions.
  EXPECT_GT(crashed_schedules, 100u);
  EXPECT_GT(completed_schedules, 10u);
  EXPECT_GT(torn_schedules, 60u);
  EXPECT_GT(power_loss_schedules, 60u);
}

// The same property with repeated crashes in ONE schedule: crash, recover,
// crash again mid-resume, recover again — consent already journaled must
// survive arbitrarily many restarts, and the final report is still exact.
TEST(CrashRecoveryProperty, RepeatedCrashesNeverLoseJournaledConsent) {
  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  core::ConsentManager manager(sdb);

  for (uint64_t seed = 0; seed < 30; ++seed) {
    SCOPED_TRACE("repeated-crash seed " + std::to_string(seed));
    Rng rng(81'000 + seed);
    PartialValuation hidden = sdb.pool().SampleValuation(rng);

    ValuationOracle baseline_backing(hidden);
    ConsentLedger baseline_ledger;
    core::SessionOptions baseline_options;
    baseline_options.ledger = &baseline_ledger;
    Result<core::SessionReport> baseline = manager.DecideAll(
        testing::RecruitmentQuerySql(), baseline_backing, baseline_options);
    ASSERT_TRUE(baseline.ok());

    CrashingEnv env;
    size_t total_peer_probes = 0;
    Result<core::SessionReport> final_report = Status::Internal("never ran");
    // Keep crashing one append into each attempt until a run completes;
    // every attempt journals at least its first fresh answer, so the loop
    // is bounded by the number of variables.
    for (int attempt = 0; attempt < 64; ++attempt) {
      CrashPlan plan;
      plan.crash_at_append = 2;  // the second fresh answer of this attempt
      plan.torn_bytes = rng.Bernoulli(0.5) ? 1 + rng.UniformIndex(8) : 0;
      env.set_plan(plan);

      Result<std::unique_ptr<WalWriter>> wal =
          WalWriter::Open(&env, "ledger.wal");
      ASSERT_TRUE(wal.ok()) << wal.status().ToString();
      ConsentLedger ledger;
      Result<RecoveryStats> stats =
          consent::RecoverLedger(&env, "ledger.wal", &ledger);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      ledger.AttachJournal(wal.value().get());

      ValuationOracle backing(hidden);
      core::SessionOptions options;
      options.ledger = &ledger;
      try {
        final_report = manager.DecideAll(testing::RecruitmentQuerySql(),
                                         backing, options);
        total_peer_probes += backing.probe_count();
        break;
      } catch (const CrashInjected&) {
        total_peer_probes += backing.probe_count();
        env.Restart();
      }
    }
    ASSERT_TRUE(final_report.ok()) << final_report.status().ToString();
    EXPECT_EQ(final_report.value().ToJson(), baseline.value().ToJson());
    // Across ALL attempts combined, no variable was asked twice — a torn
    // final record may lose one answer per crash, so the total is bounded
    // by distinct variables plus one re-ask per restart, and with no torn
    // bytes it is exactly the distinct-variable count.
    EXPECT_LE(total_peer_probes,
              baseline_backing.probe_count() + size_t{64});
  }
}

// The shard crash grid: 240 seeded random schedules over shard
// counts {1, 2, 4, 7}, each journaling a full consent session through a
// shard WAL set on CrashingEnv and killing the process (kill or power
// loss, torn writes at random) anywhere from set creation to the final
// fsync. After reboot:
//
//   1. Cross-shard recovery (into a plain ledger on even seeds, into a
//      *differently* sharded ledger on odd ones) never fails, and the
//      resumed session reports byte-identically to the uninterrupted run.
//   2. Zero duplicate probes: the resumed session's oracle traffic is
//      exactly (distinct variables) − (answers recovered across shards).
TEST(ShardedCrashGrid, CrashedShardSetsRecoverExactlyAtEveryShardCount) {
  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  core::ConsentManager manager(sdb);
  const size_t kShardChoices[] = {1, 2, 4, 7};

  size_t crashed_schedules = 0;
  size_t torn_schedules = 0;
  size_t power_loss_schedules = 0;
  size_t completed_schedules = 0;

  for (uint64_t seed = 0; seed < 240; ++seed) {
    SCOPED_TRACE("shard crash schedule seed " + std::to_string(seed));
    Rng rng(97'000 + seed);
    const size_t num_shards = kShardChoices[rng.UniformIndex(4)];
    const uint64_t generation = 1 + rng.UniformIndex(3);
    PartialValuation hidden = sdb.pool().SampleValuation(rng);

    ValuationOracle baseline_backing(hidden);
    ConsentLedger baseline_ledger;
    core::SessionOptions options;
    options.ledger = &baseline_ledger;
    Result<core::SessionReport> baseline = manager.DecideAll(
        testing::RecruitmentQuerySql(), baseline_backing, options);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    const size_t distinct_vars = baseline_backing.probe_count();

    // The fatal operation can fire anywhere in the env-wide append/sync
    // sequence: creating the set costs one header append + sync per shard
    // before the session's own journaling starts.
    CrashingEnv env;
    CrashPlan plan;
    const size_t op_range = distinct_vars + 2 * num_shards + 2;
    if (rng.Bernoulli(0.25)) {
      plan.crash_at_sync = 1 + rng.UniformIndex(op_range);
    } else {
      plan.crash_at_append = 1 + rng.UniformIndex(op_range);
    }
    plan.power_loss = rng.Bernoulli(0.4);
    if (rng.Bernoulli(0.5)) {
      plan.torn_bytes = 1 + rng.UniformIndex(16);
      ++torn_schedules;
    }
    if (plan.power_loss) ++power_loss_schedules;
    env.set_plan(plan);

    VirtualClock wal_clock;
    WalOptions wal_options;
    if (rng.Bernoulli(0.3)) {
      wal_options.group_commit_window_nanos = 1'000'000;
      wal_options.clock = &wal_clock;
    }
    const uint64_t compact_every =
        rng.Bernoulli(0.25) ? 1 + rng.UniformIndex(4) : 0;

    bool crashed = false;
    try {
      Result<ShardWalSet> set = OpenShardWalSet(&env, "ledger", num_shards,
                                                generation, wal_options);
      ASSERT_TRUE(set.ok()) << set.status().ToString();
      ShardedConsentLedger ledger(num_shards);
      ledger.AttachShardJournals(set.value().pointers(), compact_every);
      ValuationOracle backing(hidden);
      core::SessionOptions first_options;
      first_options.ledger = &ledger;
      Result<core::SessionReport> first = manager.DecideAll(
          testing::RecruitmentQuerySql(), backing, first_options);
      ASSERT_TRUE(first.ok()) << first.status().ToString();
      for (WalWriter* wal : set.value().pointers()) {
        Status synced = wal->Sync();
        ASSERT_TRUE(synced.ok()) << synced.ToString();
      }
      EXPECT_EQ(first.value().ToJson(), baseline.value().ToJson());
    } catch (const CrashInjected&) {
      crashed = true;
    }
    if (crashed) {
      ++crashed_schedules;
    } else {
      ++completed_schedules;
    }

    env.Restart();

    // Recovery target alternates between merging down to a plain ledger
    // and re-partitioning onto a different shard count.
    std::unique_ptr<ConsentLedger> recovered;
    if (seed % 2 == 0) {
      recovered = std::make_unique<ConsentLedger>();
    } else {
      recovered = std::make_unique<ShardedConsentLedger>(
          kShardChoices[rng.UniformIndex(4)]);
    }
    Result<core::ShardRecoveryStats> stats = core::RecoverShardedLedger(
        &env, "ledger", num_shards, recovered.get());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    const uint64_t replayed = stats.value().recovered_answers;
    ASSERT_LE(replayed, distinct_vars);
    ASSERT_EQ(stats.value().shards.size(), num_shards);
    if (replayed > 0) {
      // Any surviving answer proves at least one stamped member survived,
      // and every member must have carried the requested generation.
      EXPECT_EQ(stats.value().generation, generation);
    }

    // Byte-identical resume, with zero duplicate probes across the crash.
    ValuationOracle resumed_backing(hidden);
    core::SessionOptions resume_options;
    resume_options.ledger = recovered.get();
    Result<core::SessionReport> resumed = manager.DecideAll(
        testing::RecruitmentQuerySql(), resumed_backing, resume_options);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(resumed.value().ToJson(), baseline.value().ToJson());
    EXPECT_EQ(resumed_backing.probe_count(), distinct_vars - replayed);
  }

  EXPECT_GT(crashed_schedules, 100u);
  EXPECT_GT(completed_schedules, 10u);
  EXPECT_GT(torn_schedules, 60u);
  EXPECT_GT(power_loss_schedules, 60u);
}

}  // namespace
}  // namespace consentdb
