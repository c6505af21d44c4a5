// consent/wal: WAL roundtrip and healing, group commit on virtual time,
// exhaustive damaged-tail recovery (truncation at every byte, a flip of
// every bit), compaction crash-safety, and the silence contract of ledger
// recovery. The concurrent suite (ConsentLedgerWalTest) runs under TSAN in
// CI: 8 sessions share one WAL-backed ledger through the SessionEngine.
//
// Everything runs on CrashingEnv (no real disk), so damage is exact and
// reproducible.

#include "consentdb/consent/wal.h"

#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "consentdb/consent/oracle.h"
#include "consentdb/consent/snapshot.h"
#include "consentdb/core/session_engine.h"
#include "consentdb/obs/metrics.h"
#include "consentdb/util/clock.h"
#include "consentdb/util/io.h"
#include "gtest/gtest.h"
#include "test_fixtures.h"

namespace consentdb::consent {
namespace {

using provenance::VarId;

using AnswerVec = std::vector<std::pair<VarId, bool>>;

std::unique_ptr<WalWriter> OpenOrDie(Env* env, const std::string& path,
                                     WalOptions options = {}) {
  Result<std::unique_ptr<WalWriter>> wal = WalWriter::Open(env, path, options);
  EXPECT_TRUE(wal.ok()) << wal.status().ToString();
  return std::move(wal.value());
}

TEST(WalTest, RoundtripInOrder) {
  CrashingEnv env;
  std::unique_ptr<WalWriter> wal = OpenOrDie(&env, "ledger.wal");
  ASSERT_TRUE(wal->AppendAnswer(3, true).ok());
  ASSERT_TRUE(wal->AppendAnswer(0, false).ok());
  ASSERT_TRUE(wal->AppendAnswer(7, true).ok());
  ASSERT_TRUE(wal->Close().ok());

  Result<WalReplay> replay = ReadWal(&env, "ledger.wal");
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value().records, 3u);
  EXPECT_FALSE(replay.value().torn_tail);
  EXPECT_FALSE(replay.value().corrupt_record);
  EXPECT_EQ(replay.value().bytes_dropped, 0u);
  AnswerVec expected = {{3, true}, {0, false}, {7, true}};
  EXPECT_EQ(replay.value().answers, expected);
}

TEST(WalTest, ReopenAppends) {
  CrashingEnv env;
  {
    std::unique_ptr<WalWriter> wal = OpenOrDie(&env, "ledger.wal");
    ASSERT_TRUE(wal->AppendAnswer(1, true).ok());
    ASSERT_TRUE(wal->Close().ok());
  }
  {
    std::unique_ptr<WalWriter> wal = OpenOrDie(&env, "ledger.wal");
    ASSERT_TRUE(wal->AppendAnswer(2, false).ok());
    ASSERT_TRUE(wal->Close().ok());
  }
  Result<WalReplay> replay = ReadWal(&env, "ledger.wal");
  ASSERT_TRUE(replay.ok());
  AnswerVec expected = {{1, true}, {2, false}};
  EXPECT_EQ(replay.value().answers, expected);
}

TEST(WalTest, MissingFileIsNotFound) {
  CrashingEnv env;
  EXPECT_EQ(ReadWal(&env, "nope.wal").status().code(), StatusCode::kNotFound);
}

TEST(WalTest, EmptyAndHeaderOnlyFiles) {
  CrashingEnv env;
  // Zero bytes: a crash before the magic made it out. Torn, zero records.
  ASSERT_TRUE(env.WriteStringToFile("empty.wal", "", false).ok());
  Result<WalReplay> replay = ReadWal(&env, "empty.wal");
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value().records, 0u);
  EXPECT_TRUE(replay.value().torn_tail);

  // Just the magic: a valid empty log.
  std::unique_ptr<WalWriter> wal = OpenOrDie(&env, "header.wal");
  ASSERT_TRUE(wal->Close().ok());
  replay = ReadWal(&env, "header.wal");
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value().records, 0u);
  EXPECT_FALSE(replay.value().torn_tail);
  EXPECT_FALSE(replay.value().corrupt_record);
}

TEST(WalTest, NonWalFileIsInvalidArgument) {
  CrashingEnv env;
  ASSERT_TRUE(
      env.WriteStringToFile("not.wal", "totally different format v2\n...",
                            false).ok());
  EXPECT_EQ(ReadWal(&env, "not.wal").status().code(),
            StatusCode::kInvalidArgument);
}

// Cutting the file at EVERY byte offset must yield the longest clean prefix
// of records — never an error, never a wrong answer, never a spurious extra
// record.
TEST(WalTest, TruncationAtEveryByteRecoversCleanPrefix) {
  CrashingEnv env;
  const AnswerVec written = {{5, true}, {2, false}, {9, true}, {4, false}};
  std::unique_ptr<WalWriter> wal = OpenOrDie(&env, "ledger.wal");
  // Record the file size after the header and after each append: those are
  // the clean boundaries a cut can land on.
  std::vector<size_t> boundaries;
  Result<std::string> full = env.ReadFileToString("ledger.wal");
  ASSERT_TRUE(full.ok());
  boundaries.push_back(full.value().size());
  for (const auto& [x, a] : written) {
    ASSERT_TRUE(wal->AppendAnswer(x, a).ok());
    full = env.ReadFileToString("ledger.wal");
    ASSERT_TRUE(full.ok());
    boundaries.push_back(full.value().size());
  }
  ASSERT_TRUE(wal->Close().ok());
  full = env.ReadFileToString("ledger.wal");
  ASSERT_TRUE(full.ok());
  const std::string bytes = full.value();

  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    ASSERT_TRUE(
        env.WriteStringToFile("cut.wal", bytes.substr(0, cut), false).ok());
    Result<WalReplay> replay = ReadWal(&env, "cut.wal");
    ASSERT_TRUE(replay.ok()) << "cut at " << cut << ": "
                             << replay.status().ToString();
    // How many records fit entirely below the cut?
    size_t complete = 0;
    while (complete + 1 < boundaries.size() &&
           boundaries[complete + 1] <= cut) {
      ++complete;
    }
    EXPECT_EQ(replay.value().records, complete) << "cut at " << cut;
    AnswerVec expected(written.begin(), written.begin() + complete);
    EXPECT_EQ(replay.value().answers, expected) << "cut at " << cut;
    const bool clean_boundary =
        cut == bytes.size() ||
        (cut >= boundaries.front() && boundaries[complete] == cut);
    EXPECT_EQ(replay.value().torn_tail, !clean_boundary) << "cut at " << cut;
    EXPECT_FALSE(replay.value().corrupt_record) << "cut at " << cut;
  }
}

// Flipping ANY single bit of the file must never fabricate a wrong answer:
// the replay either stops at the damaged record (prefix intact) or the
// whole file is rejected (magic damage).
TEST(WalTest, BitFlipAtEveryPositionNeverFabricatesAnswers) {
  CrashingEnv env;
  const AnswerVec written = {{1, true}, {6, false}, {3, true}};
  std::unique_ptr<WalWriter> wal = OpenOrDie(&env, "ledger.wal");
  for (const auto& [x, a] : written) {
    ASSERT_TRUE(wal->AppendAnswer(x, a).ok());
  }
  ASSERT_TRUE(wal->Close().ok());
  Result<std::string> full = env.ReadFileToString("ledger.wal");
  ASSERT_TRUE(full.ok());
  const std::string bytes = full.value();

  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::string mutated = bytes;
    mutated[bit / 8] = static_cast<char>(mutated[bit / 8] ^ (1 << (bit % 8)));
    ASSERT_TRUE(env.WriteStringToFile("flip.wal", mutated, false).ok());
    Result<WalReplay> replay = ReadWal(&env, "flip.wal");
    if (!replay.ok()) {
      // Only magic damage may reject the file outright.
      EXPECT_LT(bit / 8, size_t{16}) << "bit " << bit;
      continue;
    }
    // Every replayed answer must be a prefix of what was written.
    ASSERT_LE(replay.value().answers.size(), written.size()) << "bit " << bit;
    for (size_t i = 0; i < replay.value().answers.size(); ++i) {
      EXPECT_EQ(replay.value().answers[i], written[i]) << "bit " << bit;
    }
    // Damage past the magic loses at most the records from the damaged one
    // on, and is reported.
    if (replay.value().answers.size() < written.size()) {
      EXPECT_TRUE(replay.value().corrupt_record || replay.value().torn_tail)
          << "bit " << bit;
    }
  }
}

TEST(WalTest, OpenHealsATornTail) {
  CrashingEnv env;
  {
    std::unique_ptr<WalWriter> wal = OpenOrDie(&env, "ledger.wal");
    ASSERT_TRUE(wal->AppendAnswer(1, true).ok());
    ASSERT_TRUE(wal->AppendAnswer(2, false).ok());
    ASSERT_TRUE(wal->Close().ok());
  }
  // Tear the final record by hand.
  Result<std::string> full = env.ReadFileToString("ledger.wal");
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(env.WriteStringToFile(
      "ledger.wal", full.value().substr(0, full.value().size() - 3),
      false).ok());
  // Re-open: the torn record is excised, the clean prefix stays, and new
  // appends land after it.
  {
    std::unique_ptr<WalWriter> wal = OpenOrDie(&env, "ledger.wal");
    ASSERT_TRUE(wal->AppendAnswer(3, true).ok());
    ASSERT_TRUE(wal->Close().ok());
  }
  Result<WalReplay> replay = ReadWal(&env, "ledger.wal");
  ASSERT_TRUE(replay.ok());
  AnswerVec expected = {{1, true}, {3, true}};
  EXPECT_EQ(replay.value().answers, expected);
  EXPECT_FALSE(replay.value().torn_tail);
}

TEST(WalTest, GroupCommitBatchesSyncsOnTheClock) {
  CrashingEnv env;
  VirtualClock clock;
  WalOptions options;
  options.group_commit_window_nanos = 1'000'000;  // 1ms
  options.clock = &clock;
  std::unique_ptr<WalWriter> wal = OpenOrDie(&env, "ledger.wal", options);
  const uint64_t syncs_after_open = wal->syncs();

  // Within the window: appends buffer, no fsync.
  ASSERT_TRUE(wal->AppendAnswer(1, true).ok());
  ASSERT_TRUE(wal->AppendAnswer(2, true).ok());
  EXPECT_EQ(wal->syncs(), syncs_after_open);
  EXPECT_EQ(wal->pending_records(), 2u);

  // Window elapses: the next append carries the batch to disk.
  clock.Advance(2'000'000);
  ASSERT_TRUE(wal->AppendAnswer(3, true).ok());
  EXPECT_EQ(wal->syncs(), syncs_after_open + 1);
  EXPECT_EQ(wal->pending_records(), 0u);

  // A power cut now loses nothing: all three records were fsynced.
  CrashPlan plan;
  plan.crash_at_append = 1;
  plan.power_loss = true;
  env.set_plan(plan);
  EXPECT_THROW((void)wal->AppendAnswer(4, true), CrashInjected);
  env.Restart();
  Result<WalReplay> replay = ReadWal(&env, "ledger.wal");
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value().records, 3u);
}

TEST(WalTest, WindowZeroSyncsEveryAppend) {
  CrashingEnv env;
  std::unique_ptr<WalWriter> wal = OpenOrDie(&env, "ledger.wal");
  const uint64_t base = wal->syncs();
  ASSERT_TRUE(wal->AppendAnswer(1, true).ok());
  ASSERT_TRUE(wal->AppendAnswer(2, true).ok());
  EXPECT_EQ(wal->syncs(), base + 2);
  EXPECT_EQ(wal->pending_records(), 0u);
}

TEST(WalTest, CompactionMovesAnswersToSnapshotAndResetsLog) {
  CrashingEnv env;
  std::unique_ptr<WalWriter> wal = OpenOrDie(&env, "ledger.wal");
  ASSERT_TRUE(wal->AppendAnswer(1, true).ok());
  ASSERT_TRUE(wal->AppendAnswer(2, false).ok());
  ASSERT_TRUE(wal->CompactTo({{1, true}, {2, false}}).ok());
  ASSERT_TRUE(wal->AppendAnswer(3, true).ok());
  ASSERT_TRUE(wal->Close().ok());

  // The log holds only post-compaction records...
  Result<WalReplay> replay = ReadWal(&env, "ledger.wal");
  ASSERT_TRUE(replay.ok());
  AnswerVec tail = {{3, true}};
  EXPECT_EQ(replay.value().answers, tail);
  // ...and the sidecar holds the compacted set.
  Result<std::string> snap =
      env.ReadFileToString(WalSnapshotPath("ledger.wal"));
  ASSERT_TRUE(snap.ok());
  Result<AnswerVec> restored = LoadLedgerSnapshot(snap.value());
  ASSERT_TRUE(restored.ok());
  AnswerVec compacted = {{1, true}, {2, false}};
  EXPECT_EQ(restored.value(), compacted);
}

// A crash at any append/sync during compaction leaves a recoverable pair of
// files: recovery always reproduces the full answer set.
TEST(WalTest, CrashDuringCompactionIsRecoverable) {
  const AnswerVec all = {{1, true}, {2, false}, {3, true}};
  for (uint64_t crash_at = 1; crash_at <= 6; ++crash_at) {
    for (bool power_loss : {false, true}) {
      CrashingEnv env;
      std::unique_ptr<WalWriter> wal = OpenOrDie(&env, "ledger.wal");
      for (const auto& [x, a] : all) {
        ASSERT_TRUE(wal->AppendAnswer(x, a).ok());
      }
      CrashPlan plan;
      plan.crash_at_append = crash_at;
      plan.power_loss = power_loss;
      env.set_plan(plan);
      bool crashed = false;
      try {
        Status status = wal->CompactTo(all);
        // Compaction may also surface the crash as a Status (when the
        // injected point hits a non-append op inside); both are fine as
        // long as recovery below works.
        crashed = !status.ok();
      } catch (const CrashInjected&) {
        crashed = true;
      }
      env.Restart();
      ConsentLedger ledger;
      Result<RecoveryStats> stats =
          RecoverLedger(&env, "ledger.wal", &ledger);
      ASSERT_TRUE(stats.ok())
          << "crash_at=" << crash_at << " power_loss=" << power_loss << ": "
          << stats.status().ToString();
      for (const auto& [x, a] : all) {
        std::optional<bool> got = ledger.Lookup(x);
        if (!crashed && !got.has_value()) continue;  // plan never fired
        ASSERT_TRUE(got.has_value())
            << "crash_at=" << crash_at << " power_loss=" << power_loss
            << " var=" << x;
        EXPECT_EQ(*got, a) << "crash_at=" << crash_at << " var=" << x;
      }
    }
  }
}

// --- RecoverLedger ----------------------------------------------------------

TEST(ConsentLedgerWalTest, JournalsEveryRecordedAnswer) {
  CrashingEnv env;
  std::unique_ptr<WalWriter> wal = OpenOrDie(&env, "ledger.wal");
  ConsentLedger ledger;
  ledger.AttachJournal(wal.get());
  ReplayOracle oracle({{0, true}, {4, false}});
  EXPECT_EQ(ledger.TryProbeVia(oracle, 0), ProbeAttempt::Answered(true));
  EXPECT_EQ(ledger.TryProbeVia(oracle, 4), ProbeAttempt::Answered(false));
  // A ledger hit is not re-journaled.
  EXPECT_EQ(ledger.TryProbeVia(oracle, 0), ProbeAttempt::Answered(true));
  ASSERT_TRUE(ledger.journal_error().ok());
  ASSERT_TRUE(wal->Sync().ok());

  Result<WalReplay> replay = ReadWal(&env, "ledger.wal");
  ASSERT_TRUE(replay.ok());
  AnswerVec expected = {{0, true}, {4, false}};
  EXPECT_EQ(replay.value().answers, expected);
}

TEST(ConsentLedgerWalTest, RecoveryIsObservationallySilent) {
  CrashingEnv env;
  {
    std::unique_ptr<WalWriter> wal = OpenOrDie(&env, "ledger.wal");
    ASSERT_TRUE(wal->AppendAnswer(0, true).ok());
    ASSERT_TRUE(wal->AppendAnswer(1, false).ok());
    ASSERT_TRUE(wal->Close().ok());
  }
  obs::MetricsRegistry metrics;
  ConsentLedger ledger;
  Result<RecoveryStats> stats =
      RecoverLedger(&env, "ledger.wal", &ledger, &metrics);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().recovered_answers, 2u);
  EXPECT_EQ(stats.value().wal_records, 2u);

  // The ledger answers recovered variables without any oracle, and the
  // replay moved none of the probe-path tallies.
  EXPECT_EQ(ledger.restored_answers(), 2u);
  EXPECT_EQ(ledger.hits(), 0u);
  EXPECT_EQ(ledger.oracle_probes(), 0u);
  EXPECT_EQ(ledger.Lookup(0), std::optional<bool>(true));
  EXPECT_EQ(ledger.Lookup(1), std::optional<bool>(false));

  // Only recovery.* (and possibly wal.*) metrics exist — no session.*,
  // probe.*, retry.* or strategy.* signal may fire during replay.
  const std::string exported = metrics.ExportText();
  std::istringstream lines(exported);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(line.rfind("recovery.", 0) == 0 || line.rfind("wal.", 0) == 0)
        << "unexpected metric during recovery: " << line;
  }
}

TEST(ConsentLedgerWalTest, RecoveryOfMissingFilesIsEmpty) {
  CrashingEnv env;
  ConsentLedger ledger;
  Result<RecoveryStats> stats = RecoverLedger(&env, "fresh.wal", &ledger);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().recovered_answers, 0u);
  EXPECT_EQ(ledger.size(), 0u);
}

TEST(ConsentLedgerWalTest, ConflictingJournaledAnswersAreInternal) {
  CrashingEnv env;
  ConsentLedger ledger;
  ASSERT_TRUE(ledger.RestoreAnswer(3, true).ok());
  ASSERT_TRUE(ledger.RestoreAnswer(3, true).ok());  // idempotent
  Status conflict = ledger.RestoreAnswer(3, false);
  EXPECT_EQ(conflict.code(), StatusCode::kInternal);
  EXPECT_EQ(ledger.restored_answers(), 1u);
}

TEST(ConsentLedgerWalTest, SnapshotPlusTailReplay) {
  CrashingEnv env;
  {
    std::unique_ptr<WalWriter> wal = OpenOrDie(&env, "ledger.wal");
    ASSERT_TRUE(wal->AppendAnswer(0, true).ok());
    ASSERT_TRUE(wal->AppendAnswer(1, true).ok());
    ASSERT_TRUE(wal->CompactTo({{0, true}, {1, true}}).ok());
    ASSERT_TRUE(wal->AppendAnswer(2, false).ok());
    ASSERT_TRUE(wal->Close().ok());
  }
  ConsentLedger ledger;
  Result<RecoveryStats> stats = RecoverLedger(&env, "ledger.wal", &ledger);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().snapshot_answers, 2u);
  EXPECT_EQ(stats.value().wal_records, 1u);
  EXPECT_EQ(stats.value().recovered_answers, 3u);
  EXPECT_EQ(ledger.Lookup(2), std::optional<bool>(false));
}

// 8 concurrent sessions share one WAL-backed ledger through the engine;
// afterwards a recovered ledger holds exactly the journaled answers. Runs
// under TSAN in CI (suite name matches the TSAN ctest filter).
TEST(ConsentLedgerWalTest, ConcurrentSessionsShareOneJournaledLedger) {
  CrashingEnv env;
  std::unique_ptr<WalWriter> wal = OpenOrDie(&env, "ledger.wal");

  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  provenance::PartialValuation hidden;
  for (VarId x = 0; x < sdb.pool().size(); ++x) {
    hidden.Set(x, (x * 7 + 1) % 3 != 0);
  }

  {
    core::EngineOptions options;
    options.num_threads = 8;
    options.wal = wal.get();
    core::SessionEngine engine(sdb, options);
    std::vector<std::unique_ptr<ValuationOracle>> oracles;
    std::vector<core::SessionRequest> requests;
    for (int i = 0; i < 8; ++i) {
      oracles.push_back(std::make_unique<ValuationOracle>(hidden));
      core::SessionRequest request;
      request.sql = testing::RecruitmentQuerySql();
      request.oracle = oracles.back().get();
      requests.push_back(std::move(request));
    }
    std::vector<Result<core::SessionReport>> results =
        engine.RunAll(std::move(requests));
    for (const Result<core::SessionReport>& r : results) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    ASSERT_TRUE(engine.ledger().journal_error().ok());

    // Recover from the journal into a fresh ledger: it must hold exactly
    // the engine ledger's answers.
    ASSERT_TRUE(wal->Sync().ok());
    ConsentLedger recovered;
    Result<RecoveryStats> stats =
        RecoverLedger(&env, "ledger.wal", &recovered);
    ASSERT_TRUE(stats.ok());
    AnswerVec original = engine.ledger().Answers();
    EXPECT_EQ(recovered.Answers(), original);
    EXPECT_GT(original.size(), 0u);
  }
  ASSERT_TRUE(wal->Close().ok());
}

}  // namespace
}  // namespace consentdb::consent
