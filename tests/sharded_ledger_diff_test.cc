// Sharded-ledger differential suite (`ctest -L sharding`): the same
// sessions, run against engines whose shared consent ledger is split into
// 1, 2, 4 and 7 shards, must produce byte-identical SessionReports and
// probe traces — sharding is a pure performance structure, invisible to
// every observable artifact. The suite also pins the pieces that make that
// hold: the stable shard routing, the cross-shard stats aggregation, the
// shard-WAL round trip through OpenShardWalSet + RecoverShardedLedger, and
// the shard-set rule both of them apply.
//
// Suite names deliberately start with ShardedLedger/ShardSetRule: the CI
// TSAN row selects them by that prefix and runs the multithreaded cases
// under the race detector.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "consentdb/consent/oracle.h"
#include "consentdb/consent/sharded_ledger.h"
#include "consentdb/consent/wal.h"
#include "consentdb/core/checkpoint.h"
#include "consentdb/core/consent_manager.h"
#include "consentdb/core/session_engine.h"
#include "consentdb/obs/tracer.h"
#include "consentdb/util/io.h"
#include "consentdb/util/rng.h"
#include "test_fixtures.h"

namespace consentdb {
namespace {

using consent::ConsentLedger;
using consent::OpenShardWalSet;
using consent::ProbeAttempt;
using consent::ProbeFault;
using consent::ShardedConsentLedger;
using consent::ShardWalPath;
using consent::ShardWalSet;
using consent::ValuationOracle;
using consent::WalOptions;
using consent::WalShardInfo;
using consent::WalWriter;
using provenance::VarId;

using AnswerVec = std::vector<std::pair<VarId, bool>>;

// The shard counts the differential property quantifies over: the legacy
// single ledger, powers of two, and a prime that exercises uneven routing.
const size_t kShardCounts[] = {1, 2, 4, 7};

AnswerVec CanonicalAnswers(size_t n = 96) {
  AnswerVec answers;
  for (VarId x = 0; x < n; ++x) answers.push_back({x, x % 3 == 0});
  return answers;
}

void FillLedger(ConsentLedger& ledger, const AnswerVec& answers) {
  for (const auto& [x, a] : answers) {
    Status st = ledger.RestoreAnswer(x, a);
    CONSENTDB_CHECK(st.ok(), st.ToString());
  }
}

// A deterministic full valuation over the fixture pool.
provenance::PartialValuation HiddenValuation(
    const consent::SharedDatabase& sdb) {
  provenance::PartialValuation hidden;
  for (VarId x = 0; x < sdb.pool().size(); ++x) hidden.Set(x, x % 3 != 1);
  return hidden;
}

// An oracle with a fixed answer function and injected transient faults,
// for exercising every tally (hits / oracle probes / faulted probes)
// identically against differently sharded ledgers.
class FixedOracle : public consent::ProbeOracle {
 public:
  explicit FixedOracle(bool fault_every_fifth = false)
      : fault_every_fifth_(fault_every_fifth) {}

  bool Probe(VarId x) override {
    ++probes_;
    return x % 3 == 0;
  }
  ProbeAttempt TryProbe(VarId x) override {
    if (fault_every_fifth_ && x % 5 == 0 && !faulted_[x]) {
      faulted_[x] = true;
      return ProbeAttempt::Faulted(ProbeFault::kTransient);
    }
    return ProbeAttempt::Answered(Probe(x));
  }
  size_t probe_count() const override { return probes_; }

 private:
  const bool fault_every_fifth_;
  size_t probes_ = 0;
  std::unordered_map<VarId, bool> faulted_;
};

TEST(ShardedLedgerTest, ShardOfPartitionsEveryVariable) {
  for (size_t n : kShardCounts) {
    std::vector<size_t> population(n, 0);
    for (VarId x = 0; x < 1024; ++x) {
      const size_t shard = ShardedConsentLedger::ShardOf(x, n);
      ASSERT_LT(shard, n) << "x=" << x << " n=" << n;
      // Routing is a pure function: the same variable always lands on the
      // same shard (the WAL set on disk depends on it).
      EXPECT_EQ(shard, ShardedConsentLedger::ShardOf(x, n));
      ++population[shard];
    }
    for (size_t k = 0; k < n; ++k) {
      // The mix must actually spread ids: with 1024 sequential variables
      // every shard sees a healthy share (exact balance is not required).
      EXPECT_GT(population[k], 1024 / n / 4)
          << "shard " << k << " of " << n << " starved";
    }
  }
  for (VarId x = 0; x < 64; ++x) {
    EXPECT_EQ(ShardedConsentLedger::ShardOf(x, 1), 0u);
  }
}

TEST(ShardedLedgerTest, AnswersMatchPlainLedgerAtEveryShardCount) {
  const AnswerVec canonical = CanonicalAnswers();
  ConsentLedger plain;
  FillLedger(plain, canonical);

  for (size_t n : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(n));
    ShardedConsentLedger sharded(n);
    AnswerVec shuffled = canonical;
    Rng(17).Shuffle(shuffled);
    FillLedger(sharded, shuffled);

    EXPECT_EQ(sharded.Answers(), plain.Answers());
    EXPECT_EQ(sharded.size(), plain.size());
    EXPECT_EQ(sharded.restored_answers(), plain.restored_answers());
    for (const auto& [x, answer] : canonical) {
      EXPECT_EQ(sharded.Lookup(x), std::optional<bool>(answer));
    }

    // Every shard holds exactly its partition, and the partitions tile the
    // whole answer set.
    size_t total = 0;
    for (size_t k = 0; k < n; ++k) {
      for (const auto& [x, answer] : sharded.shard(k).Answers()) {
        EXPECT_EQ(ShardedConsentLedger::ShardOf(x, n), k)
            << "x=" << x << " landed on the wrong shard";
      }
      total += sharded.shard(k).size();
    }
    EXPECT_EQ(total, canonical.size());
  }
}

// Satellite regression: the aggregated tallies of a 4-shard ledger equal a
// single ledger's after an identical probe workload — `\stats` and the
// engine.* metrics must read the same at any shard count.
TEST(ShardedLedgerTest, StatsAggregateToSingleLedgerTotals) {
  auto drive = [](ConsentLedger& ledger) {
    FixedOracle oracle(/*fault_every_fifth=*/true);
    // Fallible pass: every fifth variable faults once, retries succeed.
    for (VarId x = 0; x < 40; ++x) {
      ProbeAttempt attempt = ledger.TryProbeVia(oracle, x);
      if (!attempt.ok()) attempt = ledger.TryProbeVia(oracle, x);
      CONSENTDB_CHECK(attempt.ok(), "retry must answer");
    }
    // Second pass: all hits.
    for (VarId x = 0; x < 40; ++x) {
      CONSENTDB_CHECK(ledger.TryProbeVia(oracle, x).ok(), "hit faulted");
    }
    // Recovery-style restores on top.
    for (VarId x = 100; x < 110; ++x) {
      Status st = ledger.RestoreAnswer(x, true);
      CONSENTDB_CHECK(st.ok(), st.ToString());
    }
  };

  ConsentLedger plain;
  ShardedConsentLedger sharded(4);
  drive(plain);
  drive(sharded);

  EXPECT_EQ(sharded.size(), plain.size());
  EXPECT_EQ(sharded.hits(), plain.hits());
  EXPECT_EQ(sharded.oracle_probes(), plain.oracle_probes());
  EXPECT_EQ(sharded.faulted_probes(), plain.faulted_probes());
  EXPECT_EQ(sharded.restored_answers(), plain.restored_answers());
  EXPECT_EQ(sharded.Answers(), plain.Answers());
  EXPECT_EQ(sharded.faulted_probes(), 8u);  // 40 vars, every fifth faults
}

// One engine run: every report and (wall-clock-zeroed) probe trace, plus
// the ledger totals, captured for byte comparison across shard counts.
struct EngineArtifacts {
  std::vector<std::string> reports;
  std::vector<std::string> traces;
  size_t ledger_size = 0;
  uint64_t ledger_hits = 0;
  uint64_t ledger_oracle_probes = 0;
};

std::vector<std::string> DiffSqls() {
  return {
      testing::RecruitmentQuerySql(),
      "SELECT name FROM Companies",
      testing::RecruitmentQuerySql(),  // repeat: served via caches + ledger
      "SELECT sid FROM JobSeekers WHERE agency = 'Bob'",
      "SELECT vid FROM Vacancies WHERE amount = 3",
  };
}

EngineArtifacts RunEngine(size_t shards) {
  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  core::EngineOptions options;
  options.num_threads = 1;  // sequential: traces are fully deterministic
  options.ledger_shards = shards;
  core::SessionEngine engine(sdb, options);
  ValuationOracle oracle(HiddenValuation(sdb));

  EngineArtifacts artifacts;
  for (const std::string& sql : DiffSqls()) {
    obs::SessionTracer tracer;
    core::SessionRequest request;
    request.sql = sql;
    request.oracle = &oracle;
    request.tracer = &tracer;
    Result<core::SessionReport> report =
        engine.Submit(std::move(request)).get();
    CONSENTDB_CHECK(report.ok(), report.status().ToString());
    for (obs::ProbeEvent& event : tracer.mutable_events()) {
      event.decision_nanos = 0;
    }
    tracer.set_session_nanos(0);
    artifacts.reports.push_back(report.value().ToJson());
    artifacts.traces.push_back(tracer.ToJson());
  }
  artifacts.ledger_size = engine.ledger().size();
  artifacts.ledger_hits = engine.ledger().hits();
  artifacts.ledger_oracle_probes = engine.ledger().oracle_probes();
  return artifacts;
}

// The tentpole property: reports and probe traces are byte-identical at
// shard counts 1/2/4/7, and so are the engine-wide ledger totals.
TEST(ShardedLedgerDiff, ReportsAndTracesByteIdenticalAcrossShardCounts) {
  const EngineArtifacts baseline = RunEngine(1);
  ASSERT_EQ(baseline.reports.size(), DiffSqls().size());
  ASSERT_GT(baseline.ledger_size, 0u);

  for (size_t shards : {size_t{2}, size_t{4}, size_t{7}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const EngineArtifacts run = RunEngine(shards);
    EXPECT_EQ(run.reports, baseline.reports);
    EXPECT_EQ(run.traces, baseline.traces);
    EXPECT_EQ(run.ledger_size, baseline.ledger_size);
    EXPECT_EQ(run.ledger_hits, baseline.ledger_hits);
    EXPECT_EQ(run.ledger_oracle_probes, baseline.ledger_oracle_probes);
  }
}

// Concurrency differential (the TSAN target): many sessions race through a
// 4-shard ledger on a worker pool; every report must equal the sequential
// single-shard baseline for its query, and the ledger must end with exactly
// the distinct-variable answer set.
TEST(ShardedLedgerDiff, MultithreadedReportsMatchSequentialBaseline) {
  const EngineArtifacts baseline = RunEngine(1);
  const std::vector<std::string> sqls = DiffSqls();

  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  core::EngineOptions options;
  options.num_threads = 4;
  options.ledger_shards = 4;
  core::SessionEngine engine(sdb, options);
  ValuationOracle oracle(HiddenValuation(sdb));

  std::vector<core::SessionRequest> requests;
  std::vector<size_t> request_sql;
  for (int wave = 0; wave < 6; ++wave) {
    for (size_t i = 0; i < sqls.size(); ++i) {
      core::SessionRequest request;
      request.sql = sqls[i];
      request.oracle = &oracle;
      requests.push_back(std::move(request));
      request_sql.push_back(i);
    }
  }
  std::vector<Result<core::SessionReport>> results =
      engine.RunAll(std::move(requests));

  ASSERT_EQ(results.size(), request_sql.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    EXPECT_EQ(results[i].value().ToJson(), baseline.reports[request_sql[i]])
        << "request " << i;
  }
  // Concurrency may only change who pays the oracle call, never the merged
  // answer set.
  EXPECT_EQ(engine.ledger().size(), baseline.ledger_size);
  EXPECT_EQ(engine.ledger().oracle_probes(), baseline.ledger_oracle_probes);
}

// Round trip through the shard WAL set: journaled answers recover into a
// plain ledger AND into a differently sharded ledger with the identical
// merged view, the resumed session never re-probes, and the generation
// stamp survives reopen.
TEST(ShardedLedgerDiff, WalSetRoundTripRecoversIdenticalLedger) {
  CrashingEnv env;
  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  core::ConsentManager manager(sdb);
  provenance::PartialValuation hidden = HiddenValuation(sdb);

  AnswerVec journaled;
  {
    Result<ShardWalSet> set =
        OpenShardWalSet(&env, "ledger", 4, /*generation=*/3);
    ASSERT_TRUE(set.ok()) << set.status().ToString();
    EXPECT_EQ(set.value().generation, 3u);

    core::EngineOptions options;
    options.num_threads = 2;
    options.ledger_shards = 4;
    options.shard_wals = set.value().pointers();
    options.wal_compact_every_records = 2;  // exercise per-shard compaction
    core::SessionEngine engine(sdb, options);
    ValuationOracle oracle(hidden);
    for (const std::string& sql : DiffSqls()) {
      core::SessionRequest request;
      request.sql = sql;
      request.oracle = &oracle;
      Result<core::SessionReport> report =
          engine.Submit(std::move(request)).get();
      ASSERT_TRUE(report.ok()) << report.status().ToString();
    }
    ASSERT_TRUE(engine.ledger().journal_error().ok());
    journaled = engine.ledger().Answers();
    for (WalWriter* wal : set.value().pointers()) {
      ASSERT_TRUE(wal->Sync().ok());
    }
  }
  ASSERT_FALSE(journaled.empty());

  // Plain-target recovery: N shards merge down to one view.
  ConsentLedger merged;
  Result<core::ShardRecoveryStats> stats =
      core::RecoverShardedLedger(&env, "ledger", 4, &merged);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().generation, 3u);
  EXPECT_EQ(stats.value().shards.size(), 4u);
  EXPECT_EQ(stats.value().recovered_answers, journaled.size());
  EXPECT_EQ(merged.Answers(), journaled);

  // Re-partitioned-target recovery: same set into a 2-shard ledger.
  ShardedConsentLedger repartitioned(2);
  Result<core::ShardRecoveryStats> stats2 =
      core::RecoverShardedLedger(&env, "ledger", 4, &repartitioned);
  ASSERT_TRUE(stats2.ok()) << stats2.status().ToString();
  EXPECT_EQ(repartitioned.Answers(), journaled);

  // A session resumed on the recovered ledger replays entirely from it.
  ValuationOracle resumed_backing(hidden);
  core::SessionOptions resume_options;
  resume_options.ledger = &merged;
  Result<core::SessionReport> resumed = manager.DecideAll(
      testing::RecruitmentQuerySql(), resumed_backing, resume_options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed_backing.probe_count(), 0u);

  // Reopening the set with a different requested generation keeps the
  // stamped one — the on-disk epoch wins.
  Result<ShardWalSet> reopened =
      OpenShardWalSet(&env, "ledger", 4, /*generation=*/0);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().generation, 3u);

  // Resizing the set is never silent.
  Result<ShardWalSet> resized = OpenShardWalSet(&env, "ledger", 2);
  EXPECT_EQ(resized.status().code(), StatusCode::kFailedPrecondition);
}

// The shard-set rule (consent::CheckShardSetMember) as a table: every way
// a member can break it must fail both OpenShardWalSet and
// RecoverShardedLedger with FailedPrecondition, and the open must fail
// before it touches any file. Each case lays out members 1 and 2 of a
// three-member set; member 0 is absent, so an open that created files
// before checking the set would leave it behind.
TEST(ShardSetRule, EveryBreachFailsOpenAndRecovery) {
  struct Member {
    size_t slot;
    std::optional<WalShardInfo> header;  // nullopt: a plain, headerless log
  };
  struct Case {
    const char* name;
    std::vector<Member> members;
    StatusCode want;
  };
  const Case cases[] = {
      {"a well-formed set (control)",
       {{1, WalShardInfo{1, 3, 1}}, {2, WalShardInfo{2, 3, 1}}},
       StatusCode::kOk},
      {"a member at the wrong slot",
       {{1, WalShardInfo{1, 3, 1}}, {2, WalShardInfo{1, 3, 1}}},
       StatusCode::kFailedPrecondition},
      {"a member stamped for another set size",
       {{1, WalShardInfo{1, 3, 1}}, {2, WalShardInfo{2, 4, 1}}},
       StatusCode::kFailedPrecondition},
      {"a headerless member carrying records",
       {{1, WalShardInfo{1, 3, 1}}, {2, std::nullopt}},
       StatusCode::kFailedPrecondition},
      {"mixed generations",
       {{1, WalShardInfo{1, 3, 1}}, {2, WalShardInfo{2, 3, 2}}},
       StatusCode::kFailedPrecondition},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    CrashingEnv env;
    for (const Member& m : c.members) {
      WalOptions options;
      options.shard = m.header;
      Result<std::unique_ptr<WalWriter>> wal =
          WalWriter::Open(&env, ShardWalPath("set", m.slot), options);
      ASSERT_TRUE(wal.ok()) << wal.status().ToString();
      ASSERT_TRUE(wal.value()->AppendAnswer(m.slot, true).ok());
      ASSERT_TRUE(wal.value()->Close().ok());
    }

    ConsentLedger merged;
    Result<core::ShardRecoveryStats> recovered =
        core::RecoverShardedLedger(&env, "set", 3, &merged);
    EXPECT_EQ(recovered.status().code(), c.want)
        << recovered.status().ToString();

    Result<ShardWalSet> opened = OpenShardWalSet(&env, "set", 3);
    EXPECT_EQ(opened.status().code(), c.want) << opened.status().ToString();
    EXPECT_EQ(env.FileExists(ShardWalPath("set", 0)),
              c.want == StatusCode::kOk);
  }
}

}  // namespace
}  // namespace consentdb
