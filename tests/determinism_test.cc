// Hash-seed-perturbation regression suite: every serialized artifact —
// ledger snapshots, database snapshots, checkpoints, plan fingerprints,
// metrics/trace JSON — must be byte-identical no matter in which order the
// underlying hash tables were populated. Each test builds the same logical
// state along two differently-shuffled insertion paths (which scrambles
// unordered_map bucket chains exactly like a different hash seed would) and
// compares the serialized bytes. These are the teeth behind the analyzer's
// det-unordered-iter pass: every `det:order-insensitive` justification in
// the library is exercised here.

#include <string>
#include <utility>
#include <vector>

#include "consentdb/consent/oracle.h"
#include "consentdb/consent/sharded_ledger.h"
#include "consentdb/consent/snapshot.h"
#include "consentdb/consent/wal.h"
#include "consentdb/core/checkpoint.h"
#include "consentdb/core/session_engine.h"
#include "consentdb/obs/metrics.h"
#include "consentdb/obs/tracer.h"
#include "consentdb/query/parser.h"
#include "consentdb/query/plan.h"
#include "consentdb/util/io.h"
#include "consentdb/util/rng.h"
#include "gtest/gtest.h"
#include "test_fixtures.h"

namespace consentdb {
namespace {

using consent::ConsentLedger;
using consent::SaveLedgerSnapshot;
using consent::SaveSnapshot;
using consent::SharedDatabase;
using consent::ValuationOracle;
using provenance::VarId;
using relational::Tuple;

using AnswerVec = std::vector<std::pair<VarId, bool>>;

// The canonical answer set used by the ledger/checkpoint tests.
AnswerVec CanonicalAnswers() {
  AnswerVec answers;
  for (VarId x = 0; x < 64; ++x) answers.push_back({x, x % 3 == 0});
  return answers;
}

void FillLedger(ConsentLedger& ledger, const AnswerVec& answers) {
  for (const auto& [x, a] : answers) {
    Status st = ledger.RestoreAnswer(x, a);
    CONSENTDB_CHECK(st.ok(), st.ToString());
  }
}

TEST(DeterminismTest, LedgerSnapshotIndependentOfInsertionOrder) {
  const AnswerVec canonical = CanonicalAnswers();
  ConsentLedger forward;
  FillLedger(forward, canonical);
  const std::string golden = SaveLedgerSnapshot(forward.Answers());
  for (uint64_t seed : {1u, 7u, 42u}) {
    AnswerVec shuffled = canonical;
    Rng(seed).Shuffle(shuffled);
    ASSERT_NE(shuffled, canonical) << "shuffle was a no-op; seed " << seed;
    ConsentLedger ledger;
    FillLedger(ledger, shuffled);
    // Answers() sorts by VarId, so the unordered map's bucket order —
    // which the shuffled inserts just scrambled — must never leak out.
    EXPECT_EQ(ledger.Answers(), forward.Answers()) << "seed " << seed;
    EXPECT_EQ(SaveLedgerSnapshot(ledger.Answers()), golden)
        << "seed " << seed;
  }
}

TEST(DeterminismTest, SnapshotUnchangedByShuffledReinsert) {
  SharedDatabase sdb = testing::RecruitmentDatabase();
  const std::string before = SaveSnapshot(sdb);
  const uint64_t version = sdb.version();

  // Re-insert every tuple in shuffled order: annotation is one-to-one on
  // tuples, so each insert is a no-op that must perturb nothing.
  std::vector<std::pair<std::string, Tuple>> rows;
  for (const std::string& name : sdb.database().RelationNames()) {
    const relational::Relation& rel = sdb.database().RelationOrDie(name);
    for (const Tuple& t : rel.tuples()) rows.push_back({name, t});
  }
  Rng(3).Shuffle(rows);
  for (const auto& [name, t] : rows) {
    Result<VarId> var = sdb.InsertTuple(name, t, "intruder", 0.99);
    ASSERT_TRUE(var.ok()) << var.status().ToString();
  }

  EXPECT_EQ(sdb.version(), version) << "re-inserts must not bump version";
  EXPECT_EQ(SaveSnapshot(sdb), before);
}

TEST(DeterminismTest, SnapshotRoundtripIsAFixpoint) {
  SharedDatabase sdb = testing::RecruitmentDatabase();
  const std::string text = SaveSnapshot(sdb);
  Result<SharedDatabase> loaded = consent::LoadSnapshot(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(SaveSnapshot(loaded.value()), text);
}

TEST(DeterminismTest, CheckpointBytesIndependentOfLedgerInsertionOrder) {
  CrashingEnv env;
  SharedDatabase sdb = testing::RecruitmentDatabase();
  const AnswerVec canonical = CanonicalAnswers();
  AnswerVec shuffled = canonical;
  Rng(11).Shuffle(shuffled);
  std::vector<core::CheckpointedSession> sessions;
  sessions.push_back({testing::RecruitmentQuerySql(), std::nullopt});

  ConsentLedger a;
  ConsentLedger b;
  FillLedger(a, canonical);
  FillLedger(b, shuffled);
  ASSERT_TRUE(
      core::WriteCheckpoint(&env, "a.ckpt", sdb, a.Answers(), sessions).ok());
  ASSERT_TRUE(
      core::WriteCheckpoint(&env, "b.ckpt", sdb, b.Answers(), sessions).ok());

  Result<std::string> bytes_a = env.ReadFileToString("a.ckpt");
  Result<std::string> bytes_b = env.ReadFileToString("b.ckpt");
  ASSERT_TRUE(bytes_a.ok());
  ASSERT_TRUE(bytes_b.ok());
  EXPECT_EQ(bytes_a.value(), bytes_b.value());
}

TEST(DeterminismTest, PlanFingerprintStableAcrossParses) {
  Result<query::PlanPtr> first = query::ParseQuery(
      testing::RecruitmentQuerySql());
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // Parse unrelated queries in between to perturb any allocator or
  // interning state the parser keeps, then re-parse the same SQL.
  for (const char* other :
       {"SELECT name FROM Companies",
        "SELECT sid FROM JobSeekers WHERE agency = 'Bob'",
        "SELECT vid FROM Vacancies WHERE amount = 3"}) {
    ASSERT_TRUE(query::ParseQuery(other).ok());
  }
  Result<query::PlanPtr> second = query::ParseQuery(
      testing::RecruitmentQuerySql());
  ASSERT_TRUE(second.ok());

  EXPECT_EQ(first.value()->ToString(), second.value()->ToString());
  EXPECT_EQ(first.value()->Fingerprint(), second.value()->Fingerprint());

  // Sanity: the fingerprint does distinguish distinct plans.
  Result<query::PlanPtr> distinct =
      query::ParseQuery("SELECT name FROM Companies");
  ASSERT_TRUE(distinct.ok());
  EXPECT_NE(first.value()->Fingerprint(), distinct.value()->Fingerprint());
}

TEST(DeterminismTest, MetricsJsonIndependentOfRegistrationOrder) {
  obs::MetricsRegistry a;
  a.GetCounter("session.probes_total")->Add(7);
  a.GetCounter("cache.plan.hit")->Add(3);
  a.GetCounter("cache.plan.miss")->Add(1);
  a.GetGauge("engine.inflight")->Set(2);
  a.GetHistogram("wal.append_ns")->Observe(500);
  a.GetHistogram("wal.append_ns")->Observe(1500);

  obs::MetricsRegistry b;
  b.GetHistogram("wal.append_ns")->Observe(500);
  b.GetGauge("engine.inflight")->Set(2);
  b.GetCounter("cache.plan.miss")->Add(1);
  b.GetCounter("session.probes_total")->Add(7);
  b.GetCounter("cache.plan.hit")->Add(3);
  b.GetHistogram("wal.append_ns")->Observe(1500);

  EXPECT_EQ(a.ExportJson(), b.ExportJson());
  EXPECT_EQ(a.ExportText(), b.ExportText());
}

// Runs one recruitment session on a fresh engine and returns its probe
// trace with the two wall-clock fields zeroed (they are the only part of
// the trace that may legitimately differ between identical runs).
std::string TimelessTraceJson() {
  SharedDatabase sdb = testing::RecruitmentDatabase();
  provenance::PartialValuation hidden;
  for (VarId x = 0; x < sdb.pool().size(); ++x) {
    hidden.Set(x, x % 3 != 1);
  }
  core::EngineOptions options;
  options.num_threads = 1;
  core::SessionEngine engine(sdb, options);
  ValuationOracle oracle(hidden);
  obs::SessionTracer tracer;
  core::SessionRequest request;
  request.sql = testing::RecruitmentQuerySql();
  request.oracle = &oracle;
  request.tracer = &tracer;
  Result<core::SessionReport> report = engine.Submit(std::move(request)).get();
  CONSENTDB_CHECK(report.ok(), report.status().ToString());
  CONSENTDB_CHECK(tracer.num_probes() > 0, "session traced no probes");
  for (obs::ProbeEvent& event : tracer.mutable_events()) {
    event.decision_nanos = 0;
  }
  tracer.set_session_nanos(0);
  return tracer.ToJson();
}

TEST(DeterminismTest, TraceJsonIdenticalAcrossRepeatedRuns) {
  const std::string first = TimelessTraceJson();
  const std::string second = TimelessTraceJson();
  EXPECT_EQ(first, second);
}

// --- Sharded-ledger determinism (`ctest -L sharding`) -----------------------

TEST(DeterminismTest, ShardedLedgerSnapshotIndependentOfInsertionOrder) {
  const AnswerVec canonical = CanonicalAnswers();
  ConsentLedger plain;
  FillLedger(plain, canonical);
  const std::string golden = SaveLedgerSnapshot(plain.Answers());

  for (uint64_t seed : {1u, 7u, 42u}) {
    AnswerVec shuffled = canonical;
    Rng(seed).Shuffle(shuffled);
    consent::ShardedConsentLedger sharded(4);
    FillLedger(sharded, shuffled);
    // Four unordered maps instead of one, each scrambled by the shuffle:
    // the merged Answers() and its serialization must not notice.
    EXPECT_EQ(sharded.Answers(), plain.Answers()) << "seed " << seed;
    EXPECT_EQ(SaveLedgerSnapshot(sharded.Answers()), golden)
        << "seed " << seed;
  }
}

// An oracle answering a pure function of the id, so differently permuted
// probe schedules journal the same logical answer set.
class PureOracle : public consent::ProbeOracle {
 public:
  bool Probe(VarId x) override { return x % 3 == 0; }
  size_t probe_count() const override { return 0; }
};

// Journals the canonical answers through a 4-shard WAL set in `order`,
// recovers the set into a plain ledger, and returns the recovered ledger's
// snapshot bytes plus the checkpoint bytes written from them.
std::pair<std::string, std::string> ShardRecoveryBytes(
    const std::vector<VarId>& order, uint64_t compact_every) {
  CrashingEnv env;
  {
    Result<consent::ShardWalSet> set =
        consent::OpenShardWalSet(&env, "ledger", 4, /*generation=*/1);
    CONSENTDB_CHECK(set.ok(), set.status().ToString());
    consent::ShardedConsentLedger ledger(4);
    ledger.AttachShardJournals(set.value().pointers(), compact_every);
    PureOracle oracle;
    for (VarId x : order) {
      CONSENTDB_CHECK(ledger.TryProbeVia(oracle, x).ok(), "probe faulted");
    }
    for (consent::WalWriter* wal : set.value().pointers()) {
      Status st = wal->Sync();
      CONSENTDB_CHECK(st.ok(), st.ToString());
    }
  }
  ConsentLedger recovered;
  Result<core::ShardRecoveryStats> stats =
      core::RecoverShardedLedger(&env, "ledger", 4, &recovered);
  CONSENTDB_CHECK(stats.ok(), stats.status().ToString());

  SharedDatabase sdb = testing::RecruitmentDatabase();
  std::vector<core::CheckpointedSession> sessions;
  sessions.push_back({testing::RecruitmentQuerySql(), std::nullopt});
  Status written = core::WriteCheckpoint(&env, "out.ckpt", sdb,
                                         recovered.Answers(), sessions);
  CONSENTDB_CHECK(written.ok(), written.ToString());
  Result<std::string> ckpt = env.ReadFileToString("out.ckpt");
  CONSENTDB_CHECK(ckpt.ok(), ckpt.status().ToString());
  return {SaveLedgerSnapshot(recovered.Answers()), ckpt.value()};
}

TEST(DeterminismTest, ShardRecoveryIndependentOfJournalingOrder) {
  std::vector<VarId> order;
  for (VarId x = 0; x < 64; ++x) order.push_back(x);
  const auto golden = ShardRecoveryBytes(order, /*compact_every=*/0);

  for (uint64_t seed : {3u, 19u, 77u}) {
    std::vector<VarId> permuted = order;
    Rng(seed).Shuffle(permuted);
    ASSERT_NE(permuted, order) << "shuffle was a no-op; seed " << seed;
    // Permuting the probe order permutes every shard WAL's record order
    // AND how answers interleave across shards; with compaction on, it
    // also moves the snapshot/tail split. None of it may reach the bytes.
    EXPECT_EQ(ShardRecoveryBytes(permuted, 0), golden) << "seed " << seed;
    EXPECT_EQ(ShardRecoveryBytes(permuted, 3), golden)
        << "seed " << seed << " (compacting)";
  }
}

TEST(DeterminismTest, ShardedCheckpointBytesMatchSingleShard) {
  CrashingEnv env;
  SharedDatabase sdb = testing::RecruitmentDatabase();
  const AnswerVec canonical = CanonicalAnswers();
  std::vector<core::CheckpointedSession> sessions;
  sessions.push_back({testing::RecruitmentQuerySql(), std::nullopt});

  ConsentLedger plain;
  consent::ShardedConsentLedger sharded(7);
  FillLedger(plain, canonical);
  AnswerVec shuffled = canonical;
  Rng(5).Shuffle(shuffled);
  FillLedger(sharded, shuffled);

  ASSERT_TRUE(core::WriteCheckpoint(&env, "plain.ckpt", sdb, plain.Answers(),
                                    sessions)
                  .ok());
  ASSERT_TRUE(core::WriteCheckpoint(&env, "sharded.ckpt", sdb,
                                    sharded.Answers(), sessions)
                  .ok());
  Result<std::string> plain_bytes = env.ReadFileToString("plain.ckpt");
  Result<std::string> sharded_bytes = env.ReadFileToString("sharded.ckpt");
  ASSERT_TRUE(plain_bytes.ok());
  ASSERT_TRUE(sharded_bytes.ok());
  EXPECT_EQ(sharded_bytes.value(), plain_bytes.value());
}

TEST(DeterminismTest, PlanFingerprintStableAcrossShardedCheckpointRoundTrip) {
  Result<query::PlanPtr> original =
      query::ParseQuery(testing::RecruitmentQuerySql());
  ASSERT_TRUE(original.ok()) << original.status().ToString();

  CrashingEnv env;
  SharedDatabase sdb = testing::RecruitmentDatabase();
  consent::ShardedConsentLedger sharded(4);
  // Only pool variables: ReadCheckpoint remaps every ledger id through the
  // database snapshot and rejects ids the snapshot never wrote.
  AnswerVec pool_answers;
  for (VarId x = 0; x < sdb.pool().size(); ++x) {
    pool_answers.push_back({x, x % 3 == 0});
  }
  FillLedger(sharded, pool_answers);
  std::vector<core::CheckpointedSession> sessions;
  sessions.push_back({testing::RecruitmentQuerySql(), std::nullopt});
  ASSERT_TRUE(core::WriteCheckpoint(&env, "rt.ckpt", sdb, sharded.Answers(),
                                    sessions)
                  .ok());

  Result<core::RestoredCheckpoint> restored =
      core::ReadCheckpoint(&env, "rt.ckpt");
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored.value().sessions.size(), 1u);
  Result<query::PlanPtr> replanned =
      query::ParseQuery(restored.value().sessions[0].sql);
  ASSERT_TRUE(replanned.ok()) << replanned.status().ToString();
  // The fingerprint keys the engine's provenance cache across restarts: a
  // session resumed from a sharded checkpoint must hash to the same entry.
  EXPECT_EQ(replanned.value()->Fingerprint(), original.value()->Fingerprint());
  EXPECT_EQ(replanned.value()->ToString(), original.value()->ToString());
}

}  // namespace
}  // namespace consentdb
