#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <memory>
#include <string>
#include <vector>

#include "consentdb/consent/faulty_oracle.h"
#include "consentdb/consent/oracle.h"
#include "consentdb/core/consent_manager.h"
#include "consentdb/core/session_engine.h"
#include "consentdb/obs/metrics.h"
#include "consentdb/query/parser.h"
#include "consentdb/query/plan.h"
#include "consentdb/util/lru_cache.h"
#include "consentdb/util/rng.h"
#include "consentdb/util/thread_pool.h"
#include "test_fixtures.h"

namespace consentdb::core {
namespace {

using consent::ConsentLedger;
using consent::ProbeAttempt;
using consent::SharedDatabase;
using consent::ValuationOracle;
using provenance::PartialValuation;
using provenance::VarId;
using query::ParseQuery;
using query::Plan;
using query::PlanPtr;
using query::QueryClass;
using relational::Column;
using relational::Schema;
using relational::Tuple;
using relational::Value;
using relational::ValueType;

PartialValuation FullValuation(const SharedDatabase& sdb, bool value) {
  PartialValuation val(sdb.pool().size());
  for (VarId x = 0; x < sdb.pool().size(); ++x) val.Set(x, value);
  return val;
}

SharedDatabase SingleRelationDb() {
  SharedDatabase sdb;
  EXPECT_TRUE(
      sdb.CreateRelation("R", Schema({Column{"a", ValueType::kInt64},
                                      Column{"b", ValueType::kInt64}}))
          .ok());
  EXPECT_TRUE(sdb.InsertTuple("R", Tuple{Value(1), Value(10)}).ok());
  EXPECT_TRUE(sdb.InsertTuple("R", Tuple{Value(2), Value(20)}).ok());
  return sdb;
}

// --- ThreadPool ----------------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryTaskAndDrainsOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4u);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor drains the queue before joining
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, TasksRunConcurrently) {
  ThreadPool pool(2);
  // Both tasks block until the other arrives; a serial pool would deadlock
  // (the test would time out) instead of finishing.
  std::latch rendezvous(2);
  std::latch done(2);
  for (int i = 0; i < 2; ++i) {
    pool.Submit([&rendezvous, &done] {
      rendezvous.arrive_and_wait();
      done.count_down();
    });
  }
  done.wait();
}

// --- LruCache ------------------------------------------------------------------------

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  ASSERT_EQ(cache.Get(1), std::optional<int>(10));  // bumps 1 to front
  cache.Put(3, 30);                                 // evicts 2
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_EQ(cache.Get(1), std::optional<int>(10));
  EXPECT_EQ(cache.Get(3), std::optional<int>(30));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, CountsHitsAndMisses) {
  LruCache<std::string, int> cache(4);
  EXPECT_FALSE(cache.Get("a").has_value());
  cache.Put("a", 1);
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCacheTest, PutOverwritesExistingKey) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(1, 11);
  EXPECT_EQ(cache.Get(1), std::optional<int>(11));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(LruCacheTest, ClearEmptiesButKeepsCounters) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  ASSERT_TRUE(cache.Get(1).has_value());
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get(1).has_value());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

// --- Plan fingerprints ---------------------------------------------------------------

TEST(PlanFingerprintTest, StableAcrossParses) {
  PlanPtr a = ParseQuery(testing::RecruitmentQuerySql()).value();
  PlanPtr b = ParseQuery(testing::RecruitmentQuerySql()).value();
  EXPECT_EQ(a->Fingerprint(), b->Fingerprint());
}

TEST(PlanFingerprintTest, DistinguishesDifferentQueries) {
  PlanPtr a = ParseQuery("SELECT DISTINCT name FROM JobSeekers").value();
  PlanPtr b = ParseQuery("SELECT DISTINCT education FROM JobSeekers").value();
  PlanPtr c = ParseQuery(testing::RecruitmentQuerySql()).value();
  EXPECT_NE(a->Fingerprint(), b->Fingerprint());
  EXPECT_NE(a->Fingerprint(), c->Fingerprint());
  EXPECT_NE(b->Fingerprint(), c->Fingerprint());
}

TEST(PlanFingerprintTest, DistinguishesOutputRenames) {
  // Plan::ToString omits projection output names; the fingerprint must not.
  PlanPtr plain = Plan::Project({"R.a"}, Plan::Scan("R"));
  PlanPtr renamed = Plan::Project({"R.a"}, Plan::Scan("R"), {"renamed"});
  PlanPtr plain2 = Plan::Project({"R.a"}, Plan::Scan("R"));
  EXPECT_NE(plain->Fingerprint(), renamed->Fingerprint());
  EXPECT_EQ(plain->Fingerprint(), plain2->Fingerprint());
}

// --- SharedDatabase version counter --------------------------------------------------

TEST(SharedDatabaseVersionTest, MutationsBumpRedundantInsertsDoNot) {
  SharedDatabase sdb;
  const uint64_t v0 = sdb.version();
  ASSERT_TRUE(
      sdb.CreateRelation("R", Schema({Column{"a", ValueType::kInt64}})).ok());
  const uint64_t v1 = sdb.version();
  EXPECT_GT(v1, v0);
  ASSERT_TRUE(sdb.InsertTuple("R", Tuple{Value(1)}).ok());
  const uint64_t v2 = sdb.version();
  EXPECT_GT(v2, v1);
  // Re-inserting an existing tuple changes nothing: no bump.
  ASSERT_TRUE(sdb.InsertTuple("R", Tuple{Value(1)}).ok());
  EXPECT_EQ(sdb.version(), v2);
  // Pool metadata edits leave the content untouched: no bump.
  sdb.mutable_pool().SetAllProbabilities(0.25);
  EXPECT_EQ(sdb.version(), v2);
}

// --- ConsentLedger -------------------------------------------------------------------

TEST(ConsentLedgerTest, ForwardsEachVariableToTheOracleOnce) {
  PartialValuation hidden(3);
  hidden.Set(0, true);
  hidden.Set(1, false);
  hidden.Set(2, true);
  ValuationOracle oracle(hidden);
  ConsentLedger ledger;

  bool from_ledger = true;
  EXPECT_EQ(ledger.TryProbeVia(oracle, 0, &from_ledger),
            ProbeAttempt::Answered(true));
  EXPECT_FALSE(from_ledger);
  EXPECT_EQ(ledger.TryProbeVia(oracle, 0, &from_ledger),
            ProbeAttempt::Answered(true));
  EXPECT_TRUE(from_ledger);
  EXPECT_EQ(ledger.TryProbeVia(oracle, 1), ProbeAttempt::Answered(false));

  EXPECT_EQ(oracle.probe_count(), 2u);
  EXPECT_EQ(ledger.oracle_probes(), 2u);
  EXPECT_EQ(ledger.hits(), 1u);
  EXPECT_EQ(ledger.size(), 2u);
  EXPECT_EQ(ledger.Lookup(0), std::optional<bool>(true));
  EXPECT_EQ(ledger.Lookup(1), std::optional<bool>(false));
  EXPECT_FALSE(ledger.Lookup(2).has_value());

  ledger.Clear();
  EXPECT_EQ(ledger.size(), 0u);
  EXPECT_EQ(ledger.hits(), 0u);
  EXPECT_FALSE(ledger.Lookup(0).has_value());
}

// --- Engine determinism --------------------------------------------------------------

// The acceptance bar of this engine: concurrent execution (threads >= 4)
// must be byte-for-byte indistinguishable from sequential ConsentManager
// runs, for a mixed workload with a distinct hidden valuation per session.
TEST(SessionEngineTest, ConcurrentRunsMatchSequentialByteForByte) {
  SharedDatabase sdb = testing::RecruitmentDatabase();
  const std::vector<std::string> sqls = {
      testing::RecruitmentQuerySql(),
      "SELECT DISTINCT name FROM JobSeekers",
      "SELECT DISTINCT position FROM Vacancies WHERE amount = 3",
  };
  constexpr size_t kSessions = 24;

  std::vector<PartialValuation> hidden;
  for (size_t i = 0; i < kSessions; ++i) {
    Rng rng(1000 + 7919 * i);
    hidden.push_back(sdb.pool().SampleValuation(rng));
  }

  ConsentManager manager(sdb);
  std::vector<std::string> expected_json;
  std::vector<std::string> expected_text;
  for (size_t i = 0; i < kSessions; ++i) {
    ValuationOracle oracle(hidden[i]);
    Result<SessionReport> r =
        manager.DecideAll(sqls[i % sqls.size()], oracle);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected_json.push_back(r.value().ToJson());
    expected_text.push_back(r.value().ToString());
  }

  EngineOptions options;
  options.num_threads = 4;
  // Hidden valuations differ per session, so answers may conflict across
  // sessions; a shared ledger assumes consistent oracles.
  options.share_consent_ledger = false;
  SessionEngine engine(sdb, options);
  ASSERT_EQ(engine.num_threads(), 4u);

  std::vector<std::unique_ptr<ValuationOracle>> oracles;
  std::vector<SessionRequest> requests;
  for (size_t i = 0; i < kSessions; ++i) {
    oracles.push_back(std::make_unique<ValuationOracle>(hidden[i]));
    SessionRequest request;
    request.sql = sqls[i % sqls.size()];
    request.oracle = oracles.back().get();
    requests.push_back(std::move(request));
  }
  std::vector<Result<SessionReport>> results =
      engine.RunAll(std::move(requests));

  ASSERT_EQ(results.size(), kSessions);
  for (size_t i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    EXPECT_EQ(results[i].value().ToJson(), expected_json[i]) << "session " << i;
    EXPECT_EQ(results[i].value().ToString(), expected_text[i])
        << "session " << i;
  }
  EXPECT_EQ(engine.sessions_in_flight(), 0u);
  EXPECT_EQ(engine.queue_depth(), 0u);
}

// --- Caches --------------------------------------------------------------------------

TEST(SessionEngineTest, RepeatedSqlHitsPlanAndProvenanceCaches) {
  SharedDatabase sdb = testing::RecruitmentDatabase();
  EngineOptions options;
  options.num_threads = 4;
  SessionEngine engine(sdb, options);
  const PartialValuation hidden = FullValuation(sdb, true);

  auto run_wave = [&](size_t n) {
    std::vector<std::unique_ptr<ValuationOracle>> oracles;
    std::vector<SessionRequest> requests;
    for (size_t i = 0; i < n; ++i) {
      oracles.push_back(std::make_unique<ValuationOracle>(hidden));
      SessionRequest request;
      request.sql = testing::RecruitmentQuerySql();
      request.oracle = oracles.back().get();
      requests.push_back(std::move(request));
    }
    for (Result<SessionReport>& r : engine.RunAll(std::move(requests))) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
  };

  run_wave(1);  // warm both caches
  SessionEngine::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.plan_misses, 1u);
  EXPECT_EQ(stats.provenance_misses, 1u);
  EXPECT_EQ(stats.plan_hits, 0u);
  EXPECT_EQ(stats.provenance_hits, 0u);

  run_wave(7);  // warm cache: everything hits
  stats = engine.cache_stats();
  EXPECT_EQ(stats.plan_misses, 1u);
  EXPECT_EQ(stats.provenance_misses, 1u);
  EXPECT_EQ(stats.plan_hits, 7u);
  EXPECT_EQ(stats.provenance_hits, 7u);
  EXPECT_EQ(stats.plan_entries, 1u);
  EXPECT_EQ(stats.provenance_entries, 1u);
}

TEST(SessionEngineTest, DatabaseMutationInvalidatesCaches) {
  SharedDatabase sdb = SingleRelationDb();
  EngineOptions options;
  options.num_threads = 2;
  SessionEngine engine(sdb, options);

  auto run_one = [&]() -> SessionReport {
    ValuationOracle oracle(FullValuation(sdb, true));
    SessionRequest request;
    request.sql = "SELECT DISTINCT a FROM R";
    request.oracle = &oracle;
    Result<SessionReport> r = engine.Submit(std::move(request)).get();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.value();
  };

  SessionReport before = run_one();
  EXPECT_EQ(before.tuples.size(), 2u);
  run_one();
  SessionEngine::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.plan_misses, 1u);
  EXPECT_EQ(stats.provenance_misses, 1u);
  EXPECT_EQ(stats.provenance_hits, 1u);

  // Mutating the database bumps its version, which retires every cached
  // entry: the next session re-prepares and sees the new tuple.
  ASSERT_TRUE(sdb.InsertTuple("R", Tuple{Value(3), Value(30)}).ok());
  SessionReport after = run_one();
  EXPECT_EQ(after.tuples.size(), 3u);
  stats = engine.cache_stats();
  EXPECT_EQ(stats.plan_misses, 2u);  // stale-version entry counts as a miss
  EXPECT_EQ(stats.provenance_misses, 2u);
  // The re-prepared session replaces the stale one: a write leaves one
  // entry per query, not one per database version.
  EXPECT_EQ(stats.plan_entries, 1u);
  EXPECT_EQ(stats.provenance_entries, 1u);

  // InvalidateCaches drops entries outright.
  engine.InvalidateCaches();
  stats = engine.cache_stats();
  EXPECT_EQ(stats.plan_entries, 0u);
  EXPECT_EQ(stats.provenance_entries, 0u);
}

TEST(SessionEngineTest, PrebuiltPlansBypassThePlanCacheOnly) {
  SharedDatabase sdb = testing::RecruitmentDatabase();
  SessionEngine engine(sdb);
  ValuationOracle oracle(FullValuation(sdb, true));
  SessionRequest request;
  request.plan = ParseQuery(testing::RecruitmentQuerySql()).value();
  request.oracle = &oracle;
  Result<SessionReport> r = engine.Submit(std::move(request)).get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  SessionEngine::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.plan_hits + stats.plan_misses, 0u);
  EXPECT_EQ(stats.provenance_misses, 1u);
}

TEST(SessionEngineTest, SingleTupleSessionsBypassTheProvenanceCache) {
  SharedDatabase sdb = testing::RecruitmentDatabase();
  const PartialValuation hidden = FullValuation(sdb, true);

  ConsentManager manager(sdb);
  ValuationOracle reference_oracle(hidden);
  Result<SessionReport> expected = manager.DecideSingle(
      testing::RecruitmentQuerySql(), Tuple{Value("PennSolarExperts Ltd.")},
      reference_oracle);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  SessionEngine engine(sdb);
  ValuationOracle oracle(hidden);
  SessionRequest request;
  request.sql = testing::RecruitmentQuerySql();
  request.single = Tuple{Value("PennSolarExperts Ltd.")};
  request.oracle = &oracle;
  Result<SessionReport> r = engine.Submit(std::move(request)).get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().ToJson(), expected.value().ToJson());
  ASSERT_EQ(r.value().tuples.size(), 1u);

  SessionEngine::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.provenance_hits + stats.provenance_misses, 0u);
  EXPECT_EQ(stats.provenance_entries, 0u);
}

// --- Shared consent ledger -----------------------------------------------------------

TEST(SessionEngineTest, SharedLedgerDeduplicatesOracleTraffic) {
  SharedDatabase sdb = testing::RecruitmentDatabase();
  Rng rng(7);
  const PartialValuation hidden = sdb.pool().SampleValuation(rng);
  constexpr size_t kSessions = 8;

  ConsentManager manager(sdb);
  std::vector<std::string> expected;
  for (size_t i = 0; i < kSessions; ++i) {
    ValuationOracle oracle(hidden);
    Result<SessionReport> r =
        manager.DecideAll(testing::RecruitmentQuerySql(), oracle);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected.push_back(r.value().ToJson());
  }

  EngineOptions options;
  options.num_threads = 4;  // ledger stays on (the default)
  SessionEngine engine(sdb, options);
  std::vector<std::unique_ptr<ValuationOracle>> oracles;
  std::vector<SessionRequest> requests;
  for (size_t i = 0; i < kSessions; ++i) {
    oracles.push_back(std::make_unique<ValuationOracle>(hidden));
    SessionRequest request;
    request.sql = testing::RecruitmentQuerySql();
    request.oracle = oracles.back().get();
    requests.push_back(std::move(request));
  }
  std::vector<Result<SessionReport>> results =
      engine.RunAll(std::move(requests));

  size_t total_probes = 0;
  for (size_t i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    // The ledger only dedups oracle traffic; reports are unchanged.
    EXPECT_EQ(results[i].value().ToJson(), expected[i]) << "session " << i;
    total_probes += results[i].value().num_probes;
  }
  const ConsentLedger& ledger = engine.ledger();
  // Every probe was either answered by the ledger or forwarded exactly once.
  EXPECT_EQ(ledger.oracle_probes() + ledger.hits(), total_probes);
  EXPECT_LE(ledger.oracle_probes(), sdb.pool().size());
  EXPECT_GT(ledger.hits(), 0u);  // identical sessions share most answers
}

// --- Errors --------------------------------------------------------------------------

TEST(SessionEngineTest, ErrorsFlowThroughTheFuture) {
  SharedDatabase sdb = testing::RecruitmentDatabase();
  SessionEngine engine(sdb);
  ValuationOracle oracle(FullValuation(sdb, true));

  {
    SessionRequest request;  // no oracle
    request.sql = testing::RecruitmentQuerySql();
    Result<SessionReport> r = engine.Submit(std::move(request)).get();
    EXPECT_FALSE(r.ok());
  }
  {
    SessionRequest request;  // neither sql nor plan
    request.oracle = &oracle;
    Result<SessionReport> r = engine.Submit(std::move(request)).get();
    EXPECT_FALSE(r.ok());
  }
  {
    SessionRequest request;
    request.sql = "SELECT FROM";
    request.oracle = &oracle;
    Result<SessionReport> r = engine.Submit(std::move(request)).get();
    EXPECT_FALSE(r.ok());
  }
}

// --- Engine metrics ------------------------------------------------------------------

TEST(SessionEngineTest, EngineCountersLandInTheRegistry) {
  SharedDatabase sdb = testing::RecruitmentDatabase();
  obs::MetricsRegistry registry;
  EngineOptions options;
  options.num_threads = 2;
  options.session.metrics = &registry;
  SessionEngine engine(sdb, options);
  const PartialValuation hidden = FullValuation(sdb, true);

  auto run_wave = [&](size_t n) {
    std::vector<std::unique_ptr<ValuationOracle>> oracles;
    std::vector<SessionRequest> requests;
    for (size_t i = 0; i < n; ++i) {
      oracles.push_back(std::make_unique<ValuationOracle>(hidden));
      SessionRequest request;
      request.sql = testing::RecruitmentQuerySql();
      request.oracle = oracles.back().get();
      requests.push_back(std::move(request));
    }
    for (Result<SessionReport>& r : engine.RunAll(std::move(requests))) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
  };
  run_wave(1);
  run_wave(3);

  EXPECT_EQ(registry.GetCounter("engine.sessions")->value(), 4u);
  EXPECT_EQ(registry.GetCounter("session.count")->value(), 4u);
  SessionEngine::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(registry.GetCounter("cache.plan.hit")->value(),
            stats.plan_hits);
  EXPECT_EQ(registry.GetCounter("cache.plan.miss")->value(),
            stats.plan_misses);
  EXPECT_EQ(registry.GetCounter("cache.prov.hit")->value(),
            stats.provenance_hits);
  EXPECT_EQ(registry.GetCounter("cache.prov.miss")->value(),
            stats.provenance_misses);
  // The exports derive a hit-rate line per hit/miss pair.
  const std::string text = registry.ExportText();
  EXPECT_NE(text.find("cache.plan.hit_rate"), std::string::npos) << text;
  EXPECT_NE(text.find("cache.prov.hit_rate"), std::string::npos) << text;
  EXPECT_EQ(registry.GetCounter("engine.ledger.hit")->value(),
            engine.ledger().hits());
}

// --- Report-vs-execution bugfix ------------------------------------------------------

// The report's query_profile must describe the plan the session actually
// evaluated and selected its strategy from (`effective`), with the
// pre-optimization class carried separately — previously the report
// classified the submitted plan while execution used the optimized one.
TEST(SessionReportTest, QueryProfileDescribesTheExecutedPlan) {
  SharedDatabase sdb = SingleRelationDb();
  ConsentManager manager(sdb);
  PlanPtr submitted = Plan::Scan("R");
  PlanPtr effective = Plan::Project({"R.a", "R.b"}, Plan::Scan("R"));
  Result<PreparedSession> prepared =
      manager.PrepareResolved(submitted, effective, std::nullopt);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared.value().profile.query_class, QueryClass::kSP);
  EXPECT_EQ(prepared.value().submitted_profile.query_class, QueryClass::kS);

  ValuationOracle oracle(FullValuation(sdb, true));
  Result<SessionReport> report = manager.RunPrepared(prepared.value(), oracle);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().query_profile.query_class, QueryClass::kSP);
  EXPECT_EQ(report.value().query_profile_submitted.query_class,
            QueryClass::kS);
  EXPECT_NE(report.value().ToJson().find("query_class_submitted"),
            std::string::npos);
}

// --- Concurrent resilience ------------------------------------------------------------

// The thread-safety bar of the fault-injection layer (run under TSAN in CI):
// eight concurrent resilient sessions hammer ONE shared FaultyOracle through
// the engine's shared ledger. The ledger must record each variable's answer
// exactly once — a faulted attempt leaves no trace, so retries from any
// session reach the peer again, and the recording attempt wins for all.
TEST(SessionEngineTest, ConcurrentResilientSessionsShareOneFaultyOracle) {
  SharedDatabase sdb = testing::RecruitmentDatabase();
  // An all-True world: proving a term per formula needs several distinct
  // variables, so the sessions genuinely exercise the shared oracle (a
  // mostly-False world can decide Q_ex with a single probe).
  PartialValuation hidden = FullValuation(sdb, true);

  // Sequential fault-free ground truth.
  ConsentManager manager(sdb);
  ValuationOracle plain(hidden);
  Result<SessionReport> expected =
      manager.DecideAll(testing::RecruitmentQuerySql(), plain);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  consent::FaultPlan plan;
  plan.seed = 314159;
  plan.defaults.transient_failure_prob = 0.5;
  VirtualClock clock;
  ValuationOracle backing(hidden);
  consent::FaultyOracle faulty(backing, sdb.pool(), plan, &clock);

  constexpr size_t kSessions = 8;
  EngineOptions options;
  options.num_threads = kSessions;
  options.share_consent_ledger = true;
  options.session.retry = RetryPolicy{};
  options.session.retry->max_attempts = 24;
  options.session.clock = &clock;
  SessionEngine engine(sdb, options);

  std::vector<SessionRequest> requests;
  for (size_t i = 0; i < kSessions; ++i) {
    SessionRequest request;
    request.sql = testing::RecruitmentQuerySql();
    request.oracle = &faulty;
    requests.push_back(std::move(request));
  }
  std::vector<Result<SessionReport>> results =
      engine.RunAll(std::move(requests));

  ASSERT_EQ(results.size(), kSessions);
  for (size_t i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    const SessionReport& report = results[i].value();
    EXPECT_EQ(report.num_unresolved, 0u) << "session " << i;
    ASSERT_EQ(report.tuples.size(), expected.value().tuples.size());
    for (size_t j = 0; j < report.tuples.size(); ++j) {
      EXPECT_EQ(report.tuples[j].shareable,
                expected.value().tuples[j].shareable)
          << "session " << i << " tuple " << j;
    }
  }

  // One recorded answer per variable: every successful oracle probe was the
  // recording attempt (successes == ledger entries — a second recorded
  // answer for any variable would break this equality), and every recorded
  // answer matches the backing valuation.
  const ConsentLedger& ledger = engine.ledger();
  EXPECT_EQ(faulty.stats().successes, ledger.size());
  EXPECT_EQ(ledger.oracle_probes(), ledger.size());
  EXPECT_EQ(ledger.faulted_probes(),
            faulty.stats().attempts - faulty.stats().successes);
  for (VarId x = 0; x < sdb.pool().size(); ++x) {
    std::optional<bool> recorded = ledger.Lookup(x);
    if (recorded.has_value()) {
      EXPECT_EQ(*recorded, hidden.Get(x) == provenance::Truth::kTrue)
          << "variable " << x;
    }
  }
  ASSERT_GT(faulty.stats().transient_faults, 0u);  // the plan actually bit
}

TEST(SessionReportTest, PushdownKeepsBothProfilesInAgreement) {
  SharedDatabase sdb = testing::RecruitmentDatabase();
  ConsentManager manager(sdb);
  ValuationOracle oracle(FullValuation(sdb, true));
  Result<SessionReport> r =
      manager.DecideAll(testing::RecruitmentQuerySql(), oracle);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().query_profile.query_class,
            r.value().query_profile_submitted.query_class);
}

}  // namespace
}  // namespace consentdb::core
