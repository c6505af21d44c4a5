// ProbeServer semantics under a deterministic, fault-free in-memory
// transport: end-to-end reports byte-identical to the in-process pipeline,
// admission control and per-tenant quotas, deadline expiry (resilient and
// not), detach/resume with zero duplicate peer probes, completed-report
// re-delivery until the Ack, graceful drain, and the posix loopback path.
//
// The chaos grid (network_chaos_test.cc) layers randomized transport
// faults on top of the same harness; this file pins down the intended
// behaviour when the network itself is blameless.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "consentdb/consent/faulty_oracle.h"
#include "consentdb/consent/oracle.h"
#include "consentdb/consent/snapshot.h"
#include "consentdb/core/consent_manager.h"
#include "consentdb/core/session_engine.h"
#include "consentdb/eval/evaluate.h"
#include "consentdb/net/chaos_transport.h"
#include "consentdb/net/frame.h"
#include "consentdb/net/posix_transport.h"
#include "consentdb/net/probe_client.h"
#include "consentdb/net/probe_server.h"
#include "consentdb/net/protocol.h"
#include "consentdb/obs/metrics.h"
#include "consentdb/util/clock.h"
#include "gtest/gtest.h"
#include "test_fixtures.h"

namespace consentdb::net {
namespace {

using consent::ProbeOracle;
using consent::ValuationOracle;
using core::ConsentManager;
using core::EngineOptions;
using core::RetryPolicy;
using core::SessionEngine;
using core::SessionOptions;
using provenance::PartialValuation;
using provenance::VarId;

PartialValuation FullValuation(const consent::SharedDatabase& sdb,
                               bool value) {
  return PartialValuation::FromBools(
      std::vector<bool>(sdb.pool().size(), value));
}

// The report the blocking in-process pipeline produces for `sql` — a fresh
// manager, a fresh ledger, the same oracle answers. Client-observed reports
// must match this byte for byte.
std::string BaselineJson(const consent::SharedDatabase& sdb,
                         const std::string& sql, ProbeOracle& oracle,
                         std::optional<RetryPolicy> retry = std::nullopt) {
  ConsentManager manager(sdb);
  consent::ConsentLedger ledger;
  SessionOptions options;
  options.ledger = &ledger;
  options.retry = retry;
  Result<core::SessionReport> report = manager.DecideAll(sql, oracle, options);
  CONSENTDB_CHECK(report.ok(), report.status().ToString());
  return report->ToJson();
}

// A hand-driven client connection: sends protocol messages and decodes
// whatever the server has flushed so far. Lets tests observe individual
// ProbeRequests, withhold answers, and drop connections at exact points —
// things ProbeClient deliberately hides.
class RawConn {
 public:
  RawConn(Transport& transport, const std::string& address) {
    Result<std::unique_ptr<Connection>> conn = transport.Connect(address);
    CONSENTDB_CHECK(conn.ok(), conn.status().ToString());
    conn_ = std::move(*conn);
  }

  void Send(const Message& msg) {
    std::string out = EncodeMessage(msg);
    while (!out.empty()) {
      Result<size_t> n = conn_->Write(out);
      CONSENTDB_CHECK(n.ok(), n.status().ToString());
      CONSENTDB_CHECK(*n > 0, "fault-free transport refused bytes");
      out.erase(0, *n);
    }
  }

  void SendBytes(const std::string& bytes) {
    Result<size_t> n = conn_->Write(bytes);
    CONSENTDB_CHECK(n.ok(), n.status().ToString());
  }

  // Everything decodable that has arrived (may be empty).
  std::vector<Message> Drain() {
    std::vector<Message> out;
    while (true) {
      Result<std::string> data = conn_->Read();
      if (!data.ok() || data->empty()) break;
      parser_.Feed(*data);
    }
    Frame f;
    while (parser_.Next(&f) == FrameParser::Event::kFrame) {
      Result<Message> msg = DecodeMessage(f.type, f.body);
      CONSENTDB_CHECK(msg.ok(), msg.status().ToString());
      out.push_back(std::move(*msg));
    }
    return out;
  }

  void Close() { conn_->Close(); }

 private:
  std::unique_ptr<Connection> conn_;
  FrameParser parser_;
};

// Cooperative test harness: one engine, one fault-free in-memory transport,
// one server, all on a virtual clock.
struct Harness {
  explicit Harness(EngineOptions eopts = {}, ServerOptions sopts = {},
                   double probability = 0.5)
      : sdb(testing::RecruitmentDatabase(probability)),
        clock(1'000'000'000),
        transport(ChaosPlan{}, &clock) {
    eopts.num_threads = 1;
    engine = std::make_unique<SessionEngine>(sdb, eopts);
    sopts.clock = &clock;
    server = std::make_unique<ProbeServer>(*engine, transport, sopts);
    Status s = server->Listen("srv");
    CONSENTDB_CHECK(s.ok(), s.ToString());
  }

  // Polls until `pred` holds, advancing virtual time each sweep.
  template <typename Pred>
  bool PumpUntil(Pred pred, int max_sweeps = 200) {
    for (int i = 0; i < max_sweeps; ++i) {
      server->Poll();
      clock.Advance(100'000);  // 100us per sweep
      if (pred()) return true;
    }
    return false;
  }

  // Runs a raw-conn session to its terminal message, answering every
  // ProbeRequest from `oracle` and recording which variables were
  // requested. Returns the SessionReportMsg json or the ErrorMsg status.
  Result<std::string> DriveToCompletion(RawConn& conn, uint64_t sid,
                                        ProbeOracle& oracle,
                                        std::vector<VarId>* requested) {
    Result<std::string> outcome = Status::Unavailable("no terminal message");
    bool done = false;
    PumpUntil([&] {
      for (Message& msg : conn.Drain()) {
        if (const auto* probe = std::get_if<ProbeRequest>(&msg)) {
          if (requested != nullptr) {
            requested->push_back(static_cast<VarId>(probe->variable));
          }
          conn.Send(ProbeAnswer{
              sid, probe->variable,
              oracle.Probe(static_cast<VarId>(probe->variable)) ? uint8_t{1}
                                                                : uint8_t{0}});
        } else if (const auto* report = std::get_if<SessionReportMsg>(&msg)) {
          outcome = report->report_json;
          done = true;
        } else if (const auto* error = std::get_if<ErrorMsg>(&msg)) {
          outcome = StatusFromWire(error->code, error->message);
          done = true;
        }
      }
      return done;
    });
    CONSENTDB_CHECK(done, "session reached no terminal message");
    return outcome;
  }

  consent::SharedDatabase sdb;
  VirtualClock clock;
  ChaosTransport transport;
  std::unique_ptr<SessionEngine> engine;
  std::unique_ptr<ProbeServer> server;
};

OpenSession MakeOpen(uint64_t sid, const std::string& tenant,
                     const std::string& sql, int64_t deadline_nanos = 0) {
  OpenSession open;
  open.session_id = sid;
  open.tenant = tenant;
  open.sql = sql;
  open.deadline_nanos = deadline_nanos;
  return open;
}

TEST(ProbeServer, EndToEndReportMatchesInProcessBaseline) {
  Harness h;
  ValuationOracle server_side(FullValuation(h.sdb, true));

  RawConn conn(h.transport, "srv");
  conn.Send(MakeOpen(7, "acme", testing::RecruitmentQuerySql()));
  Result<std::string> json = h.DriveToCompletion(conn, 7, server_side, nullptr);
  ASSERT_TRUE(json.ok()) << json.status().ToString();

  ValuationOracle baseline_oracle(FullValuation(h.sdb, true));
  EXPECT_EQ(*json, BaselineJson(h.sdb, testing::RecruitmentQuerySql(),
                                baseline_oracle));

  ServerStats stats = h.server->stats();
  EXPECT_EQ(stats.opened_sessions, 1u);
  EXPECT_EQ(stats.completed_sessions, 1u);
  EXPECT_EQ(stats.inflight_sessions, 0u);
  EXPECT_EQ(stats.shed_sessions, 0u);
}

TEST(ProbeServer, ProbeClientDecidesAgainstServer) {
  Harness h;
  ValuationOracle oracle(FullValuation(h.sdb, false));

  ProbeClientOptions copts;
  copts.clock = &h.clock;
  copts.idle = [&h] {
    h.server->Poll();
    h.clock.Advance(100'000);
  };
  ProbeClient client(h.transport, "srv", &oracle, copts);
  Result<std::string> json = client.Decide(testing::RecruitmentQuerySql());
  ASSERT_TRUE(json.ok()) << json.status().ToString();

  ValuationOracle baseline_oracle(FullValuation(h.sdb, false));
  EXPECT_EQ(*json, BaselineJson(h.sdb, testing::RecruitmentQuerySql(),
                                baseline_oracle));
  EXPECT_EQ(client.stats().sessions, 1u);
  EXPECT_EQ(client.stats().reconnects, 0u);

  // The Ack released the completed session server-side.
  h.PumpUntil([] { return false; }, 3);
  EXPECT_EQ(h.server->stats().completed_sessions, 1u);
}

// Served single-tuple sessions: the snapshot row resolves against the
// query's output schema and the report matches DecideSingle byte for byte;
// a row outside the result comes back as kNotFound.
TEST(ProbeServer, SingleTupleSessionsMatchDecideSingle) {
  Harness h;
  const std::string sql =
      "SELECT DISTINCT s.name FROM JobSeekers s, Assignment a "
      "WHERE s.sid = a.sid AND a.status = 'hired'";
  Rng rng(11);
  const PartialValuation hidden = h.sdb.pool().SampleValuation(rng);
  ValuationOracle oracle(hidden);
  ProbeClientOptions copts;
  copts.clock = &h.clock;
  copts.idle = [&h] {
    h.server->Poll();
    h.clock.Advance(100'000);
  };
  ProbeClient client(h.transport, "srv", &oracle, copts);

  ConsentManager manager(h.sdb);
  relational::Relation result =
      *eval::Evaluate(*query::ParseQuery(sql), h.sdb.database());
  ASSERT_GT(result.size(), 1u);
  for (const relational::Tuple& t : result.tuples()) {
    Result<std::string> json =
        client.Decide(sql, consent::FormatSnapshotRow(t));
    ASSERT_TRUE(json.ok()) << json.status().ToString();
    ValuationOracle baseline_oracle(hidden);
    Result<core::SessionReport> baseline =
        manager.DecideSingle(sql, t, baseline_oracle);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    EXPECT_EQ(*json, baseline->ToJson()) << t.ToString();
  }

  const relational::Tuple zoe{relational::Value("Zoe")};
  Result<std::string> outside =
      client.Decide(sql, consent::FormatSnapshotRow(zoe));
  ASSERT_FALSE(outside.ok());
  EXPECT_EQ(outside.status().code(), StatusCode::kNotFound)
      << outside.status().ToString();
  // Each served session resolved its SQL through the plan cache once.
  const SessionEngine::CacheStats cache = h.engine->cache_stats();
  EXPECT_EQ(cache.plan_misses, 1u);
  EXPECT_EQ(cache.plan_hits, result.size());
}

// Without a retry policy a fault fails the session the same way however it
// runs: a dead peer ends DecideAll (plain or through a ledger) and the
// served session with one kUnavailable status, code and message alike, and
// the fault is tallied by the ledger either way.
TEST(ProbeServer, DeadPeerFailsInProcessAndServedAlike) {
  Harness h;
  ValuationOracle backing(FullValuation(h.sdb, true));
  consent::FaultPlan plan;
  plan.per_peer["Bob"].permanently_unavailable = true;
  consent::FaultyOracle faulty(backing, h.sdb.pool(), plan);

  ConsentManager manager(h.sdb);
  const Result<core::SessionReport> in_process =
      manager.DecideAll(testing::RecruitmentQuerySql(), faulty);
  ASSERT_FALSE(in_process.ok());
  EXPECT_EQ(in_process.status().code(), StatusCode::kUnavailable);

  consent::ConsentLedger ledger;
  SessionOptions options;
  options.ledger = &ledger;
  const Result<core::SessionReport> via_ledger =
      manager.DecideAll(testing::RecruitmentQuerySql(), faulty, options);
  ASSERT_FALSE(via_ledger.ok());
  EXPECT_EQ(via_ledger.status().code(), in_process.status().code());
  EXPECT_EQ(via_ledger.status().message(), in_process.status().message());
  EXPECT_EQ(ledger.faulted_probes(), 1u);

  ProbeClientOptions copts;
  copts.clock = &h.clock;
  copts.idle = [&h] {
    h.server->Poll();
    h.clock.Advance(100'000);
  };
  ProbeClient client(h.transport, "srv", &faulty, copts);
  const Result<std::string> served =
      client.Decide(testing::RecruitmentQuerySql());
  ASSERT_FALSE(served.ok());
  EXPECT_EQ(served.status().code(), in_process.status().code());
  EXPECT_EQ(served.status().message(), in_process.status().message());
  EXPECT_EQ(client.stats().probe_faults, 1u);
  // The served fault reached the engine's ledger like the in-process one.
  EXPECT_EQ(h.engine->ledger().faulted_probes(), ledger.faulted_probes());
}

TEST(ProbeServer, AdmissionControlShedsBeyondInflightCap) {
  ServerOptions sopts;
  sopts.max_inflight_sessions = 1;
  sopts.retry_after_nanos = 250'000'000;
  Harness h({}, sopts);

  // Session 1 parks on its first ProbeRequest and pins the only slot.
  RawConn first(h.transport, "srv");
  first.Send(MakeOpen(1, "acme", testing::RecruitmentQuerySql()));
  ASSERT_TRUE(h.PumpUntil([&h] { return h.server->stats().inflight_sessions == 1; }));

  RawConn second(h.transport, "srv");
  second.Send(MakeOpen(2, "acme", testing::RecruitmentQuerySql()));
  std::optional<ErrorMsg> shed;
  ASSERT_TRUE(h.PumpUntil([&] {
    for (Message& msg : second.Drain()) {
      if (auto* error = std::get_if<ErrorMsg>(&msg)) shed = *error;
    }
    return shed.has_value();
  }));
  EXPECT_EQ(shed->session_id, 2u);
  EXPECT_EQ(shed->code, WireStatusCode(StatusCode::kUnavailable));
  EXPECT_EQ(shed->retry_after_nanos, 250'000'000);

  ServerStats stats = h.server->stats();
  EXPECT_EQ(stats.shed_sessions, 1u);
  EXPECT_EQ(stats.inflight_sessions, 1u);
  EXPECT_EQ(stats.opened_sessions, 1u);  // the shed open never counted
}

TEST(ProbeServer, TenantQuotaShedsWithResourceExhausted) {
  ServerOptions sopts;
  sopts.max_inflight_sessions = 8;
  sopts.max_sessions_per_tenant = 1;
  Harness h({}, sopts);

  RawConn first(h.transport, "srv");
  first.Send(MakeOpen(1, "greedy", testing::RecruitmentQuerySql()));
  ASSERT_TRUE(h.PumpUntil([&h] { return h.server->stats().inflight_sessions == 1; }));

  // Same tenant: over quota. Another tenant: admitted.
  RawConn second(h.transport, "srv");
  second.Send(MakeOpen(2, "greedy", testing::RecruitmentQuerySql()));
  RawConn third(h.transport, "srv");
  third.Send(MakeOpen(3, "modest", testing::RecruitmentQuerySql()));

  std::optional<ErrorMsg> quota;
  ASSERT_TRUE(h.PumpUntil([&] {
    for (Message& msg : second.Drain()) {
      if (auto* error = std::get_if<ErrorMsg>(&msg)) quota = *error;
    }
    return quota.has_value() && h.server->stats().inflight_sessions == 2;
  }));
  EXPECT_EQ(quota->code, WireStatusCode(StatusCode::kResourceExhausted));
  EXPECT_EQ(h.server->stats().shed_sessions, 1u);
}

TEST(ProbeServer, NonResilientSessionFailsAtDeadline) {
  Harness h;  // engine without a retry policy: sessions are non-resilient
  RawConn conn(h.transport, "srv");
  conn.Send(MakeOpen(5, "acme", testing::RecruitmentQuerySql(),
                     /*deadline_nanos=*/5'000'000));

  // Let the first ProbeRequest arrive, then never answer it.
  std::optional<ErrorMsg> error;
  ASSERT_TRUE(h.PumpUntil([&] {
    for (Message& msg : conn.Drain()) {
      if (auto* e = std::get_if<ErrorMsg>(&msg)) error = *e;
    }
    return error.has_value();
  }));
  EXPECT_EQ(error->code, WireStatusCode(StatusCode::kDeadlineExceeded));
  ServerStats stats = h.server->stats();
  EXPECT_EQ(stats.expired_sessions, 1u);
  EXPECT_EQ(stats.inflight_sessions, 0u);
  // A failed session is not a completed one.
  EXPECT_EQ(stats.completed_sessions, 0u);
}

TEST(ProbeServer, ResilientSessionExpiresToUnresolvedReport) {
  EngineOptions eopts;
  eopts.session.retry = RetryPolicy{};  // resilient sessions
  Harness h(eopts);
  RawConn conn(h.transport, "srv");
  conn.Send(MakeOpen(6, "acme", testing::RecruitmentQuerySql(),
                     /*deadline_nanos=*/5'000'000));

  std::optional<std::string> json;
  ASSERT_TRUE(h.PumpUntil([&] {
    for (Message& msg : conn.Drain()) {
      if (auto* report = std::get_if<SessionReportMsg>(&msg)) {
        json = report->report_json;
      }
    }
    return json.has_value();
  }));
  // The session expired rather than failed: verdicts degrade to unresolved.
  EXPECT_NE(json->find("num_unresolved"), std::string::npos) << *json;
  EXPECT_NE(json->find("\"unresolved\""), std::string::npos) << *json;
  EXPECT_EQ(h.server->stats().expired_sessions, 1u);
  EXPECT_EQ(h.server->stats().completed_sessions, 1u);
}

TEST(ProbeServer, ResumeAfterDropReprobesNothing) {
  Harness h;
  ValuationOracle oracle(FullValuation(h.sdb, true));
  const uint64_t sid = 9;

  // Answer exactly one probe on the first connection, then drop it.
  RawConn first(h.transport, "srv");
  first.Send(MakeOpen(sid, "acme", testing::RecruitmentQuerySql()));
  std::optional<VarId> answered_var;
  ASSERT_TRUE(h.PumpUntil([&] {
    for (Message& msg : first.Drain()) {
      if (auto* probe = std::get_if<ProbeRequest>(&msg)) {
        if (!answered_var.has_value()) {
          answered_var = static_cast<VarId>(probe->variable);
          first.Send(ProbeAnswer{sid, probe->variable,
                                 oracle.Probe(*answered_var) ? uint8_t{1}
                                                             : uint8_t{0}});
        }
      }
    }
    // Wait until the *second* ProbeRequest is outstanding, so the drop
    // leaves a parked session with an unanswered probe in flight.
    ServerStats s = h.server->stats();
    return answered_var.has_value() && s.inflight_sessions == 1;
  }));
  first.Close();
  ASSERT_TRUE(h.PumpUntil([&h] { return h.server->stats().connections == 0; }));
  // The session survived the drop, detached.
  EXPECT_EQ(h.server->stats().inflight_sessions, 1u);

  // Resume from a new connection: same id, same spec.
  RawConn second(h.transport, "srv");
  second.Send(MakeOpen(sid, "acme", testing::RecruitmentQuerySql()));
  std::vector<VarId> requested;
  Result<std::string> json =
      h.DriveToCompletion(second, sid, oracle, &requested);
  ASSERT_TRUE(json.ok()) << json.status().ToString();

  // The variable answered before the drop was never re-requested: the
  // ledger replayed it. Nothing was requested twice at all.
  std::set<VarId> unique(requested.begin(), requested.end());
  EXPECT_EQ(unique.size(), requested.size());
  EXPECT_EQ(unique.count(*answered_var), 0u);
  EXPECT_EQ(h.server->stats().resumed_sessions, 1u);

  // And the client-observed report is still byte-identical to in-process.
  ValuationOracle baseline_oracle(FullValuation(h.sdb, true));
  EXPECT_EQ(*json, BaselineJson(h.sdb, testing::RecruitmentQuerySql(),
                                baseline_oracle));
}

TEST(ProbeServer, MismatchedResumeRejected) {
  Harness h;
  RawConn first(h.transport, "srv");
  first.Send(MakeOpen(4, "acme", testing::RecruitmentQuerySql()));
  ASSERT_TRUE(h.PumpUntil([&h] { return h.server->stats().inflight_sessions == 1; }));

  RawConn second(h.transport, "srv");
  second.Send(MakeOpen(4, "acme", "SELECT name FROM Companies"));
  std::optional<ErrorMsg> error;
  ASSERT_TRUE(h.PumpUntil([&] {
    for (Message& msg : second.Drain()) {
      if (auto* e = std::get_if<ErrorMsg>(&msg)) error = *e;
    }
    return error.has_value();
  }));
  EXPECT_EQ(error->code, WireStatusCode(StatusCode::kFailedPrecondition));
  // The original session is untouched.
  EXPECT_EQ(h.server->stats().inflight_sessions, 1u);
}

TEST(ProbeServer, CompletedReportRedeliveredUntilAck) {
  Harness h;
  ValuationOracle oracle(FullValuation(h.sdb, true));
  const uint64_t sid = 11;

  RawConn first(h.transport, "srv");
  first.Send(MakeOpen(sid, "acme", testing::RecruitmentQuerySql()));
  Result<std::string> json1 = h.DriveToCompletion(first, sid, oracle, nullptr);
  ASSERT_TRUE(json1.ok());
  first.Close();  // no Ack: the server must retain the report
  ASSERT_TRUE(h.PumpUntil([&h] { return h.server->stats().connections == 0; }));

  // Re-open re-delivers the stored report verbatim, without re-running.
  RawConn second(h.transport, "srv");
  second.Send(MakeOpen(sid, "acme", testing::RecruitmentQuerySql()));
  std::optional<std::string> json2;
  ASSERT_TRUE(h.PumpUntil([&] {
    for (Message& msg : second.Drain()) {
      if (auto* report = std::get_if<SessionReportMsg>(&msg)) {
        json2 = report->report_json;
      }
    }
    return json2.has_value();
  }));
  EXPECT_EQ(*json1, *json2);
  EXPECT_EQ(h.server->stats().opened_sessions, 1u);  // never re-ran

  // After the Ack the session is gone: the same id now opens fresh.
  second.Send(AckMsg{sid});
  ASSERT_TRUE(h.PumpUntil(
      [&h] { return h.server->stats().opened_sessions == 1; }, 5));
  second.Send(MakeOpen(sid, "acme", testing::RecruitmentQuerySql()));
  ASSERT_TRUE(
      h.PumpUntil([&h] { return h.server->stats().opened_sessions == 2; }));
}

TEST(ProbeServer, GracefulDrainFinishesInflightAndShedsNew) {
  Harness h;
  ValuationOracle oracle(FullValuation(h.sdb, true));
  const uint64_t sid = 21;

  RawConn conn(h.transport, "srv");
  conn.Send(MakeOpen(sid, "acme", testing::RecruitmentQuerySql()));
  ASSERT_TRUE(h.PumpUntil([&h] { return h.server->stats().inflight_sessions == 1; }));
  // The parked session is checkpointable while it runs.
  ASSERT_EQ(h.engine->pending_sessions().size(), 1u);
  EXPECT_EQ(h.engine->pending_sessions()[0].sql,
            testing::RecruitmentQuerySql());

  h.server->BeginDrain();
  EXPECT_TRUE(h.server->stats().draining);

  // New sessions are refused...
  RawConn late(h.transport, "srv");
  late.Send(MakeOpen(22, "acme", testing::RecruitmentQuerySql()));
  std::optional<ErrorMsg> shed;
  ASSERT_TRUE(h.PumpUntil([&] {
    for (Message& msg : late.Drain()) {
      if (auto* e = std::get_if<ErrorMsg>(&msg)) shed = *e;
    }
    return shed.has_value();
  }));
  EXPECT_EQ(shed->code, WireStatusCode(StatusCode::kUnavailable));

  // ...while the in-flight one runs to completion and delivers its report.
  Result<std::string> json = h.DriveToCompletion(conn, sid, oracle, nullptr);
  ASSERT_TRUE(json.ok()) << json.status().ToString();

  // No leaked checkpoint spec, and every network answer reached the
  // journal-backed ledger.
  EXPECT_TRUE(h.engine->pending_sessions().empty());
  EXPECT_GT(h.engine->ledger().size(), 0u);
  EXPECT_EQ(h.engine->ledger().size(), oracle.probe_count());
}

TEST(ProbeServer, ShutdownParksUnfinishedSessionsForCheckpoint) {
  Harness h;
  RawConn conn(h.transport, "srv");
  conn.Send(MakeOpen(31, "acme", testing::RecruitmentQuerySql()));
  ASSERT_TRUE(h.PumpUntil([&h] { return h.server->stats().inflight_sessions == 1; }));

  h.server->Shutdown(/*drain_deadline_nanos=*/2'000'000);

  // The unanswered session stays registered with the engine: a checkpoint
  // taken after shutdown captures its spec for resume.
  std::vector<core::CheckpointedSession> pending = h.engine->pending_sessions();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].sql, testing::RecruitmentQuerySql());
  EXPECT_FALSE(pending[0].single_csv.has_value());
  EXPECT_EQ(h.server->stats().connections, 0u);
}

TEST(ProbeServer, OverloadStatsAndMetricsReconcile) {
  obs::MetricsRegistry metrics;
  EngineOptions eopts;
  eopts.session.metrics = &metrics;
  ServerOptions sopts;
  sopts.max_inflight_sessions = 2;
  Harness h(eopts, sopts);

  std::vector<std::unique_ptr<RawConn>> conns;
  for (uint64_t sid = 1; sid <= 5; ++sid) {
    conns.push_back(std::make_unique<RawConn>(h.transport, "srv"));
    conns.back()->Send(MakeOpen(sid, "acme", testing::RecruitmentQuerySql()));
    h.PumpUntil([] { return true; }, 2);
  }
  ASSERT_TRUE(h.PumpUntil([&] {
    for (auto& conn : conns) conn->Drain();
    return h.server->stats().shed_sessions == 3;
  }));

  ServerStats stats = h.server->stats();
  EXPECT_EQ(stats.inflight_sessions, 2u);
  EXPECT_EQ(stats.opened_sessions, 2u);
  EXPECT_EQ(stats.shed_sessions, 3u);
  // The obs registry tells the same story as the struct.
  EXPECT_EQ(metrics.GetCounter("server.sessions")->value(), 2u);
  EXPECT_EQ(metrics.GetCounter("server.shed")->value(), 3u);
  EXPECT_EQ(metrics.GetGauge("server.inflight")->value(), 2);
  EXPECT_EQ(metrics.GetGauge("server.connections")->value(), 5);
}

TEST(ProbeServer, CorruptBytesDropTheConnection) {
  // Garbage, and a well-framed answer whose answer byte is neither 0 nor 1:
  // both are corrupt frames, never consent.
  for (const std::string& bytes :
       {std::string("garbage that is certainly not a frame"),
        EncodeMessage(ProbeAnswer{1, 7, 2})}) {
    Harness h;
    RawConn conn(h.transport, "srv");
    conn.SendBytes(bytes);
    ASSERT_TRUE(h.PumpUntil([&h] {
      return h.server->stats().corrupt_frames == 1 &&
             h.server->stats().connections == 0;
    }));
  }
}

TEST(ProbeServer, ClientExhaustsReconnectsWhenServerUnreachable) {
  VirtualClock clock(0);
  ChaosPlan plan;
  plan.connect_fail_prob = 1.0;
  ChaosTransport transport(plan, &clock);

  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  ValuationOracle oracle(FullValuation(sdb, true));
  ProbeClientOptions copts;
  copts.clock = &clock;
  copts.reconnect.max_attempts = 4;
  ProbeClient client(transport, "nowhere", &oracle, copts);

  Result<std::string> json = client.Decide(testing::RecruitmentQuerySql());
  ASSERT_FALSE(json.ok());
  EXPECT_TRUE(json.status().IsUnavailable()) << json.status().ToString();
  EXPECT_EQ(client.stats().reconnects, 3u);  // backoffs between 4 attempts
  EXPECT_EQ(oracle.probe_count(), 0u);
}

TEST(ProbeServer, ReconnectPolicyTakesNoDeadlines) {
  VirtualClock clock(0);
  ChaosTransport transport(ChaosPlan{}, &clock);
  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  ValuationOracle oracle(FullValuation(sdb, true));
  ProbeClientOptions copts;
  copts.clock = &clock;
  copts.reconnect.probe_deadline_nanos = 1'000'000;
  EXPECT_DEATH(ProbeClient(transport, "nowhere", &oracle, copts),
               "takes no deadlines");
  copts.reconnect.probe_deadline_nanos = 0;
  copts.reconnect.session_deadline_nanos = 1'000'000;
  EXPECT_DEATH(ProbeClient(transport, "nowhere", &oracle, copts),
               "takes no deadlines");
}

TEST(ProbeServer, PosixLoopbackEndToEnd) {
  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  EngineOptions eopts;
  eopts.num_threads = 1;
  SessionEngine engine(sdb, eopts);
  PosixTransport posix;
  ProbeServer server(engine, posix);
  ASSERT_TRUE(server.Listen("0").ok());
  server.Start();

  ValuationOracle oracle(FullValuation(sdb, true));
  ProbeClient client(posix, server.address(), &oracle);
  Result<std::string> json = client.Decide(testing::RecruitmentQuerySql());
  ASSERT_TRUE(json.ok()) << json.status().ToString();

  ValuationOracle baseline_oracle(FullValuation(sdb, true));
  EXPECT_EQ(*json, BaselineJson(sdb, testing::RecruitmentQuerySql(),
                                baseline_oracle));
  server.Shutdown(/*drain_deadline_nanos=*/1'000'000'000);
}

}  // namespace
}  // namespace consentdb::net
