#include "consentdb/net/probe_server.h"

#include <algorithm>
#include <vector>

#include "consentdb/consent/snapshot.h"
#include "consentdb/query/parser.h"
#include "consentdb/util/check.h"

namespace consentdb::net {
namespace {

constexpr int64_t kIdlePollSleepNanos = 1'000'000;  // 1ms

}  // namespace

ProbeServer::ProbeServer(core::SessionEngine& engine, Transport& transport,
                         ServerOptions options)
    : engine_(engine),
      transport_(transport),
      options_(options),
      clock_(options.clock != nullptr ? options.clock
             : engine.base_session_options().clock != nullptr
                 ? engine.base_session_options().clock
                 : RealClock()),
      metrics_(engine.base_session_options().metrics) {}

ProbeServer::~ProbeServer() { Shutdown(0); }

Status ProbeServer::Listen(const std::string& address) {
  MutexLock lock(mu_);
  if (listener_ != nullptr) {
    return Status::FailedPrecondition("ProbeServer is already listening");
  }
  CONSENTDB_ASSIGN_OR_RETURN(listener_, transport_.Listen(address));
  address_ = listener_->address();
  return Status::OK();
}

std::string ProbeServer::address() const {
  MutexLock lock(mu_);
  return address_;
}

size_t ProbeServer::Poll() {
  MutexLock lock(mu_);
  return PollLocked();
}

size_t ProbeServer::PollLocked() {
  size_t work = 0;
  work += AcceptLocked();

  // Snapshot the connection ids: handlers may drop connections (and with
  // them their map entries) while we sweep.
  std::vector<uint64_t> cids;
  cids.reserve(conns_.size());
  for (const auto& [cid, conn] : conns_) cids.push_back(cid);
  for (uint64_t cid : cids) {
    if (conns_.find(cid) == conns_.end()) continue;
    TryFlush(cid);
    if (conns_.find(cid) == conns_.end()) continue;
    work += ReadConnLocked(cid);
  }

  work += TimersLocked();

  // Session pumping may have queued new output; push it out before parking.
  cids.clear();
  for (const auto& [cid, conn] : conns_) cids.push_back(cid);
  for (uint64_t cid : cids) {
    if (conns_.find(cid) != conns_.end()) TryFlush(cid);
  }

  UpdateGauges();
  return work;
}

size_t ProbeServer::AcceptLocked() {
  size_t accepted = 0;
  while (listener_ != nullptr && conns_.size() < options_.max_connections) {
    Result<std::unique_ptr<Connection>> next = listener_->Accept();
    if (!next.ok() || *next == nullptr) break;
    uint64_t cid = next_conn_id_++;
    ConnState& state = conns_[cid];
    state.conn = std::move(*next);
    ++stats_.accepted_connections;
    ++accepted;
  }
  return accepted;
}

size_t ProbeServer::ReadConnLocked(uint64_t cid) {
  auto it = conns_.find(cid);
  if (it == conns_.end()) return 0;
  Result<std::string> data = it->second.conn->Read();
  if (!data.ok()) {
    DropConn(cid);
    return 0;
  }
  if (data->empty()) return 0;
  it->second.parser.Feed(*data);

  size_t frames = 0;
  while (true) {
    auto again = conns_.find(cid);
    if (again == conns_.end()) break;  // a handler dropped the connection
    Frame frame;
    FrameParser::Event event = again->second.parser.Next(&frame);
    if (event == FrameParser::Event::kCorrupt) {
      ++stats_.corrupt_frames;
      DropConn(cid);
      break;
    }
    if (event == FrameParser::Event::kNone) break;
    Result<Message> msg = DecodeMessage(frame.type, frame.body);
    if (!msg.ok()) {
      ++stats_.corrupt_frames;
      DropConn(cid);
      break;
    }
    ++frames;
    HandleMessage(cid, std::move(*msg));
  }
  return frames;
}

size_t ProbeServer::TimersLocked() {
  size_t fired = 0;
  const int64_t now = clock_->NowNanos();
  std::vector<uint64_t> ids;
  ids.reserve(sessions_.size());
  for (const auto& [id, s] : sessions_) ids.push_back(id);
  for (uint64_t id : ids) {
    auto it = sessions_.find(id);
    if (it == sessions_.end()) continue;
    ServerSession& s = it->second;
    if (s.completed) continue;
    if (s.deadline_abs > 0 && now >= s.deadline_abs && s.run != nullptr &&
        !s.run->done()) {
      s.deadline_abs = 0;
      ++stats_.expired_sessions;
      obs::Increment(metrics_, "server.expired");
      ++fired;
      if (s.run->resilient()) {
        // Undecided tuples degrade to kUnresolved; the pump below finishes
        // the report.
        s.run->Expire();
      } else {
        FailSession(s, Status::DeadlineExceeded("session deadline exceeded"));
        continue;
      }
    }
    PumpSession(s);
  }
  return fired;
}

void ProbeServer::HandleMessage(uint64_t cid, Message msg) {
  if (const auto* open = std::get_if<OpenSession>(&msg)) {
    HandleOpen(cid, *open);
    return;
  }
  if (const auto* answer = std::get_if<ProbeAnswer>(&msg)) {
    auto it = sessions_.find(answer->session_id);
    if (it == sessions_.end() || it->second.completed ||
        it->second.run == nullptr) {
      return;  // stale answer for a forgotten session — harmless
    }
    ServerSession& s = it->second;
    s.sent_probe.reset();
    s.run->OnAnswer(static_cast<provenance::VarId>(answer->variable),
                    answer->answer != 0);
    PumpSession(s);
    return;
  }
  if (const auto* fault = std::get_if<ProbeFaultMsg>(&msg)) {
    auto it = sessions_.find(fault->session_id);
    if (it == sessions_.end() || it->second.completed ||
        it->second.run == nullptr) {
      return;
    }
    ServerSession& s = it->second;
    s.sent_probe.reset();
    consent::ProbeFault kind =
        fault->fault == static_cast<uint8_t>(consent::ProbeFault::kUnavailable)
            ? consent::ProbeFault::kUnavailable
            : consent::ProbeFault::kTransient;
    s.run->OnFault(static_cast<provenance::VarId>(fault->variable), kind);
    PumpSession(s);
    return;
  }
  if (const auto* ack = std::get_if<AckMsg>(&msg)) {
    auto it = sessions_.find(ack->session_id);
    if (it != sessions_.end() && it->second.completed) {
      auto pos = std::find(completed_order_.begin(), completed_order_.end(),
                           ack->session_id);
      if (pos != completed_order_.end()) completed_order_.erase(pos);
      sessions_.erase(it);
    }
    return;
  }
  if (const auto* ping = std::get_if<PingMsg>(&msg)) {
    SendOnConn(cid, PongMsg{ping->nonce});
    return;
  }
  // Server-to-client message types arriving here mean a confused peer;
  // tolerate them (the framing was valid) rather than dropping the line.
}

void ProbeServer::HandleOpen(uint64_t cid, const OpenSession& m) {
  auto it = sessions_.find(m.session_id);
  if (it != sessions_.end()) {
    ServerSession& s = it->second;
    if (s.tenant != m.tenant || s.sql != m.sql ||
        s.has_single != m.has_single || s.single_csv != m.single_csv) {
      SendOnConn(cid, ErrorMsg{m.session_id,
                               WireStatusCode(StatusCode::kFailedPrecondition),
                               "session re-opened with a different request",
                               0});
      return;
    }
    s.conn = cid;
    if (s.completed) {
      // Re-deliver the terminal outcome until the client Acks it.
      if (s.failed) {
        SendOnConn(cid,
                   ErrorMsg{s.id, s.error_code, s.error_message, 0});
      } else {
        SendOnConn(cid, SessionReportMsg{s.id, s.report_json});
      }
      return;
    }
    ++stats_.resumed_sessions;
    obs::Increment(metrics_, "server.resumed");
    // Reset the outstanding-probe marker so the fresh connection receives
    // the pending request again; the ledger makes the re-probe free.
    s.sent_probe.reset();
    PumpSession(s);
    return;
  }

  if (draining_ || InflightLocked() >= options_.max_inflight_sessions) {
    ++stats_.shed_sessions;
    obs::Increment(metrics_, "server.shed");
    SendOnConn(cid, ErrorMsg{m.session_id,
                             WireStatusCode(StatusCode::kUnavailable),
                             draining_ ? "server is draining"
                                       : "server is at capacity",
                             options_.retry_after_nanos});
    return;
  }
  size_t tenant_inflight = 0;
  for (const auto& [id, s] : sessions_) {
    if (!s.completed && s.tenant == m.tenant) ++tenant_inflight;
  }
  if (tenant_inflight >= options_.max_sessions_per_tenant) {
    ++stats_.shed_sessions;
    obs::Increment(metrics_, "server.shed");
    SendOnConn(cid, ErrorMsg{m.session_id,
                             WireStatusCode(StatusCode::kResourceExhausted),
                             "tenant '" + m.tenant +
                                 "' is at its session quota",
                             options_.retry_after_nanos});
    return;
  }

  core::SessionRequest request;
  request.sql = m.sql;
  if (m.has_single != 0) {
    // Same resolution as checkpoint resume: re-plan the SQL and parse the
    // snapshot row against the query's output schema.
    const relational::Database& db =
        engine_.manager().shared_database().database();
    auto resolve = [&]() -> Result<relational::Tuple> {
      CONSENTDB_ASSIGN_OR_RETURN(query::PlanPtr plan, query::ParseQuery(m.sql));
      CONSENTDB_ASSIGN_OR_RETURN(relational::Schema schema,
                                 plan->OutputSchema(db));
      return consent::ParseSnapshotRow(m.single_csv, schema);
    };
    Result<relational::Tuple> single = resolve();
    if (!single.ok()) {
      SendOnConn(cid, ErrorMsg{m.session_id,
                               WireStatusCode(single.status().code()),
                               single.status().message(), 0});
      return;
    }
    request.single = std::move(*single);
  }

  Result<std::shared_ptr<const core::PreparedSession>> prepared =
      engine_.PrepareForServe(request);
  if (!prepared.ok()) {
    SendOnConn(cid, ErrorMsg{m.session_id,
                             WireStatusCode(prepared.status().code()),
                             prepared.status().message(), 0});
    return;
  }

  core::SessionOptions opts = engine_.base_session_options();
  opts.ledger = engine_.shared_ledger();
  opts.clock = clock_;
  opts.spans = nullptr;  // spans are thread-scoped; sessions park across polls
  opts.tracer = nullptr;

  int64_t deadline = m.deadline_nanos > 0 ? m.deadline_nanos
                                          : options_.default_session_deadline_nanos;
  if (options_.max_session_deadline_nanos > 0 &&
      (deadline == 0 || deadline > options_.max_session_deadline_nanos)) {
    deadline = options_.max_session_deadline_nanos;
  }
  if (opts.retry.has_value() && deadline > 0) {
    // Propagate the client deadline into the engine's retry policy so the
    // session's own backoff scheduling respects it.
    opts.retry->session_deadline_nanos =
        opts.retry->session_deadline_nanos > 0
            ? std::min(opts.retry->session_deadline_nanos, deadline)
            : deadline;
  }

  obs::Increment(opts.metrics, "session.count");
  Result<std::unique_ptr<core::AsyncConsentSession>> run =
      core::AsyncConsentSession::Create(engine_.manager().shared_database(),
                                        **prepared, opts);
  if (!run.ok()) {
    SendOnConn(cid, ErrorMsg{m.session_id, WireStatusCode(run.status().code()),
                             run.status().message(), 0});
    return;
  }

  ServerSession& s = sessions_[m.session_id];
  s.id = m.session_id;
  s.tenant = m.tenant;
  s.sql = m.sql;
  s.has_single = m.has_single;
  s.single_csv = m.single_csv;
  s.prepared = std::move(*prepared);
  s.run = std::move(*run);
  s.conn = cid;
  s.deadline_abs = deadline > 0 ? clock_->NowNanos() + deadline : 0;
  core::CheckpointedSession spec;
  spec.sql = m.sql;
  if (m.has_single != 0) spec.single_csv = m.single_csv;
  s.engine_reg = engine_.RegisterPendingSession(std::move(spec));
  s.engine_registered = true;

  ++stats_.opened_sessions;
  obs::Increment(metrics_, "server.sessions");
  PumpSession(s);
}

void ProbeServer::PumpSession(ServerSession& s) {
  if (s.completed || s.run == nullptr) return;
  core::AsyncConsentSession::Step step = s.run->Pump();
  switch (step.kind) {
    case core::AsyncConsentSession::Step::Kind::kProbe: {
      if (s.conn != 0 && s.sent_probe != step.variable) {
        const consent::VariablePool& pool =
            engine_.manager().shared_database().pool();
        SendToSession(s, ProbeRequest{s.id, step.variable,
                                      pool.name(step.variable),
                                      pool.owner(step.variable)});
        s.sent_probe = step.variable;
      }
      break;
    }
    case core::AsyncConsentSession::Step::Kind::kWait:
      break;  // the timer sweep pumps again once the clock catches up
    case core::AsyncConsentSession::Step::Kind::kDone: {
      const Result<core::SessionReport>& report = s.run->report();
      if (report.ok()) {
        CompleteSession(s);
      } else {
        FailSession(s, report.status());
      }
      break;
    }
  }
}

void ProbeServer::CompleteSession(ServerSession& s) {
  s.report_json = s.run->report()->ToJson();
  s.run.reset();
  s.prepared.reset();
  s.completed = true;
  s.failed = false;
  if (s.engine_registered) {
    engine_.ReleasePendingSession(s.engine_reg);
    s.engine_registered = false;
  }
  ++stats_.completed_sessions;
  obs::Increment(metrics_, "server.completed");
  completed_order_.push_back(s.id);
  SendToSession(s, SessionReportMsg{s.id, s.report_json});
  EvictCompletedLocked();
}

void ProbeServer::FailSession(ServerSession& s, const Status& error) {
  // `error` may live in s.run's report: copy it before releasing the run.
  s.error_code = WireStatusCode(error.code());
  s.error_message = error.message();
  s.run.reset();
  s.prepared.reset();
  s.completed = true;
  s.failed = true;
  if (s.engine_registered) {
    engine_.ReleasePendingSession(s.engine_reg);
    s.engine_registered = false;
  }
  completed_order_.push_back(s.id);
  SendToSession(s, ErrorMsg{s.id, s.error_code, s.error_message, 0});
  EvictCompletedLocked();
}

void ProbeServer::SendOnConn(uint64_t cid, const Message& msg) {
  if (cid == 0) return;
  auto it = conns_.find(cid);
  if (it == conns_.end()) return;
  it->second.out += EncodeMessage(msg);
  TryFlush(cid);
}

void ProbeServer::SendToSession(ServerSession& s, const Message& msg) {
  SendOnConn(s.conn, msg);
}

void ProbeServer::TryFlush(uint64_t cid) {
  auto it = conns_.find(cid);
  if (it == conns_.end()) return;
  std::string& out = it->second.out;
  while (!out.empty()) {
    Result<size_t> n = it->second.conn->Write(out);
    if (!n.ok()) {
      DropConn(cid);
      return;
    }
    if (*n == 0) return;  // backpressure — the rest stays queued
    out.erase(0, *n);
  }
}

void ProbeServer::DropConn(uint64_t cid) {
  auto it = conns_.find(cid);
  if (it == conns_.end()) return;
  it->second.conn->Close();
  conns_.erase(it);
  // Sessions owned by the dead connection park; an OpenSession with the
  // same id from a new connection reattaches them.
  for (auto& [id, s] : sessions_) {
    if (s.conn == cid) {
      s.conn = 0;
      s.sent_probe.reset();
    }
  }
}

void ProbeServer::EvictCompletedLocked() {
  while (completed_order_.size() > options_.max_completed_retained) {
    uint64_t id = completed_order_.front();
    completed_order_.pop_front();
    auto it = sessions_.find(id);
    if (it != sessions_.end() && it->second.completed) sessions_.erase(it);
  }
}

size_t ProbeServer::InflightLocked() const {
  size_t n = 0;
  for (const auto& [id, s] : sessions_) {
    if (!s.completed) ++n;
  }
  return n;
}

void ProbeServer::UpdateGauges() {
  stats_.inflight_sessions = InflightLocked();
  stats_.connections = conns_.size();
  stats_.draining = draining_;
  obs::SetGauge(metrics_, "server.inflight",
                static_cast<double>(stats_.inflight_sessions));
  obs::SetGauge(metrics_, "server.connections",
                static_cast<double>(stats_.connections));
}

void ProbeServer::Start() {
  CONSENTDB_CHECK(!pump_.joinable(), "ProbeServer::Start called twice");
  pump_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      if (Poll() == 0) clock_->SleepFor(kIdlePollSleepNanos);
    }
  });
}

void ProbeServer::BeginDrain() {
  MutexLock lock(mu_);
  draining_ = true;
  stats_.draining = true;
}

void ProbeServer::Shutdown(int64_t drain_deadline_nanos) {
  BeginDrain();
  stop_.store(true, std::memory_order_relaxed);
  if (pump_.joinable()) pump_.join();

  // Give in-flight sessions a bounded chance to finish and their reports a
  // chance to flush. Works on the virtual clock too: idle polls advance it.
  const int64_t deadline = clock_->NowNanos() + drain_deadline_nanos;
  while (true) {
    size_t work = Poll();
    bool unfinished;
    {
      MutexLock lock(mu_);
      unfinished = InflightLocked() > 0;
    }
    if (!unfinished) break;
    if (clock_->NowNanos() >= deadline) break;
    if (work == 0) clock_->SleepFor(kIdlePollSleepNanos);
  }

  MutexLock lock(mu_);
  if (listener_ != nullptr) {
    listener_->Close();
    listener_.reset();
  }
  for (auto& [cid, state] : conns_) state.conn->Close();
  conns_.clear();
  // Unfinished sessions stay registered with the engine: a checkpoint taken
  // after shutdown captures them for resume (graceful-drain contract).
  UpdateGauges();
}

ServerStats ProbeServer::stats() const {
  MutexLock lock(mu_);
  ServerStats out = stats_;
  size_t inflight = 0;
  for (const auto& [id, s] : sessions_) {
    if (!s.completed) ++inflight;
  }
  out.inflight_sessions = inflight;
  out.connections = conns_.size();
  out.draining = draining_;
  return out;
}

}  // namespace consentdb::net
