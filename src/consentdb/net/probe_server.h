// ProbeServer: SessionEngine behind a long-running, multi-tenant network
// service.
//
// The server is a single-threaded reactor over the Transport seam: Poll()
// accepts connections, decodes frames, advances sessions, and enforces
// timers; Start() runs that loop on a background thread for real-socket
// serving, while tests (and the chaos harness) call Poll() from their own
// cooperative driver.
//
// Sessions are resumable server-side objects addressed by a client-chosen
// id, not by their connection. A probing session parks while it waits for
// the client's ProbeAnswer (AsyncConsentSession) — nothing blocks, so one
// thread serves every tenant. When a connection dies the session detaches
// and waits; a later OpenSession with the same id from a new connection
// reattaches it, the outstanding ProbeRequest is re-sent, and the shared
// ConsentLedger guarantees no peer is ever probed twice across the resume.
//
// Admission control and backpressure are explicit:
//   * at most max_inflight_sessions sessions probe concurrently; excess
//     OpenSessions are shed fast with kUnavailable + a retry-after hint;
//   * per-tenant quotas bound any one tenant's share (kResourceExhausted);
//   * at most max_connections are accepted — beyond that, connections wait
//     in the transport's backlog;
//   * outbound bytes the transport won't take are buffered and retried,
//     never dropped.
//
// Client deadlines propagate into the engine's RetryPolicy (resilient
// sessions expire to kUnresolved verdicts; non-resilient ones fail with
// kDeadlineExceeded). BeginDrain() refuses new sessions while in-flight
// ones finish; whatever is still parked at Shutdown stays registered with
// the engine, so a checkpoint taken afterwards captures it for resume.

#ifndef CONSENTDB_NET_PROBE_SERVER_H_
#define CONSENTDB_NET_PROBE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "consentdb/core/async_session.h"
#include "consentdb/core/session_engine.h"
#include "consentdb/net/frame.h"
#include "consentdb/net/protocol.h"
#include "consentdb/obs/metrics.h"
#include "consentdb/util/clock.h"
#include "consentdb/util/thread_annotations.h"
#include "consentdb/util/transport.h"

namespace consentdb::net {

struct ServerOptions {
  // Admission control: sessions probing concurrently (completed sessions
  // awaiting their Ack do not count). Excess OpenSessions are shed.
  size_t max_inflight_sessions = 64;
  // Per-tenant slice of the in-flight budget.
  size_t max_sessions_per_tenant = 16;
  // Connections accepted at once; beyond this the transport backlog waits.
  size_t max_connections = 256;
  // Deadline for sessions whose OpenSession carries none (0 = unbounded).
  int64_t default_session_deadline_nanos = 0;
  // Upper clamp on client-requested deadlines (0 = no clamp).
  int64_t max_session_deadline_nanos = 0;
  // The retry-after hint shed sessions carry.
  int64_t retry_after_nanos = 1'000'000'000;  // 1s
  // Completed sessions retained for report re-delivery until their Ack;
  // the oldest are evicted beyond this.
  size_t max_completed_retained = 1024;
  // Timer clock; null uses the engine's session clock, else the real one.
  Clock* clock = nullptr;
};

struct ServerStats {
  uint64_t accepted_connections = 0;
  uint64_t opened_sessions = 0;
  uint64_t completed_sessions = 0;
  uint64_t shed_sessions = 0;
  uint64_t expired_sessions = 0;
  uint64_t resumed_sessions = 0;
  uint64_t corrupt_frames = 0;
  size_t inflight_sessions = 0;  // probing now (excludes completed)
  size_t connections = 0;
  bool draining = false;
};

class ProbeServer {
 public:
  // `engine` and `transport` must outlive the server. The engine's shared
  // ledger (share_consent_ledger) is what makes resume probe-free; the
  // server works without it but then a resumed session re-probes.
  ProbeServer(core::SessionEngine& engine, Transport& transport,
              ServerOptions options = {});
  ~ProbeServer();

  // Binds the listener. Call once, before Poll()/Start().
  [[nodiscard]] Status Listen(const std::string& address);

  // The bound address (resolved port for posix "0" listens).
  std::string address() const;

  // One reactor sweep: accept, read, decode, advance sessions, fire timers,
  // flush. Returns the number of work items handled (0 = idle sweep).
  // Thread-safe, but intended for one driver at a time.
  size_t Poll();

  // Runs Poll() on a background thread until Shutdown(). For real-socket
  // serving; cooperative tests drive Poll() directly instead.
  void Start();

  // Refuses new sessions from now on (shed with kUnavailable); in-flight
  // sessions keep running. Irreversible.
  void BeginDrain();

  // BeginDrain, give in-flight sessions until `drain_deadline_nanos` of
  // polling to finish (0 = flush once), then stop the background thread,
  // close everything, and return. Parked sessions that did not finish stay
  // registered with the engine for checkpoint/resume.
  void Shutdown(int64_t drain_deadline_nanos = 0);

  ServerStats stats() const;

 private:
  struct ConnState {
    std::unique_ptr<Connection> conn;
    FrameParser parser;
    std::string out;  // accepted by the server, not yet by the transport
  };

  struct ServerSession {
    uint64_t id = 0;
    std::string tenant;
    std::string sql;
    uint8_t has_single = 0;
    std::string single_csv;
    // The prepared query `run` reads; declared first so it outlives `run`.
    std::shared_ptr<const core::PreparedSession> prepared;
    std::unique_ptr<core::AsyncConsentSession> run;
    uint64_t conn = 0;  // owning connection; 0 = detached (parked)
    int64_t deadline_abs = 0;  // 0 = none
    uint64_t engine_reg = 0;
    bool engine_registered = false;
    // The ProbeRequest currently outstanding on `conn`, to avoid re-sending
    // it every poll. Reset on reattach so the new connection gets it again.
    std::optional<provenance::VarId> sent_probe;
    bool completed = false;
    // Terminal outcome, re-sent verbatim on resume until the Ack.
    std::string report_json;          // when the session succeeded
    bool failed = false;              // when it did not
    uint8_t error_code = 0;
    std::string error_message;
  };

  size_t PollLocked() REQUIRES(mu_);
  size_t AcceptLocked() REQUIRES(mu_);
  size_t ReadConnLocked(uint64_t cid) REQUIRES(mu_);
  size_t TimersLocked() REQUIRES(mu_);
  void HandleMessage(uint64_t cid, Message msg) REQUIRES(mu_);
  void HandleOpen(uint64_t cid, const OpenSession& m) REQUIRES(mu_);
  void PumpSession(ServerSession& s) REQUIRES(mu_);
  void SendOnConn(uint64_t cid, const Message& msg) REQUIRES(mu_);
  void SendToSession(ServerSession& s, const Message& msg) REQUIRES(mu_);
  void TryFlush(uint64_t cid) REQUIRES(mu_);
  void DropConn(uint64_t cid) REQUIRES(mu_);
  void CompleteSession(ServerSession& s) REQUIRES(mu_);
  void FailSession(ServerSession& s, const Status& error) REQUIRES(mu_);
  void EvictCompletedLocked() REQUIRES(mu_);
  size_t InflightLocked() const REQUIRES(mu_);
  void UpdateGauges() REQUIRES(mu_);

  core::SessionEngine& engine_;
  Transport& transport_;
  const ServerOptions options_;
  Clock* clock_;
  obs::MetricsRegistry* metrics_;

  mutable Mutex mu_;
  std::unique_ptr<Listener> listener_ GUARDED_BY(mu_);
  std::string address_ GUARDED_BY(mu_);
  uint64_t next_conn_id_ GUARDED_BY(mu_) = 1;
  std::map<uint64_t, ConnState> conns_ GUARDED_BY(mu_);
  std::map<uint64_t, ServerSession> sessions_ GUARDED_BY(mu_);
  // Completed-session ids in completion order, for bounded retention.
  std::deque<uint64_t> completed_order_ GUARDED_BY(mu_);
  ServerStats stats_ GUARDED_BY(mu_);
  bool draining_ GUARDED_BY(mu_) = false;

  std::atomic<bool> stop_{false};
  std::thread pump_;  // Start()'s background loop
};

}  // namespace consentdb::net

#endif  // CONSENTDB_NET_PROBE_SERVER_H_
