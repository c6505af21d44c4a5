// ProbeClient: the peer-side driver of a networked consent session.
//
// Decide() opens a session on a ProbeServer, answers the server's
// ProbeRequests from a local ProbeOracle (the client is where the data
// owner lives), and returns the finished SessionReport as its canonical
// JSON — byte-identical to what an in-process RunPrepared of the same
// query against the same answers would report.
//
// The client is built for lossy transports: a dropped connection triggers
// a RetryPolicy-scheduled reconnect that re-sends the *same* OpenSession
// (session ids are client-chosen, so re-opening resumes the server-side
// session instead of starting over), and a per-session answer cache replays
// answers the server re-requests after a resume without touching the oracle
// again — zero duplicate peer probes, no matter how often the conversation
// is torn down and replayed.
//
// Decide() blocks its caller. Cooperative single-threaded tests (the chaos
// harness) supply `idle`, invoked whenever nothing is readable, to pump the
// server and advance the virtual clock; real-socket callers leave it unset
// and the client naps on the clock between polls.

#ifndef CONSENTDB_NET_PROBE_CLIENT_H_
#define CONSENTDB_NET_PROBE_CLIENT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "consentdb/consent/oracle.h"
#include "consentdb/core/consent_manager.h"
#include "consentdb/net/frame.h"
#include "consentdb/net/protocol.h"
#include "consentdb/util/clock.h"
#include "consentdb/util/transport.h"

namespace consentdb::net {

struct ProbeClientOptions {
  std::string tenant = "default";
  // High half of every session id this client mints; give each client of a
  // shared server a distinct id or their sessions collide.
  uint32_t client_id = 1;
  // Propagated to the server in OpenSession (0 = server default).
  int64_t session_deadline_nanos = 0;
  // Reconnect schedule after connection loss. max_attempts bounds
  // *consecutive* failures — any successfully received frame resets the
  // count. Its deadlines must stay 0.
  core::RetryPolicy reconnect;
  // Time source for reconnect backoff and idle naps; null = the real clock.
  Clock* clock = nullptr;
  // A connection that stays readable but yields no decodable frame for this
  // long is torn down and re-established (counts as one reconnect attempt).
  // This is the only defence against silent stream stalls — e.g. a length
  // prefix corrupted into a frame larger than the peer will ever send, which
  // the CRC can never reject because the frame never completes. 0 disables.
  int64_t stall_timeout_nanos = 5'000'000'000;  // 5s
  // Called whenever nothing is readable (cooperative test drivers pump the
  // server here). Unset, the client sleeps ~1ms on the clock instead.
  std::function<void()> idle;
  // Observer invoked for each fresh ProbeRequest just before the oracle is
  // asked (not for cached replays) — the shell uses it to show the peer's
  // name and owner when prompting a human.
  std::function<void(const ProbeRequest&)> on_probe;
};

class ProbeClient {
 public:
  struct ClientStats {
    uint64_t sessions = 0;
    uint64_t reconnects = 0;          // connections re-established
    uint64_t stalls = 0;              // connections torn down as stalled
    uint64_t oracle_probes = 0;       // ProbeRequests answered by the oracle
    uint64_t cached_replays = 0;      // ProbeRequests answered from the cache
    uint64_t probe_faults = 0;        // faulted oracle attempts reported
    int64_t last_retry_after_nanos = 0;  // from the last shed ErrorMsg
  };

  // `transport` and `oracle` must outlive the client. The oracle is the
  // local stand-in for the data owners this peer can reach.
  ProbeClient(Transport& transport, std::string server_address,
              consent::ProbeOracle* oracle, ProbeClientOptions options = {});

  // Runs one full consent session for `sql` and returns the SessionReport
  // JSON. `single_csv`, when set, scopes the session to that one snapshot
  // row (OPT-PEER-PROBE-SINGLE). Server-reported failures come back as the
  // wire-decoded Status (kUnavailable = shed, with stats().last_retry_after
  // carrying the hint); kUnavailable also results when reconnects are
  // exhausted.
  [[nodiscard]] Result<std::string> Decide(
      const std::string& sql,
      const std::optional<std::string>& single_csv = std::nullopt);

  const ClientStats& stats() const { return stats_; }

 private:
  Result<std::string> RunSession(const OpenSession& open);
  // Establishes a connection and queues `open` on it; kUnavailable once the
  // retry schedule is exhausted.
  [[nodiscard]] Status Reconnect(const OpenSession& open, size_t* attempt);
  [[nodiscard]] Status FlushOut();
  void DropConn();

  Transport& transport_;
  const std::string address_;
  consent::ProbeOracle* const oracle_;
  const ProbeClientOptions options_;
  Clock* clock_;

  std::unique_ptr<Connection> conn_;
  FrameParser parser_;
  std::string out_;

  uint32_t next_seq_ = 1;
  ClientStats stats_;
};

}  // namespace consentdb::net

#endif  // CONSENTDB_NET_PROBE_CLIENT_H_
