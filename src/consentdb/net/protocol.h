// Probe-service message protocol, layered on net/frame.h.
//
// The frame type byte is the MsgType; the frame body is the message fields
// serialized with the little-endian primitives of util/codec.h. Session
// lifecycle (see DESIGN.md §4k):
//
//   client                         server
//     | -- OpenSession(id) -------->|   admit / shed / resume
//     |<-- ProbeRequest(id, x) -----|   one per ledger miss, as evaluation
//     | -- ProbeAnswer(id, x, b) -->|   progresses (or ProbeFault)
//     |        ...                  |
//     |<-- SessionReport(id, json) -|   verdicts ready
//     | -- Ack(id) ---------------->|   server may forget the session
//
// Session ids are chosen by the client as (client_id << 32 | seq), which
// makes OpenSession idempotent: re-sending it after a reconnect resumes the
// same server-side session, and the ConsentLedger guarantees no variable is
// probed twice no matter how often the conversation is replayed.

#ifndef CONSENTDB_NET_PROTOCOL_H_
#define CONSENTDB_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <variant>

#include "consentdb/net/frame.h"
#include "consentdb/util/result.h"

namespace consentdb::net {

// The wire type byte of each message: enumerator k is the Message
// alternative at index k - 1 (the codec relies on that order).
enum class MsgType : uint8_t {
  kOpenSession = 1,
  kProbeRequest = 2,
  kProbeAnswer = 3,
  kProbeFault = 4,
  kSessionReport = 5,
  kError = 6,
  kAck = 7,
  kPing = 8,
  kPong = 9,
};

// Client -> server: start (or resume) session `session_id`. Idempotent for a
// fixed id; the server rejects a re-open whose tenant or query differs from
// the original with kFailedPrecondition.
struct OpenSession {
  uint64_t session_id = 0;
  std::string tenant;
  std::string sql;
  // When has_single is 1, decide consent for the one snapshot row in
  // single_csv instead of the whole result set (0 or 1 on the wire).
  uint8_t has_single = 0;
  std::string single_csv;
  // Client-propagated session deadline, relative nanos from admission;
  // 0 = server default. The server clamps it to its configured maximum.
  int64_t deadline_nanos = 0;
};

// Server -> client: ask the data owner of `variable` for consent.
struct ProbeRequest {
  uint64_t session_id = 0;
  uint64_t variable = 0;
  std::string variable_name;
  std::string owner;
};

// Client -> server: the owner's answer for a previously requested variable.
struct ProbeAnswer {
  uint64_t session_id = 0;
  uint64_t variable = 0;
  uint8_t answer = 0;  // 0 = deny, 1 = grant; any other byte is rejected
};

// Client -> server: the probe could not be answered. `fault` carries the
// consent::ProbeFault enumerator value, kTransient or kUnavailable.
struct ProbeFaultMsg {
  uint64_t session_id = 0;
  uint64_t variable = 0;
  uint8_t fault = 0;
};

// Server -> client: the finished SessionReport, as its canonical JSON.
struct SessionReportMsg {
  uint64_t session_id = 0;
  std::string report_json;
};

// Server -> client: the session failed. `code` is the StatusCode enumerator
// value; retry_after_nanos > 0 is the shedding hint (kUnavailable only).
struct ErrorMsg {
  uint64_t session_id = 0;
  uint8_t code = 0;
  std::string message;
  int64_t retry_after_nanos = 0;
};

// Client -> server: report received; the server may release the session.
struct AckMsg {
  uint64_t session_id = 0;
};

struct PingMsg {
  uint64_t nonce = 0;
};

struct PongMsg {
  uint64_t nonce = 0;
};

using Message = std::variant<OpenSession, ProbeRequest, ProbeAnswer,
                             ProbeFaultMsg, SessionReportMsg, ErrorMsg, AckMsg,
                             PingMsg, PongMsg>;

// Serializes `msg` as one complete wire frame (ready to Write).
std::string EncodeMessage(const Message& msg);

// Decodes a frame (type byte + body) back into a Message. kInvalidArgument
// on an unknown type, a truncated/overlong body, or a flag byte outside its
// values (answer and has_single other than 0/1, fault other than
// kTransient/kUnavailable) — the caller should treat that like a corrupt
// frame and drop the connection.
Result<Message> DecodeMessage(uint8_t type, std::string_view body);

// StatusCode <-> wire byte for ErrorMsg::code. An out-of-range wire byte
// decodes as kInternal (a peer speaking a newer protocol, not a framing
// error).
uint8_t WireStatusCode(StatusCode code);
Status StatusFromWire(uint8_t code, std::string message);

}  // namespace consentdb::net

#endif  // CONSENTDB_NET_PROTOCOL_H_
