#include "consentdb/net/protocol.h"

#include <type_traits>
#include <utility>

#include "consentdb/consent/oracle.h"

namespace consentdb::net {
namespace {

// The type byte of a message is its Message alternative index + 1.
static_assert(std::variant_size_v<Message> ==
              static_cast<size_t>(MsgType::kPong));

// Indexed like Message: names for error messages.
constexpr const char* kMessageNames[] = {
    "OpenSession",   "ProbeRequest", "ProbeAnswer", "ProbeFault",
    "SessionReport", "Error",        "Ack",         "Ping",
    "Pong"};

// Every message's wire fields in wire order: the one place a message's body
// layout is written. EncodeMessage and DecodeMessage both walk it.
template <typename M, typename F>
void ForEachField(M& m, F& f) {
  using T = std::remove_const_t<M>;
  if constexpr (std::is_same_v<T, OpenSession>) {
    f(m.session_id);
    f(m.tenant);
    f(m.sql);
    f(m.has_single);
    f(m.single_csv);
    f(m.deadline_nanos);
  } else if constexpr (std::is_same_v<T, ProbeRequest>) {
    f(m.session_id);
    f(m.variable);
    f(m.variable_name);
    f(m.owner);
  } else if constexpr (std::is_same_v<T, ProbeAnswer>) {
    f(m.session_id);
    f(m.variable);
    f(m.answer);
  } else if constexpr (std::is_same_v<T, ProbeFaultMsg>) {
    f(m.session_id);
    f(m.variable);
    f(m.fault);
  } else if constexpr (std::is_same_v<T, SessionReportMsg>) {
    f(m.session_id);
    f(m.report_json);
  } else if constexpr (std::is_same_v<T, ErrorMsg>) {
    f(m.session_id);
    f(m.code);
    f(m.message);
    f(m.retry_after_nanos);
  } else if constexpr (std::is_same_v<T, AckMsg>) {
    f(m.session_id);
  } else {
    static_assert(std::is_same_v<T, PingMsg> || std::is_same_v<T, PongMsg>);
    f(m.nonce);
  }
}

// Field encodings: u8 and u64 as they are, i64 as its two's-complement
// u64, strings length-prefixed.
struct FieldWriter {
  std::string* out;
  void operator()(uint8_t v) const { PutU8(out, v); }
  void operator()(uint64_t v) const { PutU64(out, v); }
  void operator()(int64_t v) const { PutU64(out, static_cast<uint64_t>(v)); }
  void operator()(const std::string& v) const { PutString(out, v); }
};

// Reads fields back; `ok` turns false at the first underrun.
struct FieldReader {
  std::string_view in;
  size_t pos = 0;
  bool ok = true;
  void operator()(uint8_t& v) { ok = ok && GetU8(in, &pos, &v); }
  void operator()(uint64_t& v) { ok = ok && GetU64(in, &pos, &v); }
  void operator()(int64_t& v) {
    uint64_t u = 0;
    ok = ok && GetU64(in, &pos, &u);
    v = static_cast<int64_t>(u);
  }
  void operator()(std::string& v) { ok = ok && GetString(in, &pos, &v); }
};

// A default-constructed message of the alternative at `index`.
template <size_t... I>
Message EmptyMessage(size_t index, std::index_sequence<I...>) {
  static const Message kEmpty[] = {Message(std::in_place_index<I>)...};
  return kEmpty[index];
}

Status OutOfRange(const char* field, uint8_t value) {
  return Status::InvalidArgument(std::string(field) + " out of range: " +
                                 std::to_string(value));
}

// Flag bytes are enumerations: a receiver must never guess what an unknown
// answer, has_single or fault byte means.
Status CheckFlags(const Message& msg) {
  if (const auto* m = std::get_if<OpenSession>(&msg);
      m != nullptr && m->has_single > 1) {
    return OutOfRange("OpenSession.has_single", m->has_single);
  }
  if (const auto* m = std::get_if<ProbeAnswer>(&msg);
      m != nullptr && m->answer > 1) {
    return OutOfRange("ProbeAnswer.answer", m->answer);
  }
  if (const auto* m = std::get_if<ProbeFaultMsg>(&msg); m != nullptr) {
    const auto fault = static_cast<consent::ProbeFault>(m->fault);
    if (fault != consent::ProbeFault::kTransient &&
        fault != consent::ProbeFault::kUnavailable) {
      return OutOfRange("ProbeFault.fault", m->fault);
    }
  }
  return Status::OK();
}

}  // namespace

std::string EncodeMessage(const Message& msg) {
  // Fields are written straight into the frame's record, so no body is
  // built and copied.
  std::string frame;
  const size_t start = BeginRecord(&frame);
  PutU8(&frame, static_cast<uint8_t>(msg.index() + 1));
  FieldWriter writer{&frame};
  std::visit([&writer](const auto& m) { ForEachField(m, writer); }, msg);
  FinishRecord(&frame, start);
  return frame;
}

Result<Message> DecodeMessage(uint8_t type, std::string_view body) {
  if (type == 0 || type > std::variant_size_v<Message>) {
    return Status::InvalidArgument("unknown message type " +
                                   std::to_string(static_cast<int>(type)));
  }
  const size_t index = type - 1;
  Message msg = EmptyMessage(
      index, std::make_index_sequence<std::variant_size_v<Message>>());
  FieldReader reader{body};
  std::visit([&reader](auto& m) { ForEachField(m, reader); }, msg);
  if (!reader.ok) {
    return Status::InvalidArgument(std::string("truncated ") +
                                   kMessageNames[index] + " message body");
  }
  // Every byte on the wire is accounted for: trailing garbage is rejected.
  if (reader.pos != body.size()) {
    return Status::InvalidArgument(std::string("trailing bytes after ") +
                                   kMessageNames[index] + " message body");
  }
  CONSENTDB_RETURN_IF_ERROR(CheckFlags(msg));
  return msg;
}

uint8_t WireStatusCode(StatusCode code) { return static_cast<uint8_t>(code); }

Status StatusFromWire(uint8_t code, std::string message) {
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(message));
    case StatusCode::kAlreadyExists:
      return Status::AlreadyExists(std::move(message));
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(std::move(message));
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(std::move(message));
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(std::move(message));
    case StatusCode::kUnimplemented:
      return Status::Unimplemented(std::move(message));
    case StatusCode::kInternal:
      return Status::Internal(std::move(message));
    case StatusCode::kUnavailable:
      return Status::Unavailable(std::move(message));
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(message));
  }
  return Status::Internal(std::move(message));
}

}  // namespace consentdb::net
