// Wire framing for the probe service: the CRC-checked record of
// util/codec.h, the same record the WAL (consent/wal.h) journals, carried
// over a byte stream.
//
// Stream format (binary, little-endian):
//
//   [ u32 payload_len | u32 crc32(payload) | payload ]*
//
// with payload = { u8 frame_type | body }. Frames are length-prefixed and
// CRC-checksummed, so a torn tail (connection dropped mid-frame) is simply
// an incomplete buffer that dies with the connection, while a corrupted
// frame (bit flip in flight) is detected and reported — the receiver must
// treat it as fatal for the connection, never try to resynchronize. A
// damaged length prefix is caught once the 8-byte header is buffered if it
// reads 0 or above kMaxFramePayload; any other damaged length leaves the
// parser waiting for bytes that never come, which only a read-stall
// timeout ends.
//
// Every encoded byte is a pure function of the message fields: no map
// iteration order, no clocks, no addresses ever reach the wire, so two runs
// that exchange the same messages exchange identical bytes (the
// consentdb-analyze determinism gates hold this).

#ifndef CONSENTDB_NET_FRAME_H_
#define CONSENTDB_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "consentdb/util/codec.h"

namespace consentdb::net {

// Upper bound on one frame's payload: the record bound every reader of
// util/codec.h shares with the WAL.
inline constexpr uint32_t kMaxFramePayload = kMaxRecordPayload;

// One complete frame: its type byte and the body after it.
struct Frame {
  uint8_t type = 0;
  std::string body;
};

// Encodes `type` + `body` as one wire frame.
std::string EncodeFrame(uint8_t type, std::string_view body);

// Incremental decoder over an arbitrary chunking of the stream. Feed bytes
// as they arrive; Next() yields complete frames in order.
class FrameParser {
 public:
  enum class Event : uint8_t {
    kNone,    // no complete frame buffered yet
    kFrame,   // *frame was filled
    kCorrupt  // CRC/length violation — drop the connection
  };

  void Feed(std::string_view bytes) { buffer_.append(bytes); }

  // Extracts the next complete frame, if any. After kCorrupt every further
  // call reports kCorrupt again: a stream with one bad frame has lost sync
  // for good.
  Event Next(Frame* frame);

  // Bytes buffered but not yet consumed (incomplete trailing frame).
  size_t buffered_bytes() const { return buffer_.size(); }
  bool corrupt() const { return corrupt_; }

 private:
  std::string buffer_;
  bool corrupt_ = false;
};

}  // namespace consentdb::net

#endif  // CONSENTDB_NET_FRAME_H_
