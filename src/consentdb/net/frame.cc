#include "consentdb/net/frame.h"

namespace consentdb::net {

std::string EncodeFrame(uint8_t type, std::string_view body) {
  std::string frame;
  const size_t start = BeginRecord(&frame);
  PutU8(&frame, type);
  frame.append(body);
  FinishRecord(&frame, start);
  return frame;
}

FrameParser::Event FrameParser::Next(Frame* frame) {
  if (corrupt_) return Event::kCorrupt;
  const DecodedRecord record = DecodeRecord(buffer_);
  switch (record.kind) {
    case DecodedRecord::Kind::kIncomplete:
      return Event::kNone;
    case DecodedRecord::Kind::kCorrupt:
      corrupt_ = true;
      return Event::kCorrupt;
    case DecodedRecord::Kind::kRecord:
      break;
  }
  frame->type = static_cast<uint8_t>(record.payload[0]);
  frame->body.assign(record.payload.substr(1));
  buffer_.erase(0, record.size);
  return Event::kFrame;
}

}  // namespace consentdb::net
