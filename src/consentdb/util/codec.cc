#include "consentdb/util/codec.h"

#include "consentdb/util/crc32.h"

namespace consentdb {

namespace {

constexpr size_t kRecordHeaderBytes = 8;  // u32 length, u32 crc32

template <typename T>
void PutLittleEndian(std::string* out, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

template <typename T>
bool GetLittleEndian(std::string_view in, size_t* pos, T* v) {
  if (*pos + sizeof(T) > in.size()) return false;
  T out = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    out |= static_cast<T>(static_cast<uint8_t>(in[*pos + i])) << (8 * i);
  }
  *v = out;
  *pos += sizeof(T);
  return true;
}

}  // namespace

void PutU8(std::string* out, uint8_t v) { PutLittleEndian(out, v); }
void PutU32(std::string* out, uint32_t v) { PutLittleEndian(out, v); }
void PutU64(std::string* out, uint64_t v) { PutLittleEndian(out, v); }

void PutString(std::string* out, std::string_view v) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  out->append(v);
}

bool GetU8(std::string_view in, size_t* pos, uint8_t* v) {
  return GetLittleEndian(in, pos, v);
}

bool GetU32(std::string_view in, size_t* pos, uint32_t* v) {
  return GetLittleEndian(in, pos, v);
}

bool GetU64(std::string_view in, size_t* pos, uint64_t* v) {
  return GetLittleEndian(in, pos, v);
}

bool GetString(std::string_view in, size_t* pos, std::string* v) {
  uint32_t size = 0;
  if (!GetU32(in, pos, &size)) return false;
  if (*pos + size > in.size()) return false;
  v->assign(in.substr(*pos, size));
  *pos += size;
  return true;
}

size_t BeginRecord(std::string* out) {
  const size_t start = out->size();
  out->append(kRecordHeaderBytes, '\0');
  return start;
}

void FinishRecord(std::string* out, size_t start) {
  const std::string_view payload =
      std::string_view(*out).substr(start + kRecordHeaderBytes);
  std::string header;  // 8 bytes: fits the small-string buffer
  PutU32(&header, static_cast<uint32_t>(payload.size()));
  PutU32(&header, Crc32(payload));
  out->replace(start, kRecordHeaderBytes, header);
}

DecodedRecord DecodeRecord(std::string_view in) {
  DecodedRecord record;
  size_t pos = 0;
  uint32_t len = 0;
  uint32_t crc = 0;
  if (!GetU32(in, &pos, &len) || !GetU32(in, &pos, &crc)) {
    return record;  // header cut mid-bytes
  }
  if (len == 0 || len > kMaxRecordPayload) {
    record.kind = DecodedRecord::Kind::kCorrupt;
    return record;
  }
  if (in.size() - pos < len) return record;  // payload cut mid-bytes
  const std::string_view payload = in.substr(pos, len);
  if (Crc32(payload) != crc) {
    record.kind = DecodedRecord::Kind::kCorrupt;
    return record;
  }
  record.kind = DecodedRecord::Kind::kRecord;
  record.payload = payload;
  record.size = pos + len;
  return record;
}

}  // namespace consentdb
