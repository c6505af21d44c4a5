// The one byte format under both the WAL (consent/wal.h) and the probe
// wire protocol (net/frame.h): little-endian field primitives and the
// CRC-checked record
//
//   [ u32 payload_len | u32 crc32(payload) | payload ]
//
// A record is written by opening it (BeginRecord), appending its payload
// with the Put* primitives, and sealing it (FinishRecord); it is read by
// DecodeRecord, one record per step. A length field of 0 or above
// kMaxRecordPayload, or a payload whose checksum fails, is corruption; a
// record cut short (a torn append, a frame still in flight) is incomplete.
// Every encoded byte is a pure function of the values put, independent of
// host endianness.

#ifndef CONSENTDB_UTIL_CODEC_H_
#define CONSENTDB_UTIL_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace consentdb {

// Upper bound on one record's payload. No WAL record or wire message comes
// close, so a length field beyond it means the length bytes themselves are
// damaged (or hostile), not that a big record follows.
inline constexpr uint32_t kMaxRecordPayload = 1u << 20;

// --- Little-endian field primitives -----------------------------------------

void PutU8(std::string* out, uint8_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
// Length-prefixed string: u32 size then the raw bytes.
void PutString(std::string* out, std::string_view v);

// Cursor-based readers: advance `*pos` and return false on underrun.
bool GetU8(std::string_view in, size_t* pos, uint8_t* v);
bool GetU32(std::string_view in, size_t* pos, uint32_t* v);
bool GetU64(std::string_view in, size_t* pos, uint64_t* v);
bool GetString(std::string_view in, size_t* pos, std::string* v);

// --- Records -----------------------------------------------------------------

// Opens a record at the end of `*out` by reserving its header; returns the
// offset to pass to FinishRecord once the payload has been appended.
size_t BeginRecord(std::string* out);

// Seals the record opened at `start`: everything appended since its header
// is the payload, and the header gets its length and checksum.
void FinishRecord(std::string* out, size_t start);

// One decode step over the front of a byte stream.
struct DecodedRecord {
  enum class Kind : uint8_t {
    kRecord,      // `payload` is the first record's payload
    kIncomplete,  // the first record is cut short; more bytes may finish it
    kCorrupt      // bad length or checksum: the stream has lost sync
  };
  Kind kind = Kind::kIncomplete;
  std::string_view payload;  // kRecord only; points into the input
  size_t size = 0;           // kRecord only: header plus payload bytes
};

DecodedRecord DecodeRecord(std::string_view in);

}  // namespace consentdb

#endif  // CONSENTDB_UTIL_CODEC_H_
