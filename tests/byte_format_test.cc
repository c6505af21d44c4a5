// Pinned byte formats (`ctest -L durability` / `-L network`): the exact
// bytes of a plain WAL, a stamped shard-set member, the compaction sidecar
// and one wire frame of every MsgType, as hex constants. Round-trip tests
// pass under any symmetric change to a layout (encoder and decoder move
// together); these do not, so a refactor of the record codec, the WAL or
// the protocol that changes a single byte on disk or on the wire fails
// here.

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "consentdb/consent/snapshot.h"
#include "consentdb/consent/wal.h"
#include "consentdb/net/protocol.h"
#include "consentdb/util/io.h"
#include "gtest/gtest.h"

namespace consentdb {
namespace {

using consent::WalOptions;
using consent::WalShardInfo;
using consent::WalWriter;
using provenance::VarId;

using AnswerVec = std::vector<std::pair<VarId, bool>>;

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * bytes.size());
  for (char c : bytes) {
    const auto b = static_cast<uint8_t>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

// The file a WalWriter leaves after journaling `answers`.
std::string WalFileBytes(const std::optional<WalShardInfo>& shard,
                         const AnswerVec& answers) {
  CrashingEnv env;
  WalOptions options;
  options.shard = shard;
  Result<std::unique_ptr<WalWriter>> wal =
      WalWriter::Open(&env, "pin.wal", options);
  EXPECT_TRUE(wal.ok()) << wal.status().ToString();
  if (!wal.ok()) return "";
  for (const auto& [x, answer] : answers) {
    EXPECT_TRUE(wal.value()->AppendAnswer(x, answer).ok());
  }
  EXPECT_TRUE(wal.value()->Close().ok());
  Result<std::string> bytes = env.ReadFileToString("pin.wal");
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? bytes.value() : "";
}

TEST(ByteFormat, PlainWal) {
  EXPECT_EQ(Hex(WalFileBytes(std::nullopt, {{5, true}, {2, false}})),
            "636f6e73656e7464622d77616c20310a"  // "consentdb-wal 1\n"
            // Records: u32 length, u32 crc32, type 1, answer, u64 variable.
            "0a000000" "6f19d353" "01" "01" "0500000000000000"
            "0a000000" "35046d4e" "01" "00" "0200000000000000");
}

TEST(ByteFormat, ShardSetMemberWal) {
  EXPECT_EQ(Hex(WalFileBytes(WalShardInfo{1, 4, 3}, {{9, true}})),
            "636f6e73656e7464622d77616c20310a"  // "consentdb-wal 1\n"
            // Shard header: type 2, reserved 0, shard 1, of 4, generation 3.
            "12000000" "c3092e41" "02" "00" "01000000" "04000000"
            "0300000000000000"
            "0a000000" "200c7c04" "01" "01" "0900000000000000");
}

TEST(ByteFormat, CompactionSidecar) {
  // "consentdb-ledger 1\nanswers 2\n5,1\n2,0\nend\n"
  EXPECT_EQ(Hex(consent::SaveLedgerSnapshot({{5, true}, {2, false}})),
            "636f6e73656e7464622d6c656467657220310a"
            "616e737765727320320a" "352c310a" "322c300a" "656e640a");
}

TEST(ByteFormat, EveryMessageType) {
  const std::vector<std::pair<net::Message, std::string>> pinned = {
      {net::OpenSession{0x0102030405060708, "tenant-a", "SELECT x FROM T", 1,
                        "1,'ana'", 5'000'000},
       "3c000000" "c202e264" "01" "0807060504030201" "08000000"
       "74656e616e742d61" "0f000000" "53454c45435420782046524f4d2054" "01"
       "07000000" "312c27616e6127" "404b4c0000000000"},
      {net::ProbeRequest{42, 7, "x7", "ana"},
       "1e000000" "d33708b2" "02" "2a00000000000000" "0700000000000000"
       "02000000" "7837" "03000000" "616e61"},
      {net::ProbeAnswer{42, 7, 1},
       "12000000" "d3a27482" "03" "2a00000000000000" "0700000000000000" "01"},
      {net::ProbeFaultMsg{42, 7, 2},
       "12000000" "0df953fa" "04" "2a00000000000000" "0700000000000000" "02"},
      {net::SessionReportMsg{42, "{\"probes\":3}"},
       "19000000" "31f0be4c" "05" "2a00000000000000" "0c000000"
       "7b2270726f626573223a337d"},
      {net::ErrorMsg{42, 9, "server is at capacity", 1'000'000'000},
       "2b000000" "abcd23af" "06" "2a00000000000000" "09" "15000000"
       "736572766572206973206174206361706163697479" "00ca9a3b00000000"},
      {net::AckMsg{42},
       "09000000" "f907deea" "07" "2a00000000000000"},
      {net::PingMsg{0xDEAD},
       "09000000" "f33c6597" "08" "adde000000000000"},
      {net::PongMsg{0xBEEF},
       "09000000" "c5a11060" "09" "efbe000000000000"},
  };
  ASSERT_EQ(pinned.size(), std::variant_size_v<net::Message>);
  for (const auto& [msg, hex] : pinned) {
    SCOPED_TRACE("message index " + std::to_string(msg.index()));
    EXPECT_EQ(Hex(net::EncodeMessage(msg)), hex);
  }
}

}  // namespace
}  // namespace consentdb
