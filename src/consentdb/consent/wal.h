// Write-ahead log for the ConsentLedger: every successful probe answer is
// journaled before the session moves on, so a crash never forfeits consent
// that a peer already granted (re-asking peers is exactly the cost the
// ledger exists to avoid).
//
// File format (binary, little-endian):
//
//   consentdb-wal 1\n                              (16-byte magic)
//   [ u32 payload_len | u32 crc32(payload) | payload ]*
//
// with payload = { u8 record_type = 1 | u8 answer | u64 var_id }. The
// records are util/codec.h's, the same the probe wire protocol frames:
// length-prefixed and CRC-checksummed, so a truncated or torn final record
// (the only damage a crashed append can cause) is detected and dropped
// while the clean prefix replays in full.
//
// Durability is tunable via a group-commit window on the injectable Clock:
// window 0 fsyncs every record (an answer is durable before AppendAnswer
// returns); window W batches fsyncs — at most the answers recorded in the
// last W nanoseconds can be lost to a power cut (a process kill loses
// nothing: the page cache survives).
//
// The WAL pairs with a compacted snapshot sidecar (`<wal>.snap`, written
// through consent/snapshot's ledger format): Compact() atomically persists
// the full answer set and resets the log. Recovery (RecoverLedger) replays
// snapshot + WAL tail; replay is idempotent, so a crash between the two
// compaction renames is harmless.

#ifndef CONSENTDB_CONSENT_WAL_H_
#define CONSENTDB_CONSENT_WAL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "consentdb/consent/variable_pool.h"
#include "consentdb/obs/metrics.h"
#include "consentdb/obs/span.h"
#include "consentdb/util/clock.h"
#include "consentdb/util/io.h"
#include "consentdb/util/result.h"
#include "consentdb/util/thread_annotations.h"

namespace consentdb::consent {

class ConsentLedger;

// Identity of one WAL inside a sharded ledger's log set (see
// sharded_ledger.h). Stamped into the file as the first record after the
// magic — payload { u8 record_type = 2 | u8 reserved = 0 | u32 shard_id |
// u32 num_shards | u64 generation } — and preserved across tail healing and
// compaction, so a log can never silently migrate between shard sets:
// opening and recovering a set both apply CheckShardSetMember to every
// member. Files without the record are plain single-ledger logs (the
// pre-sharding format, still fully supported).
struct WalShardInfo {
  uint32_t shard_id = 0;
  uint32_t num_shards = 1;
  // Shard-set epoch, chosen when the set is first created: every member of
  // one set carries the same value, so logs of two different sets can never
  // be mixed into one recovery.
  uint64_t generation = 0;
};

struct WalOptions {
  // Nanoseconds between fsyncs: 0 syncs every append; > 0 batches appends
  // and syncs once the window since the last fsync has elapsed.
  int64_t group_commit_window_nanos = 0;
  // Clock for the group-commit window; nullptr = RealClock().
  Clock* clock = nullptr;
  // Optional wal.* instruments (appends, syncs, bytes, batch sizes).
  obs::MetricsRegistry* metrics = nullptr;
  // Optional span sink: wal.append / wal.fsync / wal.compact spans nest
  // under whatever session span is current on the calling thread, putting
  // WAL I/O on the same causal timeline as the probes that caused it.
  obs::SpanCollector* spans = nullptr;
  // When set, this WAL belongs to a sharded log set: a fresh file is
  // stamped with the shard header and an existing file must carry exactly
  // this header (Open fails otherwise — a foreign or stale-generation log
  // must never be appended to). Unset = plain single-ledger WAL; opening a
  // shard-stamped file without declaring the shard fails symmetrically.
  std::optional<WalShardInfo> shard;
};

// The snapshot sidecar of a WAL.
std::string WalSnapshotPath(const std::string& wal_path);

// The WAL file of shard `shard_id` in a sharded log set rooted at
// `base_path`: `<base_path>.shard<k>`.
std::string ShardWalPath(const std::string& base_path, size_t shard_id);

// Append side. Thread-safe; ConsentLedger calls AppendAnswer under its own
// mutex, but the writer also protects itself so shells/tests can share one.
class WalWriter {
 public:
  // Opens (or creates) the WAL at `path` for appending. An existing file is
  // validated first: a torn or corrupt tail — the residue of a crashed
  // append — is healed by rewriting the clean prefix before new records go
  // in, so damage can never sit in the middle of a log.
  [[nodiscard]] static Result<std::unique_ptr<WalWriter>> Open(
      Env* env, std::string path, WalOptions options = {});

  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // Journals one answer; durable on return iff the group-commit window
  // decided to fsync (always, for window 0).
  [[nodiscard]] Status AppendAnswer(VarId x, bool answer) EXCLUDES(mu_);

  // Forces an fsync of everything appended so far.
  [[nodiscard]] Status Sync() EXCLUDES(mu_);

  // Atomically replaces the log with a compacted snapshot: writes `answers`
  // to the snapshot sidecar (tmp + fsync + rename), then resets the WAL to
  // an empty, synced log. Crash-safe at every step — recovery replays
  // old-snapshot+old-wal, new-snapshot+old-wal or new-snapshot+empty-wal,
  // all of which reproduce the same answer set (replay is idempotent).
  [[nodiscard]] Status CompactTo(
      const std::vector<std::pair<VarId, bool>>& answers) EXCLUDES(mu_);

  // Syncs and closes the file; further appends fail.
  [[nodiscard]] Status Close() EXCLUDES(mu_);

  const std::string& path() const { return path_; }
  uint64_t records_appended() const EXCLUDES(mu_);
  // Records appended but not yet fsynced (0 right after a sync).
  uint64_t pending_records() const EXCLUDES(mu_);
  uint64_t syncs() const EXCLUDES(mu_);
  uint64_t compactions() const EXCLUDES(mu_);

 private:
  WalWriter(Env* env, std::string path, WalOptions options);

  [[nodiscard]] Status SyncLocked() REQUIRES(mu_);

  Env* const env_;
  const std::string path_;
  const WalOptions options_;
  Clock* const clock_;

  mutable Mutex mu_;
  std::unique_ptr<WritableFile> file_ GUARDED_BY(mu_);
  uint64_t records_ GUARDED_BY(mu_) = 0;
  uint64_t pending_ GUARDED_BY(mu_) = 0;
  uint64_t syncs_ GUARDED_BY(mu_) = 0;
  uint64_t compactions_ GUARDED_BY(mu_) = 0;
  int64_t last_sync_nanos_ GUARDED_BY(mu_) = 0;
};

// Read side: the parsed content of a WAL file.
struct WalReplay {
  // Journaled answers in append order (may repeat a variable across
  // compaction boundaries; duplicates always agree or the log is corrupt).
  std::vector<std::pair<VarId, bool>> answers;
  uint64_t records = 0;
  // The final record was cut mid-bytes (crashed append / power cut).
  bool torn_tail = false;
  // A checksum or framing violation stopped the replay (bit rot); the clean
  // prefix before it is still returned.
  bool corrupt_record = false;
  // Tail bytes dropped by either condition.
  uint64_t bytes_dropped = 0;
  // The shard header, when the log belongs to a sharded set.
  std::optional<WalShardInfo> shard;
};

// Parses the WAL at `path`. A missing file is NotFound; a file that is not
// a prefix-of-magic-or-valid-WAL is InvalidArgument. Damaged tails are not
// errors — they come back as torn_tail/corrupt_record with the recovered
// prefix in `answers`.
[[nodiscard]] Result<WalReplay> ReadWal(Env* env, const std::string& path);

// What RecoverLedger replayed; mirrored into the recovery.* metrics.
struct RecoveryStats {
  uint64_t snapshot_answers = 0;  // answers restored from the snapshot sidecar
  uint64_t wal_records = 0;       // WAL records replayed on top
  uint64_t recovered_answers = 0;  // distinct answers in the ledger afterwards
  bool torn_tail = false;
  bool corrupt_record = false;
  uint64_t bytes_dropped = 0;
  int64_t replay_nanos = 0;
  // The replayed WAL's shard header, if it carried one.
  std::optional<WalShardInfo> shard;
};

// Replays `<wal>.snap` + the WAL tail into `ledger` via RestoreAnswer.
// Missing files are fine (fresh deployment = empty recovery). The replay is
// observationally silent: no oracle is touched, no probe/retry/tracer
// signal fires; only the dedicated recovery.* counters and the
// recovery.replay_ns histogram on `metrics` record that it happened.
// Conflicting answers for one variable fail with Internal — the journal is
// corrupt beyond what checksums can explain away.
[[nodiscard]] Result<RecoveryStats> RecoverLedger(
    Env* env, const std::string& wal_path, ConsentLedger* ledger,
    obs::MetricsRegistry* metrics = nullptr, Clock* clock = nullptr);

// The shard-set rule, checked one member at a time in shard-id order by
// everything that opens or recovers a set: a member that is present is
// stamped {shard `shard_id` of `num_shards`}, every stamped member carries
// one generation, and a member without a header carries no records.
// `header` is the member's shard header, if it has one; `carries_records`
// whether the member holds any answer. `*generation` is the generation of
// the members checked so far — filled in by the first stamped member, or
// preset to demand a specific one. FailedPrecondition naming `path` when
// the member breaks the rule.
[[nodiscard]] Status CheckShardSetMember(
    const std::string& path, size_t shard_id, size_t num_shards,
    const std::optional<WalShardInfo>& header, bool carries_records,
    std::optional<uint64_t>* generation);

// One WAL per ledger shard, opened as a set (see sharded_ledger.h).
struct ShardWalSet {
  std::vector<std::unique_ptr<WalWriter>> wals;
  // The generation every member's header agrees on.
  uint64_t generation = 0;

  // Borrowed pointers in shard-id order, for AttachShardJournals /
  // EngineOptions::shard_wals. The set must outlive every borrower.
  std::vector<WalWriter*> pointers() const;
};

// Opens — creating if absent — the `num_shards` WAL files of the sharded
// log set rooted at `base_path` (ShardWalPath(base_path, k) for shard k).
// Fresh files are stamped with `generation`; when any member already
// carries a header, the existing generation wins. Every existing member
// must pass CheckShardSetMember, otherwise the open fails before any file
// is touched — resizing a shard set or mixing logs from two generations is
// never silent. `options` applies to every member (options.shard is filled
// in per shard).
[[nodiscard]] Result<ShardWalSet> OpenShardWalSet(Env* env,
                                                  const std::string& base_path,
                                                  size_t num_shards,
                                                  uint64_t generation = 0,
                                                  WalOptions options = {});

}  // namespace consentdb::consent

#endif  // CONSENTDB_CONSENT_WAL_H_
