#include "consentdb/consent/wal.h"

#include <algorithm>

#include "consentdb/consent/oracle.h"
#include "consentdb/consent/snapshot.h"
#include "consentdb/obs/names.h"
#include "consentdb/util/codec.h"

namespace consentdb::consent {

namespace {

constexpr char kWalMagic[] = "consentdb-wal 1\n";
constexpr size_t kWalMagicLen = sizeof(kWalMagic) - 1;  // 16
constexpr uint8_t kRecordAnswer = 1;
constexpr uint8_t kRecordShardHeader = 2;

// payload { u8 type = 1 | u8 answer | u64 var_id }
void EncodeAnswerRecord(std::string* out, VarId x, bool answer) {
  const size_t start = BeginRecord(out);
  PutU8(out, kRecordAnswer);
  PutU8(out, answer ? 1 : 0);
  PutU64(out, static_cast<uint64_t>(x));
  FinishRecord(out, start);
}

// payload { u8 type = 2 | u8 reserved = 0 | u32 shard_id | u32 num_shards |
//           u64 generation }
void EncodeShardRecord(std::string* out, const WalShardInfo& shard) {
  const size_t start = BeginRecord(out);
  PutU8(out, kRecordShardHeader);
  PutU8(out, 0);  // reserved
  PutU32(out, shard.shard_id);
  PutU32(out, shard.num_shards);
  PutU64(out, shard.generation);
  FinishRecord(out, start);
}

// Magic plus, for a shard-set member, the stamped shard header.
std::string WalHeaderBytes(const std::optional<WalShardInfo>& shard) {
  std::string out(kWalMagic, kWalMagicLen);
  if (shard.has_value()) EncodeShardRecord(&out, *shard);
  return out;
}

// Applies one checksum-clean record payload to `replay`; false when the
// payload is no record this format defines.
bool ApplyRecord(std::string_view payload, WalReplay* replay) {
  size_t pos = 0;
  uint8_t type = 0;
  uint8_t flag = 0;  // the answer, or the header's reserved byte
  if (!GetU8(payload, &pos, &type) || !GetU8(payload, &pos, &flag)) {
    return false;
  }
  if (type == kRecordAnswer && flag <= 1) {
    uint64_t x = 0;
    if (!GetU64(payload, &pos, &x) || pos != payload.size()) return false;
    replay->answers.emplace_back(static_cast<VarId>(x), flag == 1);
    ++replay->records;
    return true;
  }
  if (type == kRecordShardHeader && flag == 0) {
    WalShardInfo shard;
    if (!GetU32(payload, &pos, &shard.shard_id) ||
        !GetU32(payload, &pos, &shard.num_shards) ||
        !GetU64(payload, &pos, &shard.generation) || pos != payload.size()) {
      return false;
    }
    replay->shard = shard;
    return true;
  }
  return false;
}

// Parses raw WAL bytes (magic included). Factored out of ReadWal so
// WalWriter::Open can validate and heal an existing file from the same code.
Result<WalReplay> ParseWal(std::string_view content, const std::string& path) {
  WalReplay replay;
  if (content.size() < kWalMagicLen) {
    // A crash during the very first write can leave a prefix of the magic —
    // including the zero-byte file of a crash between create and the header
    // append; anything else is not a WAL. Either way the header is torn.
    if (std::string_view(kWalMagic, content.size()) == content) {
      replay.torn_tail = true;
      replay.bytes_dropped = content.size();
      return replay;
    }
    return Status::InvalidArgument("not a consentdb wal: " + path);
  }
  if (content.compare(0, kWalMagicLen, kWalMagic) != 0) {
    return Status::InvalidArgument("not a consentdb wal: " + path);
  }
  size_t pos = kWalMagicLen;
  while (pos < content.size()) {
    const std::string_view rest = content.substr(pos);
    const DecodedRecord record = DecodeRecord(rest);
    if (record.kind == DecodedRecord::Kind::kRecord &&
        ApplyRecord(record.payload, &replay)) {
      pos += record.size;
      continue;
    }
    // A record cut mid-bytes is a torn tail (crashed append, power cut);
    // a bad length or checksum, or contents that checksum fine but mean
    // nothing, is corruption. Either way the clean prefix stands.
    replay.torn_tail = record.kind == DecodedRecord::Kind::kIncomplete;
    replay.corrupt_record = !replay.torn_tail;
    replay.bytes_dropped = rest.size();
    break;
  }
  return replay;
}

std::string EncodeWal(const std::optional<WalShardInfo>& shard,
                      const std::vector<std::pair<VarId, bool>>& answers) {
  std::string out = WalHeaderBytes(shard);
  for (const auto& [x, answer] : answers) EncodeAnswerRecord(&out, x, answer);
  return out;
}

}  // namespace

std::string WalSnapshotPath(const std::string& wal_path) {
  return wal_path + ".snap";
}

std::string ShardWalPath(const std::string& base_path, size_t shard_id) {
  return base_path + ".shard" + std::to_string(shard_id);
}

WalWriter::WalWriter(Env* env, std::string path, WalOptions options)
    : env_(env),
      path_(std::move(path)),
      options_(options),
      clock_(options.clock != nullptr ? options.clock : RealClock()) {}

WalWriter::~WalWriter() {
  MutexLock lock(mu_);
  if (file_ != nullptr) {
    // Best effort only — and never throw: the destructor commonly runs
    // while unwinding a CrashInjected, where the env rejects all further
    // I/O by throwing again. Letting that escape would terminate().
    try {
      CONSENTDB_IGNORE_STATUS(SyncLocked());
      CONSENTDB_IGNORE_STATUS(file_->Close());
    } catch (const CrashInjected&) {
      // Process is "dead"; whatever was unsynced is lost, by design.
    }
  }
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(Env* env, std::string path,
                                                   WalOptions options) {
  std::unique_ptr<WalWriter> writer(new WalWriter(env, std::move(path), options));
  MutexLock lock(writer->mu_);
  if (env->FileExists(writer->path_)) {
    // Heal a damaged tail before appending after it.
    CONSENTDB_ASSIGN_OR_RETURN(std::string content,
                               env->ReadFileToString(writer->path_));
    CONSENTDB_ASSIGN_OR_RETURN(WalReplay replay,
                               ParseWal(content, writer->path_));
    // Shard-set safety: a member file must carry exactly the declared
    // header (the shard-set rule with the declared generation), and a plain
    // open must never adopt a shard member. The one tolerated gap is a
    // headerless *empty* member — the residue of a crash between file
    // creation and the header fsync — which is re-stamped by the heal below.
    if (options.shard.has_value()) {
      std::optional<uint64_t> generation = options.shard->generation;
      CONSENTDB_RETURN_IF_ERROR(CheckShardSetMember(
          writer->path_, options.shard->shard_id, options.shard->num_shards,
          replay.shard, !replay.answers.empty(), &generation));
    } else if (replay.shard.has_value()) {
      return Status::FailedPrecondition(
          "wal belongs to a sharded log set; open it with matching "
          "WalOptions::shard: " + writer->path_);
    }
    if (replay.torn_tail || replay.corrupt_record ||
        content.size() < kWalMagicLen ||
        (options.shard.has_value() && !replay.shard.has_value())) {
      CONSENTDB_RETURN_IF_ERROR(env->WriteFileAtomically(
          writer->path_, EncodeWal(options.shard, replay.answers)));
    }
    CONSENTDB_ASSIGN_OR_RETURN(writer->file_,
                               env->NewWritableFile(writer->path_, true));
  } else {
    CONSENTDB_ASSIGN_OR_RETURN(writer->file_,
                               env->NewWritableFile(writer->path_, false));
    CONSENTDB_RETURN_IF_ERROR(
        writer->file_->Append(WalHeaderBytes(options.shard)));
    CONSENTDB_RETURN_IF_ERROR(writer->file_->Sync());
  }
  writer->last_sync_nanos_ = writer->clock_->NowNanos();
  return writer;
}

Status WalWriter::AppendAnswer(VarId x, bool answer) {
  MutexLock lock(mu_);
  if (file_ == nullptr) {
    return Status::FailedPrecondition("wal is closed: " + path_);
  }
  std::string record;
  EncodeAnswerRecord(&record, x, answer);
  {
    obs::Span span(options_.spans, obs::names::kSpanWalAppend);
    span.SetArg(obs::names::kArgBytes, record.size());
    CONSENTDB_RETURN_IF_ERROR(file_->Append(record));
  }
  ++records_;
  ++pending_;
  obs::Increment(options_.metrics, "wal.appends");
  obs::Increment(options_.metrics, "wal.bytes", record.size());
  if (options_.group_commit_window_nanos <= 0 ||
      clock_->NowNanos() - last_sync_nanos_ >=
          options_.group_commit_window_nanos) {
    CONSENTDB_RETURN_IF_ERROR(SyncLocked());
  }
  return Status::OK();
}

Status WalWriter::Sync() {
  MutexLock lock(mu_);
  if (file_ == nullptr) {
    return Status::FailedPrecondition("wal is closed: " + path_);
  }
  return SyncLocked();
}

Status WalWriter::SyncLocked() {
  if (pending_ == 0) {
    last_sync_nanos_ = clock_->NowNanos();
    return Status::OK();
  }
  {
    obs::Span span(options_.spans, obs::names::kSpanWalFsync);
    span.SetArg(obs::names::kArgRecords, pending_);
    CONSENTDB_RETURN_IF_ERROR(file_->Sync());
  }
  obs::Increment(options_.metrics, "wal.syncs");
  if (options_.metrics != nullptr) {
    options_.metrics->GetHistogram("wal.batch_records", obs::WalBatchBuckets())
        ->Observe(pending_);
  }
  pending_ = 0;
  ++syncs_;
  last_sync_nanos_ = clock_->NowNanos();
  return Status::OK();
}

Status WalWriter::CompactTo(
    const std::vector<std::pair<VarId, bool>>& answers) {
  MutexLock lock(mu_);
  if (file_ == nullptr) {
    return Status::FailedPrecondition("wal is closed: " + path_);
  }
  obs::Span span(options_.spans, obs::names::kSpanWalCompact);
  span.SetArg(obs::names::kArgRecords, answers.size());
  // Step 1: the snapshot sidecar gets the full answer set. After its rename
  // lands, the old WAL records are redundant (replay over the snapshot is
  // idempotent), so a crash anywhere past this point loses nothing.
  CONSENTDB_RETURN_IF_ERROR(SyncLocked());
  CONSENTDB_RETURN_IF_ERROR(env_->WriteFileAtomically(
      WalSnapshotPath(path_), SaveLedgerSnapshot(answers)));
  // Step 2: reset the WAL to empty and reopen the append handle.
  CONSENTDB_RETURN_IF_ERROR(file_->Close());
  file_ = nullptr;
  CONSENTDB_RETURN_IF_ERROR(
      env_->WriteFileAtomically(path_, WalHeaderBytes(options_.shard)));
  CONSENTDB_ASSIGN_OR_RETURN(file_, env_->NewWritableFile(path_, true));
  ++compactions_;
  obs::Increment(options_.metrics, "wal.compactions");
  return Status::OK();
}

Status WalWriter::Close() {
  MutexLock lock(mu_);
  if (file_ == nullptr) return Status::OK();
  CONSENTDB_RETURN_IF_ERROR(SyncLocked());
  Status s = file_->Close();
  file_ = nullptr;
  return s;
}

uint64_t WalWriter::records_appended() const {
  MutexLock lock(mu_);
  return records_;
}

uint64_t WalWriter::pending_records() const {
  MutexLock lock(mu_);
  return pending_;
}

uint64_t WalWriter::syncs() const {
  MutexLock lock(mu_);
  return syncs_;
}

uint64_t WalWriter::compactions() const {
  MutexLock lock(mu_);
  return compactions_;
}

Result<WalReplay> ReadWal(Env* env, const std::string& path) {
  CONSENTDB_ASSIGN_OR_RETURN(std::string content, env->ReadFileToString(path));
  return ParseWal(content, path);
}

Result<RecoveryStats> RecoverLedger(Env* env, const std::string& wal_path,
                                    ConsentLedger* ledger,
                                    obs::MetricsRegistry* metrics,
                                    Clock* clock) {
  if (clock == nullptr) clock = RealClock();
  const int64_t start_nanos = clock->NowNanos();
  RecoveryStats stats;

  using AnswerVec = std::vector<std::pair<VarId, bool>>;
  const std::string snap_path = WalSnapshotPath(wal_path);
  if (env->FileExists(snap_path)) {
    CONSENTDB_ASSIGN_OR_RETURN(std::string text,
                               env->ReadFileToString(snap_path));
    CONSENTDB_ASSIGN_OR_RETURN(AnswerVec answers, LoadLedgerSnapshot(text));
    for (const auto& [x, answer] : answers) {
      CONSENTDB_RETURN_IF_ERROR(ledger->RestoreAnswer(x, answer));
    }
    stats.snapshot_answers = answers.size();
  }

  if (env->FileExists(wal_path)) {
    CONSENTDB_ASSIGN_OR_RETURN(WalReplay replay, ReadWal(env, wal_path));
    for (const auto& [x, answer] : replay.answers) {
      CONSENTDB_RETURN_IF_ERROR(ledger->RestoreAnswer(x, answer));
    }
    stats.wal_records = replay.records;
    stats.torn_tail = replay.torn_tail;
    stats.corrupt_record = replay.corrupt_record;
    stats.bytes_dropped = replay.bytes_dropped;
    stats.shard = replay.shard;
  }

  stats.recovered_answers = ledger->size();
  stats.replay_nanos = clock->NowNanos() - start_nanos;

  obs::Increment(metrics, "recovery.replays");
  obs::Increment(metrics, "recovery.replayed_records", stats.wal_records);
  obs::Increment(metrics, "recovery.snapshot_answers", stats.snapshot_answers);
  obs::Increment(metrics, "recovery.recovered_answers",
                 stats.recovered_answers);
  if (stats.torn_tail) obs::Increment(metrics, "recovery.torn_tails");
  if (stats.corrupt_record) obs::Increment(metrics, "recovery.corrupt_records");
  obs::Observe(metrics, "recovery.replay_ns",
               static_cast<uint64_t>(
                   std::max<int64_t>(0, stats.replay_nanos)));
  return stats;
}

std::vector<WalWriter*> ShardWalSet::pointers() const {
  std::vector<WalWriter*> out;
  out.reserve(wals.size());
  for (const auto& wal : wals) out.push_back(wal.get());
  return out;
}

Status CheckShardSetMember(const std::string& path, size_t shard_id,
                           size_t num_shards,
                           const std::optional<WalShardInfo>& header,
                           bool carries_records,
                           std::optional<uint64_t>* generation) {
  if (!header.has_value()) {
    if (!carries_records) return Status::OK();
    return Status::FailedPrecondition(
        "wal carries records but no shard header: " + path);
  }
  if (header->shard_id != shard_id || header->num_shards != num_shards) {
    return Status::FailedPrecondition(
        "wal stamped as shard " + std::to_string(header->shard_id) + "/" +
        std::to_string(header->num_shards) + ", expected shard " +
        std::to_string(shard_id) + "/" + std::to_string(num_shards) + ": " +
        path);
  }
  if (generation->has_value() && **generation != header->generation) {
    return Status::FailedPrecondition(
        "mixed-generation shard set: wal is generation " +
        std::to_string(header->generation) + ", expected " +
        std::to_string(**generation) + ": " + path);
  }
  *generation = header->generation;
  return Status::OK();
}

Result<ShardWalSet> OpenShardWalSet(Env* env, const std::string& base_path,
                                    size_t num_shards, uint64_t generation,
                                    WalOptions options) {
  if (num_shards == 0) {
    return Status::InvalidArgument("shard wal set needs at least one shard");
  }
  // Peek at the existing members first: an already-stamped generation wins
  // over the argument, and a set that breaks the shard-set rule fails
  // before any file is touched.
  std::optional<uint64_t> existing;
  for (size_t k = 0; k < num_shards; ++k) {
    const std::string path = ShardWalPath(base_path, k);
    if (!env->FileExists(path)) continue;
    CONSENTDB_ASSIGN_OR_RETURN(WalReplay replay, ReadWal(env, path));
    CONSENTDB_RETURN_IF_ERROR(CheckShardSetMember(
        path, k, num_shards, replay.shard, !replay.answers.empty(),
        &existing));
  }
  ShardWalSet set;
  set.generation = existing.value_or(generation);
  set.wals.reserve(num_shards);
  for (size_t k = 0; k < num_shards; ++k) {
    WalOptions shard_options = options;
    shard_options.shard = WalShardInfo{static_cast<uint32_t>(k),
                                       static_cast<uint32_t>(num_shards),
                                       set.generation};
    CONSENTDB_ASSIGN_OR_RETURN(
        std::unique_ptr<WalWriter> wal,
        WalWriter::Open(env, ShardWalPath(base_path, k), shard_options));
    set.wals.push_back(std::move(wal));
  }
  return set;
}

}  // namespace consentdb::consent
