#include "consentdb/core/checkpoint.h"

#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "consentdb/consent/oracle.h"
#include "consentdb/consent/snapshot.h"

namespace consentdb::core {

namespace {

constexpr char kMagic[] = "consentdb-checkpoint 1";

// Parses a non-negative integer occupying the whole of `text`.
bool ParseCount(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

// A cursor over the checkpoint text: line reads for the framing, raw byte
// reads for the byte-counted sections.
class Cursor {
 public:
  explicit Cursor(const std::string& text) : text_(text) {}

  // Reads up to (and consuming) the next '\n'; fails at end of input.
  [[nodiscard]] Result<std::string> Line() {
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("checkpoint truncated: expected a line");
    }
    size_t nl = text_.find('\n', pos_);
    if (nl == std::string::npos) {
      return Status::InvalidArgument("checkpoint truncated: unterminated line");
    }
    std::string line = text_.substr(pos_, nl - pos_);
    pos_ = nl + 1;
    return line;
  }

  // Reads exactly `n` raw bytes.
  [[nodiscard]] Result<std::string> Bytes(uint64_t n) {
    if (n > text_.size() - pos_) {
      return Status::InvalidArgument("checkpoint truncated: section shorter "
                                     "than its byte count");
    }
    std::string bytes = text_.substr(pos_, n);
    pos_ += n;
    return bytes;
  }

  // A framing line "<keyword> <rest>"; returns rest.
  [[nodiscard]] Result<std::string> Keyword(const std::string& keyword) {
    CONSENTDB_ASSIGN_OR_RETURN(std::string line, Line());
    const std::string prefix = keyword + " ";
    if (line.compare(0, prefix.size(), prefix) != 0) {
      return Status::InvalidArgument("checkpoint: expected '" + keyword +
                                     " ...', got '" + line + "'");
    }
    return line.substr(prefix.size());
  }

  [[nodiscard]] Result<uint64_t> CountAfter(const std::string& keyword) {
    CONSENTDB_ASSIGN_OR_RETURN(std::string rest, Keyword(keyword));
    uint64_t n = 0;
    if (!ParseCount(rest, &n)) {
      return Status::InvalidArgument("checkpoint: bad count in '" + keyword +
                                     " " + rest + "'");
    }
    return n;
  }

  size_t pos() const { return pos_; }
  void Rewind(size_t pos) { pos_ = pos; }

 private:
  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Status WriteCheckpoint(
    Env* env, const std::string& path, const consent::SharedDatabase& sdb,
    const std::vector<std::pair<provenance::VarId, bool>>& ledger_answers,
    const std::vector<CheckpointedSession>& sessions) {
  for (const CheckpointedSession& s : sessions) {
    if (s.sql.find('\n') != std::string::npos) {
      return Status::InvalidArgument(
          "checkpoint: session sql must be a single line");
    }
    if (s.single_csv.has_value() &&
        s.single_csv->find('\n') != std::string::npos) {
      return Status::InvalidArgument(
          "checkpoint: session tuple must be a single line");
    }
  }
  const std::string db = consent::SaveSnapshot(sdb);
  const std::string ledger = consent::SaveLedgerSnapshot(ledger_answers);
  std::ostringstream out;
  out << kMagic << "\n";
  out << "database " << db.size() << "\n" << db;
  out << "ledger " << ledger.size() << "\n" << ledger;
  out << "sessions " << sessions.size() << "\n";
  for (const CheckpointedSession& s : sessions) {
    out << "session " << s.sql << "\n";
    if (s.single_csv.has_value()) out << "single " << *s.single_csv << "\n";
  }
  out << "end\n";
  // Atomic publish: a crash mid-write leaves the previous checkpoint (or
  // nothing) in place, never a torn file under `path`.
  return env->WriteFileAtomically(path, out.str());
}

Result<RestoredCheckpoint> ReadCheckpoint(Env* env, const std::string& path) {
  CONSENTDB_ASSIGN_OR_RETURN(std::string text, env->ReadFileToString(path));
  Cursor cursor(text);
  CONSENTDB_ASSIGN_OR_RETURN(std::string magic, cursor.Line());
  if (magic != kMagic) {
    return Status::InvalidArgument("not a consentdb checkpoint: " + path);
  }

  CONSENTDB_ASSIGN_OR_RETURN(uint64_t db_bytes, cursor.CountAfter("database"));
  CONSENTDB_ASSIGN_OR_RETURN(std::string db_text, cursor.Bytes(db_bytes));
  std::map<uint64_t, provenance::VarId> var_map;
  RestoredCheckpoint restored;
  CONSENTDB_ASSIGN_OR_RETURN(restored.sdb,
                             consent::LoadSnapshot(db_text, &var_map));

  CONSENTDB_ASSIGN_OR_RETURN(uint64_t lg_bytes, cursor.CountAfter("ledger"));
  CONSENTDB_ASSIGN_OR_RETURN(std::string lg_text, cursor.Bytes(lg_bytes));
  using AnswerVec = std::vector<std::pair<provenance::VarId, bool>>;
  CONSENTDB_ASSIGN_OR_RETURN(AnswerVec raw_answers,
                             consent::LoadLedgerSnapshot(lg_text));
  restored.ledger_answers.reserve(raw_answers.size());
  for (const auto& [snapshot_id, answer] : raw_answers) {
    auto it = var_map.find(snapshot_id);
    if (it == var_map.end()) {
      return Status::InvalidArgument(
          "checkpoint: ledger references variable " +
          std::to_string(snapshot_id) + " absent from the database snapshot");
    }
    restored.ledger_answers.emplace_back(it->second, answer);
  }

  CONSENTDB_ASSIGN_OR_RETURN(uint64_t n_sessions,
                             cursor.CountAfter("sessions"));
  restored.sessions.reserve(n_sessions);
  for (uint64_t i = 0; i < n_sessions; ++i) {
    CheckpointedSession s;
    CONSENTDB_ASSIGN_OR_RETURN(s.sql, cursor.Keyword("session"));
    // Peek: an optional "single " line belongs to this session.
    const size_t mark = cursor.pos();
    CONSENTDB_ASSIGN_OR_RETURN(std::string next, cursor.Line());
    if (next.compare(0, 7, "single ") == 0) {
      s.single_csv = next.substr(7);
    } else {
      cursor.Rewind(mark);  // not ours; it is the next framing line
    }
    restored.sessions.push_back(std::move(s));
  }
  CONSENTDB_ASSIGN_OR_RETURN(std::string tail, cursor.Line());
  if (tail != "end") {
    return Status::InvalidArgument("checkpoint: expected 'end', got '" + tail +
                                   "'");
  }
  return restored;
}

Result<ShardRecoveryStats> RecoverShardedLedger(Env* env,
                                                const std::string& base_path,
                                                size_t num_shards,
                                                consent::ConsentLedger* ledger,
                                                obs::MetricsRegistry* metrics,
                                                Clock* clock) {
  if (num_shards == 0) {
    return Status::InvalidArgument("sharded recovery needs at least one shard");
  }
  ShardRecoveryStats stats;
  stats.shards.reserve(num_shards);
  std::optional<uint64_t> generation;
  // Shard-id order, always: the merge must not depend on directory listing
  // or map order, so two recoveries of one set are byte-identical.
  for (size_t k = 0; k < num_shards; ++k) {
    const std::string wal_path = consent::ShardWalPath(base_path, k);
    CONSENTDB_ASSIGN_OR_RETURN(
        consent::RecoveryStats shard_stats,
        consent::RecoverLedger(env, wal_path, ledger, metrics, clock));
    CONSENTDB_RETURN_IF_ERROR(consent::CheckShardSetMember(
        wal_path, k, num_shards, shard_stats.shard,
        shard_stats.wal_records + shard_stats.snapshot_answers > 0,
        &generation));
    stats.shards.push_back(shard_stats);
  }
  stats.generation = generation.value_or(0);
  stats.recovered_answers = ledger->size();
  return stats;
}

}  // namespace consentdb::core
