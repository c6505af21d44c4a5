// Session checkpoints: one self-contained file from which a SessionEngine
// (or a shell) can resume after a restart — the database snapshot, the
// consent ledger's recorded answers, and the specs of every in-flight
// session.
//
// Resume deliberately re-derives session progress instead of serializing
// EvaluationState: strategies are deterministic given recorded answers, so
// re-running a checkpointed session against the restored ledger replays the
// already-journaled prefix from the ledger (zero peer traffic) and then
// continues live — producing a SessionReport byte-identical to the
// uninterrupted run. That makes the checkpoint format trivial (specs, not
// solver state) and semantics-preserving by construction.
//
// File format (line-oriented; sections are byte-counted so their content
// never needs escaping):
//
//   consentdb-checkpoint 1
//   database <bytes>
//   <consent/snapshot text, exactly that many bytes>
//   ledger <bytes>
//   <ledger-snapshot text, exactly that many bytes>
//   sessions <m>
//   session <sql>                (m groups; sql is always a single line)
//   single <csv-row>             (optional line: targeted-session tuple)
//   end
//
// Variable ids inside the ledger section are the ids the database snapshot
// wrote; ReadCheckpoint remaps them through LoadSnapshot's var_map, so the
// restored ledger keys match the rebuilt pool.

#ifndef CONSENTDB_CORE_CHECKPOINT_H_
#define CONSENTDB_CORE_CHECKPOINT_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "consentdb/consent/shared_database.h"
#include "consentdb/consent/wal.h"
#include "consentdb/provenance/truth.h"
#include "consentdb/util/io.h"
#include "consentdb/util/result.h"

namespace consentdb::core {

// The resumable spec of one in-flight session. Sessions submitted as a
// prebuilt plan (no SQL) have no serializable spec and are not checkpointed.
struct CheckpointedSession {
  std::string sql;
  // Target tuple of an OPT-PEER-PROBE-SINGLE session, as a snapshot CSV row
  // (parse against the re-planned query's output schema on resume).
  std::optional<std::string> single_csv;
};

// Writes the checkpoint atomically (tmp + fsync + rename): a crash during
// Save leaves the previous checkpoint intact. SQL with embedded newlines is
// rejected (the session format is line-oriented).
[[nodiscard]] Status WriteCheckpoint(
    Env* env, const std::string& path, const consent::SharedDatabase& sdb,
    const std::vector<std::pair<provenance::VarId, bool>>& ledger_answers,
    const std::vector<CheckpointedSession>& sessions);

struct RestoredCheckpoint {
  consent::SharedDatabase sdb;
  // Remapped to the rebuilt pool's ids; feed to ConsentLedger::RestoreAnswer
  // or SessionEngine::RestoreLedger.
  std::vector<std::pair<provenance::VarId, bool>> ledger_answers;
  std::vector<CheckpointedSession> sessions;
};

[[nodiscard]] Result<RestoredCheckpoint> ReadCheckpoint(
    Env* env, const std::string& path);

// --- Cross-shard recovery ---------------------------------------------------
//
// Deterministic recovery of a sharded ledger's WAL set (see
// consent/sharded_ledger.h): shard logs replay strictly in shard-id order,
// each through the same snapshot+tail replay a single WAL gets
// (RecoverLedger), and the recovered answers merge into `ledger` via
// RestoreAnswer. The target may be a plain ConsentLedger (merging N shards
// down to one view) or a ShardedConsentLedger (re-partitioned by the same
// stable hash); either way the merged answer set is identical, and the
// replay order is a pure function of shard ids — no map iteration order
// can leak into what recovery produces.
//
// The per-shard generation header guards the set: every member must pass
// the shard-set rule (consent::CheckShardSetMember, the same check
// OpenShardWalSet applies), so a member stamped for a different
// (num_shards, generation) or sitting at the wrong slot fails recovery
// with FailedPrecondition. Without this, a stale shard file from another
// set could silently resurrect into the merged view. Missing members are
// fine (a crash before a shard's first append creates nothing); a
// headerless member carrying records — in its WAL or its snapshot sidecar
// — is rejected: only a header-before-records file can claim membership.
// On any error the target ledger may hold a partial merge and must be
// discarded.

// What RecoverShardedLedger replayed.
struct ShardRecoveryStats {
  // Per-shard replay stats, in shard-id (= replay) order; one entry per
  // shard, zeroed for members with no files.
  std::vector<consent::RecoveryStats> shards;
  // The generation every present member agreed on (0 if no member carried
  // a header — an empty set).
  uint64_t generation = 0;
  // Distinct answers in `ledger` after the merge.
  uint64_t recovered_answers = 0;
};

[[nodiscard]] Result<ShardRecoveryStats> RecoverShardedLedger(
    Env* env, const std::string& base_path, size_t num_shards,
    consent::ConsentLedger* ledger, obs::MetricsRegistry* metrics = nullptr,
    Clock* clock = nullptr);

}  // namespace consentdb::core

#endif  // CONSENTDB_CORE_CHECKPOINT_H_
