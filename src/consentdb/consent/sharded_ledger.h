// ShardedConsentLedger: the ConsentLedger interface over N hash-partitioned
// shards, each an ordinary ConsentLedger with its own mutex and — via the
// existing AttachJournal seam — its own WAL with independent group-commit
// and compaction. Consent answers are independent per-variable facts
// (Sec. II), so partitioning them is semantically invisible: a session
// probing through a sharded ledger reports byte-identically to one probing
// through a single ledger (the `ctest -L sharding` differential suite holds
// this across shard counts 1/2/4/7).
//
// What sharding buys: the single ledger serializes every probe, map insert
// and journal fsync under one mutex. Here, probes of variables on different
// shards contend only on their own shard's mutex and fsync stream; the one
// remaining global point is the backing oracle, which stays serialized
// under probe_mu_ (the ProbeOracle contract does not require thread
// safety). The expensive part of a recorded answer — the WAL append +
// group-commit fsync — happens under the shard mutex only, after probe_mu_
// is released, so journal I/O scales with the shard count.
//
// Lock order (kept acyclic, see consentdb-analyze's lock-order graph):
//   shard ConsentLedger::mu_  ->  ShardedConsentLedger::probe_mu_
//   shard ConsentLedger::mu_  ->  WalWriter::mu_
// probe_mu_ never wraps a shard mutex or a WAL mutex.

#ifndef CONSENTDB_CONSENT_SHARDED_LEDGER_H_
#define CONSENTDB_CONSENT_SHARDED_LEDGER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "consentdb/consent/oracle.h"
#include "consentdb/util/thread_annotations.h"

namespace consentdb::consent {

class WalWriter;

class ShardedConsentLedger : public ConsentLedger {
 public:
  explicit ShardedConsentLedger(size_t num_shards);

  // The shard owning variable `x`: a fixed SplitMix64 mix of the id, mod
  // the shard count. Deliberately *not* std::hash — the routing is baked
  // into every persisted shard WAL, so it must be identical across
  // processes, platforms and library versions.
  static size_t ShardOf(VarId x, size_t num_shards);

  size_t num_shards() const { return shards_.size(); }
  ConsentLedger& shard(size_t i) { return *shards_[i]; }
  const ConsentLedger& shard(size_t i) const { return *shards_[i]; }

  // Journals shard k's answers to wals[k]; exactly one writer per shard
  // (use OpenShardWalSet to open a stamped set). Replaces AttachJournal,
  // which is a single-log seam and CHECK-fails on a sharded ledger.
  void AttachShardJournals(const std::vector<WalWriter*>& wals,
                           uint64_t compact_every_records = 0);

  // --- ConsentLedger interface, routed to the owning shard ---------------

  ProbeAttempt TryProbeVia(ProbeOracle& oracle, VarId x,
                           bool* answered_from_ledger = nullptr) override;
  std::optional<bool> Lookup(VarId x) const override;
  void AttachJournal(WalWriter* wal,
                     uint64_t compact_every_records = 0) override;
  [[nodiscard]] Status journal_error() const override;
  [[nodiscard]] Status RestoreAnswer(VarId x, bool answer) override;
  std::vector<std::pair<VarId, bool>> Answers() const override;
  void Clear() override;

  // Engine-wide tallies, aggregated across shards so `\stats` and the
  // engine.* metrics read the same totals at any shard count. Each count is
  // a sum of relaxed per-shard atomics: exact once probing quiesces,
  // monotone but possibly mid-probe-skewed while shards are hot — the same
  // contract a single ledger's relaxed tallies already have.
  size_t size() const override;
  uint64_t hits() const override;
  uint64_t oracle_probes() const override;
  uint64_t faulted_probes() const override;
  uint64_t restored_answers() const override;

 private:
  // Serializes backing-oracle calls across shards: the shard mutex only
  // protects its own partition, but the ProbeOracle contract still promises
  // implementations they are never called concurrently, and that no
  // variable reaches a peer twice (per-shard maps keep that second half per
  // partition; the partitions are disjoint).
  class SerializedOracle;

  std::vector<std::unique_ptr<ConsentLedger>> shards_;
  // Guards the backing oracle *call*, not data: SerializedOracle holds it
  // across TryProbe so oracles are never entered concurrently (the
  // same contract ConsentLedger::mu_ provides in the single-ledger case).
  mutable Mutex probe_mu_;  // lint:allow mutex-guard
};

}  // namespace consentdb::consent

#endif  // CONSENTDB_CONSENT_SHARDED_LEDGER_H_
