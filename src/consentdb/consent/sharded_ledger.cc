#include "consentdb/consent/sharded_ledger.h"

#include <algorithm>

#include "consentdb/util/check.h"

namespace consentdb::consent {

// Wraps the caller's oracle so every shard funnels peer traffic through one
// global mutex. Stack-allocated per probe: holds probe_mu_ only for the
// duration of the backing call, strictly inside the shard's own mutex, so
// the only lock-order edge it adds is shard mu_ -> probe_mu_.
class ShardedConsentLedger::SerializedOracle : public FallibleOracle {
 public:
  SerializedOracle(Mutex& mu, ProbeOracle& backing)
      : mu_(mu), backing_(backing) {}

  ProbeAttempt TryProbe(VarId x) override {
    MutexLock lock(mu_);
    return backing_.TryProbe(x);
  }
  size_t probe_count() const override {
    MutexLock lock(mu_);
    return backing_.probe_count();
  }

 private:
  Mutex& mu_;
  ProbeOracle& backing_;
};

ShardedConsentLedger::ShardedConsentLedger(size_t num_shards) {
  CONSENTDB_CHECK(num_shards > 0,
                  "ShardedConsentLedger needs at least one shard");
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<ConsentLedger>());
  }
}

size_t ShardedConsentLedger::ShardOf(VarId x, size_t num_shards) {
  // SplitMix64 finalizer: a fixed, platform-independent mix so that ids
  // allocated sequentially by the variable pool spread evenly instead of
  // striping, and so persisted shard WALs replay to the same partitions on
  // any build.
  uint64_t z = static_cast<uint64_t>(x) + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<size_t>(z % num_shards);
}

void ShardedConsentLedger::AttachShardJournals(
    const std::vector<WalWriter*>& wals, uint64_t compact_every_records) {
  CONSENTDB_CHECK(wals.size() == shards_.size(),
                  "AttachShardJournals needs exactly one wal per shard");
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->AttachJournal(wals[i], compact_every_records);
  }
}

ProbeAttempt ShardedConsentLedger::TryProbeVia(ProbeOracle& oracle, VarId x,
                                               bool* answered_from_ledger) {
  SerializedOracle serialized(probe_mu_, oracle);
  return shards_[ShardOf(x, shards_.size())]->TryProbeVia(
      serialized, x, answered_from_ledger);
}

std::optional<bool> ShardedConsentLedger::Lookup(VarId x) const {
  return shards_[ShardOf(x, shards_.size())]->Lookup(x);
}

void ShardedConsentLedger::AttachJournal(WalWriter* /*wal*/,
                                         uint64_t /*compact_every_records*/) {
  CONSENTDB_CHECK(false,
                  "a sharded ledger journals per shard; use "
                  "AttachShardJournals with one wal per shard");
}

Status ShardedConsentLedger::journal_error() const {
  // First failure in shard-id order: deterministic when several shards
  // latched errors, and OK only if every shard is clean.
  for (const auto& shard : shards_) {
    Status s = shard->journal_error();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status ShardedConsentLedger::RestoreAnswer(VarId x, bool answer) {
  return shards_[ShardOf(x, shards_.size())]->RestoreAnswer(x, answer);
}

std::vector<std::pair<VarId, bool>> ShardedConsentLedger::Answers() const {
  std::vector<std::pair<VarId, bool>> merged;
  for (const auto& shard : shards_) {
    std::vector<std::pair<VarId, bool>> part = shard->Answers();
    merged.insert(merged.end(), part.begin(), part.end());
  }
  // Partitions are disjoint, so one global sort restores exactly the order
  // a single ledger's Answers() would produce.
  std::sort(merged.begin(), merged.end());
  return merged;
}

void ShardedConsentLedger::Clear() {
  for (const auto& shard : shards_) shard->Clear();
}

size_t ShardedConsentLedger::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->size();
  return total;
}

uint64_t ShardedConsentLedger::hits() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->hits();
  return total;
}

uint64_t ShardedConsentLedger::oracle_probes() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->oracle_probes();
  return total;
}

uint64_t ShardedConsentLedger::faulted_probes() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->faulted_probes();
  return total;
}

uint64_t ShardedConsentLedger::restored_answers() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->restored_answers();
  return total;
}

}  // namespace consentdb::consent
