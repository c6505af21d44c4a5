// Probe oracles: the abstraction of "asking a peer for consent" (Sec. II).
//
// A probe reveals val(x) for one consent variable x. In production the
// oracle would reach a human or an automated agent; for experiments it is
// backed by a hidden valuation drawn from the prior (Sec. V-A).

#ifndef CONSENTDB_CONSENT_ORACLE_H_
#define CONSENTDB_CONSENT_ORACLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "consentdb/consent/variable_pool.h"
#include "consentdb/provenance/truth.h"
#include "consentdb/util/status.h"
#include "consentdb/util/thread_annotations.h"

namespace consentdb::consent {

class WalWriter;

// How a single probe attempt can fail (the resilience extension): a
// transient fault may succeed on retry; an unavailable peer never answers
// again. A fault carries no answer — consent stays unknown, matching the
// paper's possible-worlds semantics.
enum class ProbeFault : uint8_t {
  kNone,         // answered
  kTransient,    // timeout/drop; retrying the same variable may succeed
  kUnavailable,  // the owning peer is permanently gone
};

const char* ProbeFaultToString(ProbeFault fault);

// The outcome of one probe attempt. `answer` is meaningful only when
// `fault == kNone`.
struct ProbeAttempt {
  bool answer = false;
  ProbeFault fault = ProbeFault::kNone;

  bool ok() const { return fault == ProbeFault::kNone; }
  bool operator==(const ProbeAttempt&) const = default;

  static ProbeAttempt Answered(bool answer) {
    return ProbeAttempt{answer, ProbeFault::kNone};
  }
  static ProbeAttempt Faulted(ProbeFault fault) {
    return ProbeAttempt{false, fault};
  }
};

// Interface. Implementations must answer consistently: repeated probes of
// the same variable return the same value.
class ProbeOracle {
 public:
  virtual ~ProbeOracle() = default;

  // Asks the owner of `x` for consent; returns the (hidden) val(x). The
  // hook simple oracles implement; sessions never call it directly.
  virtual bool Probe(VarId x) = 0;

  // One attempt at asking the peer, which may fail instead of answering:
  // the only way a session asks a peer, resilient or not. The default
  // implementation wraps the infallible Probe(), so plain oracles never
  // fault; oracles that can fault derive from FallibleOracle instead.
  virtual ProbeAttempt TryProbe(VarId x) {
    return ProbeAttempt::Answered(Probe(x));
  }

  // Number of probes answered so far.
  virtual size_t probe_count() const = 0;
};

// Base of the oracles built on one fallible attempt (FaultyOracle, ledger
// views, the ledger's own wrappers): they implement only TryProbe, and
// Probe is that attempt for direct callers that cannot see a fault —
// it CHECK-fails on one.
class FallibleOracle : public ProbeOracle {
 public:
  bool Probe(VarId x) final;
  ProbeAttempt TryProbe(VarId x) override = 0;
};

// Answers from a fixed hidden valuation; every variable queried must be set
// in the valuation. Counts probes; repeated probes of the same variable are
// counted once (the answer is simply remembered, matching the cost model
// where each peer is asked at most once per variable).
class ValuationOracle : public ProbeOracle {
 public:
  explicit ValuationOracle(provenance::PartialValuation hidden);

  bool Probe(VarId x) override;
  size_t probe_count() const override { return probed_.size(); }

  // The sequence of (variable, answer) pairs, in probe order.
  const std::vector<std::pair<VarId, bool>>& trace() const { return trace_; }

 private:
  provenance::PartialValuation hidden_;
  std::vector<bool> seen_;  // indexed by VarId
  std::vector<std::pair<VarId, bool>> trace_;
  std::vector<VarId> probed_;
};

// Replays the probe trace of an earlier session (audit/debugging): answers
// exactly what was answered before and fails loudly on any probe that the
// recorded session never asked. Deterministic strategies re-driven against
// a ReplayOracle reproduce the original session bit for bit.
class ReplayOracle : public ProbeOracle {
 public:
  explicit ReplayOracle(std::vector<std::pair<VarId, bool>> trace);

  bool Probe(VarId x) override;
  size_t probe_count() const override { return asked_; }

 private:
  std::vector<std::pair<VarId, bool>> trace_;
  size_t asked_ = 0;
};

// Answers by invoking a user callback (e.g. a UI prompt or a network call),
// memoising answers so each variable is asked once.
class CallbackOracle : public ProbeOracle {
 public:
  using Callback = std::function<bool(VarId)>;
  explicit CallbackOracle(Callback callback)
      : callback_(std::move(callback)) {}

  bool Probe(VarId x) override;
  size_t probe_count() const override { return answers_.size(); }

 private:
  Callback callback_;
  std::vector<std::pair<VarId, bool>> answers_;
};

// A thread-safe answer ledger shared by concurrent probing sessions: the
// first session to probe a variable forwards the probe to the backing
// oracle; every later probe of the same variable — from any session — is
// answered from the ledger without bothering the peer again. Oracle calls
// are serialized under the ledger mutex, so ProbeOracle implementations
// need not be thread-safe.
//
// The ledger only deduplicates *oracle traffic*; each session still counts
// its own probes by the paper's cost model, so session reports are
// identical with and without a shared ledger (answers are consistent).
//
// The public surface is virtual: ShardedConsentLedger (sharded_ledger.h)
// partitions the answer map across N of these behind the same interface,
// so callers that hold a ConsentLedger& (LedgerOracle, SessionEngine,
// recovery) are oblivious to the sharding.
class ConsentLedger {
 public:
  ConsentLedger() = default;
  virtual ~ConsentLedger() = default;
  ConsentLedger(const ConsentLedger&) = delete;
  ConsentLedger& operator=(const ConsentLedger&) = delete;

  // Answers `x` from the ledger when possible, otherwise forwards one
  // TryProbe attempt to `oracle` (the ledger's only probe method). Only a
  // successful answer is recorded — a faulted attempt leaves no trace in
  // the answer map, so a later retry (from any session) reaches the peer
  // again and the ledger can never hold two answers for one variable. When
  // `answered_from_ledger` is non-null it is set to whether the answer came
  // from the ledger (per-caller accounting; the global tallies below are
  // engine-wide).
  virtual ProbeAttempt TryProbeVia(ProbeOracle& oracle, VarId x,
                                   bool* answered_from_ledger = nullptr)
      EXCLUDES(mu_);

  // The recorded answer, if any session probed `x` already.
  virtual std::optional<bool> Lookup(VarId x) const EXCLUDES(mu_);

  // Durability: journals every answer recorded from here on to `wal`. The
  // append happens under mu_, immediately after the answer enters the map,
  // so the journal order is exactly the recording order. When
  // `compact_every_records` > 0, every that-many journaled answers the WAL
  // is compacted into its snapshot sidecar. A journal-write failure never
  // fails the probe — the answer is correct regardless — it is latched in
  // journal_error() for the owner to surface. (On a CrashingEnv a journal
  // append can instead throw CrashInjected, unwinding the whole probe loop
  // like a real crash would.)
  virtual void AttachJournal(WalWriter* wal, uint64_t compact_every_records = 0)
      EXCLUDES(mu_);

  // The first journal-append failure, if any (OK otherwise).
  [[nodiscard]] virtual Status journal_error() const EXCLUDES(mu_);

  // Recovery-only: re-records an answer replayed from a snapshot or WAL.
  // Observationally silent — no oracle is called, no hit/probe tally moves,
  // nothing is journaled; only restored_answers() counts it. Restoring an
  // already-present equal answer is a no-op; a conflicting answer reports
  // kInternal (corrupt journal).
  [[nodiscard]] virtual Status RestoreAnswer(VarId x, bool answer)
      EXCLUDES(mu_);

  // Answers recorded via RestoreAnswer (duplicates excluded).
  virtual uint64_t restored_answers() const {
    return restored_answers_.load(std::memory_order_relaxed);
  }

  // A sorted copy of all recorded answers (checkpointing, compaction).
  virtual std::vector<std::pair<VarId, bool>> Answers() const EXCLUDES(mu_);

  // Distinct variables answered so far.
  virtual size_t size() const EXCLUDES(mu_);
  // Probes answered from the ledger without reaching an oracle.
  virtual uint64_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  // Probes forwarded to an oracle.
  virtual uint64_t oracle_probes() const {
    return oracle_probes_.load(std::memory_order_relaxed);
  }
  // TryProbeVia attempts that faulted (nothing recorded).
  virtual uint64_t faulted_probes() const {
    return faulted_probes_.load(std::memory_order_relaxed);
  }

  virtual void Clear() EXCLUDES(mu_);

 private:
  // mu_ guards the answer map and, deliberately, the backing oracle call:
  // TryProbeVia holds it across TryProbe() so non-thread-safe oracles are
  // serialized and no variable ever reaches a peer twice. The tallies are
  // atomics rather than guarded fields precisely because of that — a
  // stats read (hits()/oracle_probes()) must not block behind a slow
  // in-flight peer probe.
  // Journals the freshly recorded answer; called right after the map insert
  // so no recorded answer can be skipped.
  void JournalLocked(VarId x, bool answer) REQUIRES(mu_);

  mutable Mutex mu_;
  std::unordered_map<VarId, bool> answers_ GUARDED_BY(mu_);
  WalWriter* wal_ GUARDED_BY(mu_) = nullptr;
  uint64_t compact_every_ GUARDED_BY(mu_) = 0;
  uint64_t journaled_since_compact_ GUARDED_BY(mu_) = 0;
  Status journal_error_ GUARDED_BY(mu_);
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> oracle_probes_{0};
  std::atomic<uint64_t> faulted_probes_{0};
  std::atomic<uint64_t> restored_answers_{0};
};

// Per-session view of a shared ledger: satisfies the ProbeOracle interface
// the probing loop expects while deduplicating oracle traffic ledger-wide.
// probe_count() is this session's call count, mirroring how each session
// pays for its own probes in the paper's cost model — which is also what
// makes resume-after-crash report byte-identically: a recovered ledger
// answers journaled variables without peer traffic, but the session still
// counts them as probes.
class LedgerOracle : public FallibleOracle {
 public:
  LedgerOracle(ConsentLedger& ledger, ProbeOracle& backing)
      : ledger_(ledger), backing_(backing) {}

  ProbeAttempt TryProbe(VarId x) override {
    bool from_ledger = false;
    ProbeAttempt attempt = ledger_.TryProbeVia(backing_, x, &from_ledger);
    // Faulted attempts leave no trace in the ledger and are not charged to
    // this session: only an answer counts as a probe, so retries reach the
    // peer again instead of replaying the failure.
    if (attempt.ok()) {
      ++asked_;
      if (from_ledger) ++ledger_hits_;
    }
    return attempt;
  }
  size_t probe_count() const override { return asked_; }
  uint64_t ledger_hits() const { return ledger_hits_; }

 private:
  ConsentLedger& ledger_;
  ProbeOracle& backing_;
  size_t asked_ = 0;
  uint64_t ledger_hits_ = 0;
};

}  // namespace consentdb::consent

#endif  // CONSENTDB_CONSENT_ORACLE_H_
