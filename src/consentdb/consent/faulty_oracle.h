// FaultyOracle: deterministic unreliable-peer simulation.
//
// The paper assumes every probed peer answers instantly and truthfully; a
// production consent broker must keep deciding when peers are slow, flaky,
// or gone. FaultyOracle decorates any ProbeOracle with faults drawn from a
// declarative FaultPlan, keyed by the owning peer of each variable:
//
//   * latency            — every attempt advances the injected Clock by a
//                          fixed per-peer delay (virtual time: no sleeping);
//   * transient failures — an attempt fails with probability p; a retry of
//                          the same variable may succeed;
//   * permanent unavailability — every attempt fails, forever;
//   * crash-after-answer — the peer answers its first k probes and then
//                          becomes permanently unavailable.
//
// Determinism: whether the n-th attempt at variable x faults is a pure
// function of (plan.seed, x, n) — a hash, not a shared RNG stream — so the
// schedule is identical under any thread interleaving and any probing
// order. Same seed, same per-variable attempt sequence, same faults.
//
// Thread-safe: attempts are serialized under an internal mutex (the backing
// oracle therefore need not be thread-safe). Inject a VirtualClock when
// simulating latency from concurrent sessions — the lock is held across the
// clock call.

#ifndef CONSENTDB_CONSENT_FAULTY_ORACLE_H_
#define CONSENTDB_CONSENT_FAULTY_ORACLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "consentdb/consent/oracle.h"
#include "consentdb/consent/variable_pool.h"
#include "consentdb/util/clock.h"
#include "consentdb/util/thread_annotations.h"

namespace consentdb::consent {

// The fault profile of one peer. The zero value is a perfectly reliable
// peer.
struct PeerFaults {
  // Probability that a single attempt fails transiently.
  double transient_failure_prob = 0.0;
  // Injected round-trip delay per attempt (requires a Clock).
  int64_t latency_nanos = 0;
  // The peer never answers (every attempt faults kUnavailable).
  bool permanently_unavailable = false;
  // After this many successful answers the peer crashes and becomes
  // permanently unavailable; 0 = never.
  size_t crash_after_answers = 0;

  bool faultless() const {
    return transient_failure_prob <= 0.0 && latency_nanos <= 0 &&
           !permanently_unavailable && crash_after_answers == 0;
  }
};

// Declarative fault configuration: a default profile plus per-peer
// overrides (keyed by VariablePool owner). `seed` drives the deterministic
// transient-fault schedule.
struct FaultPlan {
  uint64_t seed = 0;
  PeerFaults defaults;
  std::map<std::string, PeerFaults> per_peer;

  // True when no configured profile can ever fault or delay — the plan
  // under which FaultyOracle is a transparent pass-through.
  bool empty() const;
  const PeerFaults& For(const std::string& owner) const;
};

class FaultyOracle : public FallibleOracle {
 public:
  // `backing` answers the probes that get through; `pool` maps variables to
  // their owning peers; `clock` receives the latency (null = latency is not
  // simulated). All three must outlive the oracle.
  FaultyOracle(ProbeOracle& backing, const VariablePool& pool, FaultPlan plan,
               Clock* clock = nullptr);

  // One attempt: latency, then the fault schedule, then the backing oracle.
  // (The inherited Probe fails loudly on a fault; with an empty plan it
  // never fires and the oracle is byte-identical to its backing.)
  ProbeAttempt TryProbe(VarId x) override EXCLUDES(mu_);

  // Successful answers delivered (the paper's cost model counts only these).
  size_t probe_count() const override EXCLUDES(mu_);

  struct Stats {
    uint64_t attempts = 0;
    uint64_t successes = 0;
    uint64_t transient_faults = 0;
    uint64_t unavailable_faults = 0;
    size_t crashed_peers = 0;
  };
  Stats stats() const EXCLUDES(mu_);

  // Attempts made at variable x so far (the fault-schedule index).
  size_t attempts_for(VarId x) const EXCLUDES(mu_);

  const FaultPlan& plan() const { return plan_; }

 private:
  ProbeOracle& backing_;
  const VariablePool& pool_;
  const FaultPlan plan_;
  Clock* const clock_;

  // mu_ serializes attempts end to end (schedule bookkeeping + the backing
  // oracle call), mirroring ConsentLedger's discipline.
  mutable Mutex mu_;
  std::unordered_map<VarId, size_t> attempts_ GUARDED_BY(mu_);
  std::unordered_map<std::string, size_t> peer_answers_ GUARDED_BY(mu_);
  std::unordered_set<std::string> crashed_ GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace consentdb::consent

#endif  // CONSENTDB_CONSENT_FAULTY_ORACLE_H_
