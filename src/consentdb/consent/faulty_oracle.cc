#include "consentdb/consent/faulty_oracle.h"

#include "consentdb/util/check.h"
#include "consentdb/util/hash_mix.h"

namespace consentdb::consent {

bool FaultPlan::empty() const {
  if (!defaults.faultless()) return false;
  for (const auto& [owner, faults] : per_peer) {
    if (!faults.faultless()) return false;
  }
  return true;
}

const PeerFaults& FaultPlan::For(const std::string& owner) const {
  auto it = per_peer.find(owner);
  return it != per_peer.end() ? it->second : defaults;
}

FaultyOracle::FaultyOracle(ProbeOracle& backing, const VariablePool& pool,
                           FaultPlan plan, Clock* clock)
    : backing_(backing), pool_(pool), plan_(std::move(plan)), clock_(clock) {}

ProbeAttempt FaultyOracle::TryProbe(VarId x) {
  MutexLock lock(mu_);
  ++stats_.attempts;
  const PeerFaults& faults = plan_.For(pool_.owner(x));
  if (clock_ != nullptr && faults.latency_nanos > 0) {
    clock_->SleepFor(faults.latency_nanos);
  }
  if (faults.permanently_unavailable ||
      crashed_.count(pool_.owner(x)) > 0) {
    ++stats_.unavailable_faults;
    return ProbeAttempt::Faulted(ProbeFault::kUnavailable);
  }
  // The fault-schedule index: how many attempts this variable has seen.
  // The decision hashes (seed, variable, index), so it does not depend on
  // when other variables were probed or which thread got here first.
  const size_t attempt = attempts_[x]++;
  if (faults.transient_failure_prob > 0.0 &&
      UnitUniformHash(plan_.seed, x, attempt) < faults.transient_failure_prob) {
    ++stats_.transient_faults;
    return ProbeAttempt::Faulted(ProbeFault::kTransient);
  }
  bool answer = backing_.Probe(x);
  ++stats_.successes;
  if (faults.crash_after_answers > 0) {
    size_t& answered = peer_answers_[pool_.owner(x)];
    if (++answered >= faults.crash_after_answers) {
      crashed_.insert(pool_.owner(x));
      stats_.crashed_peers = crashed_.size();
    }
  }
  return ProbeAttempt::Answered(answer);
}

size_t FaultyOracle::probe_count() const {
  MutexLock lock(mu_);
  return static_cast<size_t>(stats_.successes);
}

FaultyOracle::Stats FaultyOracle::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

size_t FaultyOracle::attempts_for(VarId x) const {
  MutexLock lock(mu_);
  auto it = attempts_.find(x);
  return it != attempts_.end() ? it->second : 0;
}

}  // namespace consentdb::consent
