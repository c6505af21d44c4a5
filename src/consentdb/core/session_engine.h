// SessionEngine: a server-shaped, multi-threaded front end for consent
// sessions. Many sessions run concurrently against one SharedDatabase,
// sharing three pieces of state that are expensive or wasteful to rebuild
// per session:
//
//   * a plan cache   — SQL text -> parsed + optimized PlanPtr, so repeated
//     queries skip the parser and the rewrite pass;
//   * a provenance cache — plan fingerprint -> PreparedSession (annotated
//     output tuples + DNF provenance profile), stamped with the database
//     version it was built at.
//     Provenance-annotated evaluation is the dominant per-session cost and
//     is immutable until the database changes (cf. provenance
//     materialization à la ProvSQL), so thousands of sessions asking the
//     same query over one snapshot pay for it once. Any database mutation
//     bumps SharedDatabase::version() and thereby invalidates every entry:
//     the next session over a fingerprint finds a stale stamp, counts a
//     miss and overwrites the entry in place, so a server taking writes
//     holds one entry per query, not one per version;
//   * a consent ledger — a variable probed by any in-flight session is
//     answered from the ledger for all others, so the engine never asks a
//     peer the same question twice (consent answers are per-variable facts,
//     not per-session ones).
//
// Caching never changes what a session reports: a cached PreparedSession is
// byte-for-byte the one ConsentManager would rebuild (tested), probing
// state is always per-session, and the ledger returns exactly the answers
// the oracle would (oracles must answer consistently). Running N sessions
// through the engine therefore yields reports identical to running them
// sequentially through ConsentManager.
//
// Thread-safety contract: the SharedDatabase (content and variable pool)
// must not be mutated while sessions are in flight. Mutate between
// RunAll/Submit waves; the version bump then retires stale cache entries
// automatically.

#ifndef CONSENTDB_CORE_SESSION_ENGINE_H_
#define CONSENTDB_CORE_SESSION_ENGINE_H_

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "consentdb/consent/oracle.h"
#include "consentdb/consent/wal.h"
#include "consentdb/core/checkpoint.h"
#include "consentdb/core/consent_manager.h"
#include "consentdb/obs/flight_recorder.h"
#include "consentdb/util/io.h"
#include "consentdb/util/lru_cache.h"
#include "consentdb/util/thread_annotations.h"
#include "consentdb/util/thread_pool.h"

namespace consentdb::core {

struct EngineOptions {
  // Worker threads; 0 = hardware concurrency (at least 1).
  size_t num_threads = 0;
  size_t plan_cache_capacity = 256;
  size_t provenance_cache_capacity = 128;
  // Share one consent ledger across all sessions of this engine. Turn off
  // to give every request raw, unmemoized access to its own oracle.
  bool share_consent_ledger = true;
  // Shards of the shared consent ledger, hash-partitioned by variable id
  // (see consent/sharded_ledger.h). 1 — the default — is the classic
  // single-ledger engine, byte-identical to every prior release; > 1
  // spreads probe recording and journal fsyncs across that many
  // independently locked shards and requires share_consent_ledger. Session
  // reports are byte-identical at any shard count (the `ctest -L sharding`
  // differential suite holds this).
  size_t ledger_shards = 1;
  // Durability: journal every answer the shared ledger records to this WAL
  // (see consent/wal.h). Requires share_consent_ledger — an unshared probe
  // path never reaches the ledger, so nothing would be journaled — and
  // ledger_shards == 1 (a sharded ledger journals per shard; use
  // shard_wals). The WAL must outlive the engine.
  consent::WalWriter* wal = nullptr;
  // Per-shard journals for a sharded ledger: empty, or exactly
  // ledger_shards writers in shard-id order (OpenShardWalSet::pointers()).
  // Mutually exclusive with `wal`; the writers must outlive the engine.
  std::vector<consent::WalWriter*> shard_wals;
  // With a WAL (or shard WAL set) attached: compact the journal into its
  // snapshot sidecar every this-many journaled answers (0 = never
  // auto-compact; sharded ledgers count per shard).
  uint64_t wal_compact_every_records = 0;
  // Flight-recorder ring size (0 disables). The engine keeps the last this-
  // many spans/events for post-mortem: the ring is dumped to
  // `<path>.flight.json` by SaveCheckpoint and captured in
  // last_flight_dump() when a session dies to an injected crash. When
  // `session.spans` is attached the engine mirrors every finished span into
  // the ring; without a span collector only engine lifecycle events
  // (checkpoint, crash) are recorded. Recording costs a handful of relaxed
  // atomic stores and happens only on those events — the null-sink default
  // paths stay untouched.
  size_t flight_recorder_capacity = 1024;
  // Base options for every session. `tracer` must stay null here — a
  // tracer is per-session state; attach per-request tracers through
  // SessionRequest instead (`ledger` likewise: the engine wires its own
  // shared ledger). `metrics` may be set: the registry is thread-safe and
  // additionally receives the engine.* instruments below.
  SessionOptions session;
};

struct SessionRequest {
  // The query: SQL (resolved through the plan cache) or a prebuilt plan
  // (takes precedence; bypasses the plan cache, not the provenance cache).
  std::string sql;
  query::PlanPtr plan;
  // OPT-PEER-PROBE-SINGLE target. Targeted provenance depends on the tuple,
  // so single-tuple sessions bypass the provenance cache.
  std::optional<relational::Tuple> single;
  // Required. With the shared ledger enabled one oracle may serve many
  // concurrent requests (ledger access is serialized); with it disabled,
  // concurrent requests need distinct or thread-safe oracles.
  consent::ProbeOracle* oracle = nullptr;
  // Optional per-request probe tracer.
  obs::SessionTracer* tracer = nullptr;
};

// Metrics recorded into EngineOptions::session.metrics (when attached), on
// top of the per-session session.*/eval.*/strategy.* instruments:
//   engine.sessions            counter  sessions executed
//   cache.plan.hit/.miss       counters (stale-version hits count as miss)
//   cache.prov.hit/.miss       counters (stale-version hits count as miss)
//   engine.ledger.hit          counter  probes answered without an oracle
//   engine.queue_depth         gauge    tasks waiting for a worker
//   engine.sessions_in_flight  gauge    sessions currently executing
// The registry derives cache.plan.hit_rate / cache.prov.hit_rate lines in
// its exports from the hit/miss pairs.
class SessionEngine {
 public:
  explicit SessionEngine(const consent::SharedDatabase& sdb,
                         EngineOptions options = {});

  // Detaches the flight recorder from the caller-owned span collector (the
  // collector outlives the engine and must not keep a dangling pointer),
  // then joins the workers after draining every submitted session.
  ~SessionEngine();

  // Enqueues one session; the future carries its report (or error).
  [[nodiscard]] std::future<Result<SessionReport>> Submit(
      SessionRequest request);

  // Submits every request and waits; results are in request order.
  std::vector<Result<SessionReport>> RunAll(
      std::vector<SessionRequest> requests);

  struct CacheStats {
    uint64_t plan_hits = 0;
    uint64_t plan_misses = 0;
    uint64_t provenance_hits = 0;
    uint64_t provenance_misses = 0;
    size_t plan_entries = 0;
    size_t provenance_entries = 0;
  };
  CacheStats cache_stats() const;

  // --- Durability / crash recovery -----------------------------------------

  // Writes a checkpoint from which a fresh engine can resume: the database
  // snapshot, every ledger answer, and the spec of every in-flight
  // SQL-submitted session (plan-only requests are not resumable and are
  // skipped). Call from outside the worker pool; sessions may keep running
  // meanwhile — the checkpoint is simply a consistent cut of the ledger.
  [[nodiscard]] Status SaveCheckpoint(Env* env, const std::string& path);

  // Seeds the shared ledger with answers recovered from a checkpoint or a
  // WAL replay (ids must already be remapped to this database's pool; see
  // ReadCheckpoint). Observationally silent: no metrics, no oracle calls.
  [[nodiscard]] Status RestoreLedger(
      const std::vector<std::pair<provenance::VarId, bool>>& answers);

  // Specs of the in-flight resumable sessions, registration order.
  std::vector<CheckpointedSession> pending_sessions() const EXCLUDES(chk_mu_);

  // The engine's flight recorder (null when disabled via
  // EngineOptions::flight_recorder_capacity = 0). Safe to dump at any time.
  obs::FlightRecorder* flight_recorder() const { return flight_.get(); }

  // The flight-recorder JSON captured when a session last died to an
  // injected crash (empty if that never happened). The crashing env rejects
  // all I/O post-crash, so the dump is stashed here instead of on disk.
  std::string last_flight_dump() const EXCLUDES(flight_mu_);

  const consent::ConsentLedger& ledger() const { return *ledger_; }

  size_t num_threads() const { return pool_.num_threads(); }
  size_t queue_depth() const { return pool_.queue_depth(); }
  size_t sessions_in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

  // --- Network serving hooks (used by net::ProbeServer) --------------------

  // Resolves a request through the plan and provenance caches without
  // running a probe loop: the prepared session the server's async path
  // drives event by event. `request.oracle` may stay null — no probing
  // happens here. `single_csv`, when set, names the OPT-PEER-PROBE-SINGLE
  // target as a snapshot row, parsed against the output schema of the plan
  // the plan cache resolves; `request.single` must stay unset.
  [[nodiscard]] Result<std::shared_ptr<const PreparedSession>> PrepareForServe(
      const SessionRequest& request,
      const std::optional<std::string>& single_csv = std::nullopt);

  // The shared consent ledger, mutable: async server sessions record
  // network answers through it (journaling included) and resumed sessions
  // replay from it. Null when share_consent_ledger is off.
  consent::ConsentLedger* shared_ledger() {
    return options_.share_consent_ledger ? ledger_.get() : nullptr;
  }

  // The base options every engine session runs with (metrics, limits,
  // clock); the server derives its async-session options from these.
  const SessionOptions& base_session_options() const {
    return options_.session;
  }

  // Registers a parked network session so SaveCheckpoint captures it like
  // any in-flight Submit; returns the id for ReleasePendingSession once the
  // session's report exists (or it is abandoned).
  uint64_t RegisterPendingSession(CheckpointedSession spec) EXCLUDES(chk_mu_);
  void ReleasePendingSession(uint64_t id) EXCLUDES(chk_mu_);

  // Graceful drain: every later Submit fails fast with kUnavailable while
  // sessions already queued run to completion (the destructor still joins
  // them). Irreversible.
  void BeginDrain() { draining_.store(true, std::memory_order_relaxed); }
  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  // Drops every cached plan and prepared session. Only needed by tests and
  // memory-pressure handling: database mutations invalidate automatically
  // through the version stamped on every entry.
  void InvalidateCaches();

  const ConsentManager& manager() const { return manager_; }

 private:
  struct PlanEntry {
    query::PlanPtr plan;
    query::PlanPtr effective;
    uint64_t version = 0;
  };
  struct ProvEntry {
    std::shared_ptr<const PreparedSession> prepared;
    uint64_t version = 0;
  };

  [[nodiscard]] Result<SessionReport> RunOne(const SessionRequest& request);
  [[nodiscard]] Result<PlanEntry> ResolvePlan(const SessionRequest& request,
                                const SessionOptions& options,
                                uint64_t version);
  [[nodiscard]] Result<std::shared_ptr<const PreparedSession>> ResolvePrepared(
      const std::optional<relational::Tuple>& single, const PlanEntry& entry,
      const SessionOptions& options, uint64_t version);

  const consent::SharedDatabase& sdb_;
  ConsentManager manager_;
  EngineOptions options_;
  LruCache<std::string, std::shared_ptr<const PlanEntry>> plan_cache_;
  LruCache<uint64_t, ProvEntry> prov_cache_;  // keyed by plan fingerprint
  // Plain ConsentLedger (ledger_shards == 1) or ShardedConsentLedger,
  // chosen once at construction; never null.
  std::unique_ptr<consent::ConsentLedger> ledger_;
  // In-flight resumable sessions, keyed by a registration id: entered at
  // Submit, erased when the session's RunOne returns (even on error). What
  // a checkpoint captures mid-crash is exactly the sessions whose futures
  // never resolved.
  mutable Mutex chk_mu_;
  std::map<uint64_t, CheckpointedSession> pending_ GUARDED_BY(chk_mu_);
  uint64_t next_pending_id_ GUARDED_BY(chk_mu_) = 0;
  std::unique_ptr<obs::FlightRecorder> flight_;
  mutable Mutex flight_mu_;
  std::string last_flight_dump_ GUARDED_BY(flight_mu_);
  std::atomic<uint64_t> plan_hits_{0};
  std::atomic<uint64_t> plan_misses_{0};
  std::atomic<uint64_t> prov_hits_{0};
  std::atomic<uint64_t> prov_misses_{0};
  std::atomic<size_t> in_flight_{0};
  std::atomic<bool> draining_{false};
  // Declared last: destroyed first, so the workers drain and join while
  // the caches, ledger and manager above are still alive.
  ThreadPool pool_;
};

}  // namespace consentdb::core

#endif  // CONSENTDB_CORE_SESSION_ENGINE_H_
