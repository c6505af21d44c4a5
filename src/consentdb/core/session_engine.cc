#include "consentdb/core/session_engine.h"

#include <thread>

#include "consentdb/consent/sharded_ledger.h"
#include "consentdb/consent/snapshot.h"
#include "consentdb/obs/names.h"
#include "consentdb/query/optimize.h"
#include "consentdb/util/check.h"

namespace consentdb::core {

using consent::ProbeOracle;
using provenance::VarId;
using query::PlanPtr;

namespace {

size_t ResolveThreads(size_t requested) {
  if (requested > 0) return requested;
  size_t hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace

SessionEngine::SessionEngine(const consent::SharedDatabase& sdb,
                             EngineOptions options)
    : sdb_(sdb),
      manager_(sdb),
      options_(std::move(options)),
      plan_cache_(options_.plan_cache_capacity),
      prov_cache_(options_.provenance_cache_capacity),
      pool_(ResolveThreads(options_.num_threads)) {
  CONSENTDB_CHECK(options_.session.tracer == nullptr,
                  "EngineOptions::session.tracer must be null; use "
                  "SessionRequest::tracer for per-session tracing");
  CONSENTDB_CHECK(options_.session.ledger == nullptr,
                  "EngineOptions::session.ledger must be null; the engine "
                  "wires its own shared ledger");
  CONSENTDB_CHECK(options_.ledger_shards > 0,
                  "EngineOptions::ledger_shards must be at least 1");
  if (options_.wal != nullptr || !options_.shard_wals.empty()) {
    CONSENTDB_CHECK(options_.share_consent_ledger,
                    "journaling requires share_consent_ledger: an unshared "
                    "probe path never reaches the ledger, so nothing would "
                    "be journaled");
  }
  if (options_.ledger_shards > 1) {
    CONSENTDB_CHECK(options_.share_consent_ledger,
                    "EngineOptions::ledger_shards > 1 requires "
                    "share_consent_ledger: sharding partitions the shared "
                    "ledger, which an unshared probe path never touches");
    CONSENTDB_CHECK(options_.wal == nullptr,
                    "a sharded ledger journals per shard: use "
                    "EngineOptions::shard_wals, not wal");
    auto sharded = std::make_unique<consent::ShardedConsentLedger>(
        options_.ledger_shards);
    if (!options_.shard_wals.empty()) {
      CONSENTDB_CHECK(options_.shard_wals.size() == options_.ledger_shards,
                      "EngineOptions::shard_wals must carry exactly one wal "
                      "per ledger shard");
      sharded->AttachShardJournals(options_.shard_wals,
                                   options_.wal_compact_every_records);
    }
    ledger_ = std::move(sharded);
  } else {
    // ledger_shards == 1: the classic single-ledger path. A one-member
    // shard wal set is accepted so callers can drive every shard count
    // through OpenShardWalSet uniformly.
    CONSENTDB_CHECK(options_.shard_wals.empty() ||
                        options_.shard_wals.size() == 1,
                    "EngineOptions::shard_wals must carry exactly one wal "
                    "per ledger shard");
    CONSENTDB_CHECK(options_.wal == nullptr || options_.shard_wals.empty(),
                    "EngineOptions::wal and shard_wals are mutually "
                    "exclusive");
    ledger_ = std::make_unique<consent::ConsentLedger>();
    consent::WalWriter* wal =
        options_.shard_wals.empty() ? options_.wal : options_.shard_wals[0];
    if (wal != nullptr) {
      ledger_->AttachJournal(wal, options_.wal_compact_every_records);
    }
  }
  if (options_.flight_recorder_capacity > 0) {
    flight_ = std::make_unique<obs::FlightRecorder>(
        options_.flight_recorder_capacity);
    if (options_.session.spans != nullptr) {
      // Mirror every finished span into the ring so a post-mortem dump
      // shows the run-up, not just the lifecycle events.
      options_.session.spans->set_flight_recorder(flight_.get());
    }
  }
}

SessionEngine::~SessionEngine() {
  // The collector is caller-owned and outlives the engine; detach our ring
  // before it is destroyed so later spans don't hit freed memory. When two
  // engines shared one collector, last attach won — only the engine whose
  // recorder is still attached clears it. The worker pool (destroyed first,
  // see member order) is still draining here, so in-flight sessions simply
  // stop mirroring; threads recording on the collector after the engine is
  // gone see a null recorder.
  if (flight_ != nullptr && options_.session.spans != nullptr &&
      options_.session.spans->flight_recorder() == flight_.get()) {
    options_.session.spans->set_flight_recorder(nullptr);
  }
}

Result<SessionEngine::PlanEntry> SessionEngine::ResolvePlan(
    const SessionRequest& request, const SessionOptions& options,
    uint64_t version) {
  obs::MetricsRegistry* metrics = options.metrics;
  obs::Span span(options.spans, obs::names::kSpanEnginePlan);
  PlanEntry entry;
  entry.version = version;
  const bool cacheable = request.plan == nullptr;
  if (request.plan != nullptr) {
    entry.plan = request.plan;
  } else {
    if (request.sql.empty()) {
      return Status::InvalidArgument("SessionRequest carries neither sql "
                                     "nor a plan");
    }
    std::optional<std::shared_ptr<const PlanEntry>> cached =
        plan_cache_.Get(request.sql);
    if (cached.has_value() && (*cached)->version == version) {
      plan_hits_.fetch_add(1, std::memory_order_relaxed);
      obs::Increment(metrics, "cache.plan.hit");
      return **cached;
    }
    plan_misses_.fetch_add(1, std::memory_order_relaxed);
    obs::Increment(metrics, "cache.plan.miss");
    CONSENTDB_ASSIGN_OR_RETURN(entry.plan, query::ParseQuery(request.sql));
  }
  {
    obs::ScopedTimer timer(obs::MaybeHistogram(metrics, "query.optimize_ns"));
    CONSENTDB_ASSIGN_OR_RETURN(entry.effective,
                               query::Optimize(entry.plan, sdb_.database()));
  }
  if (cacheable) {
    plan_cache_.Put(request.sql, std::make_shared<const PlanEntry>(entry));
  }
  return entry;
}

Result<std::shared_ptr<const PreparedSession>> SessionEngine::ResolvePrepared(
    const std::optional<relational::Tuple>& single, const PlanEntry& entry,
    const SessionOptions& options, uint64_t version) {
  obs::MetricsRegistry* metrics = options.metrics;
  obs::Span span(options.spans, obs::names::kSpanEnginePrepare);
  if (single.has_value()) {
    // Targeted provenance depends on the requested tuple; not cached.
    CONSENTDB_ASSIGN_OR_RETURN(
        PreparedSession prepared,
        manager_.PrepareResolved(entry.plan, entry.effective, single,
                                 options));
    return std::make_shared<const PreparedSession>(std::move(prepared));
  }
  const uint64_t fingerprint = entry.plan->Fingerprint();
  std::optional<ProvEntry> cached = prov_cache_.Get(fingerprint);
  if (cached.has_value() && cached->version == version) {
    prov_hits_.fetch_add(1, std::memory_order_relaxed);
    obs::Increment(metrics, "cache.prov.hit");
    return cached->prepared;
  }
  prov_misses_.fetch_add(1, std::memory_order_relaxed);
  obs::Increment(metrics, "cache.prov.miss");
  CONSENTDB_ASSIGN_OR_RETURN(
      PreparedSession prepared,
      manager_.PrepareResolved(entry.plan, entry.effective, std::nullopt,
                               options));
  auto shared = std::make_shared<const PreparedSession>(std::move(prepared));
  prov_cache_.Put(fingerprint, ProvEntry{shared, version});
  return shared;
}

Result<SessionReport> SessionEngine::RunOne(const SessionRequest& request) {
  if (request.oracle == nullptr) {
    return Status::InvalidArgument("SessionRequest carries no oracle");
  }
  SessionOptions options = options_.session;
  options.tracer = request.tracer;
  obs::MetricsRegistry* metrics = options.metrics;
  obs::Increment(metrics, "engine.sessions");
  obs::Span span(options.spans, obs::names::kSpanEngineSession);

  // One consistent database version per session; a mutation between the
  // reads would be a contract violation (see the header), not a race the
  // engine needs to survive.
  const uint64_t version = sdb_.version();
  CONSENTDB_ASSIGN_OR_RETURN(PlanEntry entry,
                             ResolvePlan(request, options, version));
  CONSENTDB_ASSIGN_OR_RETURN(
      std::shared_ptr<const PreparedSession> prepared,
      ResolvePrepared(request.single, entry, options, version));

  if (options_.share_consent_ledger) {
    consent::LedgerOracle oracle(*ledger_, *request.oracle);
    Result<SessionReport> report =
        manager_.RunPrepared(*prepared, oracle, options);
    obs::Increment(metrics, "engine.ledger.hit", oracle.ledger_hits());
    return report;
  }
  return manager_.RunPrepared(*prepared, *request.oracle, options);
}

std::future<Result<SessionReport>> SessionEngine::Submit(
    SessionRequest request) {
  obs::MetricsRegistry* metrics = options_.session.metrics;
  auto promise = std::make_shared<std::promise<Result<SessionReport>>>();
  std::future<Result<SessionReport>> future = promise->get_future();
  if (draining()) {
    // Drain refuses new admissions up front — nothing is registered, so the
    // refused session can never appear in a checkpoint.
    promise->set_value(Status::Unavailable("engine is draining"));
    return future;
  }
  // Register resumable (SQL-submitted) sessions before they can start: a
  // checkpoint taken at any instant lists every session whose report has
  // not been produced yet. Plan-only requests have no serializable spec.
  uint64_t pending_id = 0;
  bool registered = false;
  if (!request.sql.empty() && request.plan == nullptr) {
    CheckpointedSession spec;
    spec.sql = request.sql;
    if (request.single.has_value()) {
      spec.single_csv = consent::FormatSnapshotRow(*request.single);
    }
    MutexLock lock(chk_mu_);
    pending_id = next_pending_id_++;
    pending_.emplace(pending_id, std::move(spec));
    registered = true;
  }
  // Audited for -Wthread-safety: the queue-depth and in-flight gauges are
  // sampled outside any engine lock on purpose. in_flight_ is an atomic,
  // pool_.queue_depth() locks internally, and Gauge::Set is last-write-wins
  // — concurrent writers can interleave stale samples, which is benign for
  // an instantaneous telemetry gauge (never read back by the engine).
  pool_.Submit([this, promise, request = std::move(request), metrics,
                pending_id, registered] {
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    obs::SetGauge(metrics, "engine.sessions_in_flight",
                  static_cast<double>(sessions_in_flight()));
    obs::SetGauge(metrics, "engine.queue_depth",
                  static_cast<double>(pool_.queue_depth()));
    Result<SessionReport> result = Status::Internal("session never ran");
    try {
      result = RunOne(request);
    } catch (const CrashInjected&) {
      // The simulated process died mid-session (journaling WAL on a
      // CrashingEnv). Deregistration is deliberately skipped — the session
      // stays in the checkpoint, exactly as a real kill would leave it —
      // and the flight ring is snapshotted for post-mortem now, because the
      // crashed env rejects all further I/O. The exception reaches the
      // caller through the future instead of unwinding the worker thread.
      if (flight_ != nullptr) {
        flight_->RecordEvent(obs::names::kEventCrashInjected);
        MutexLock lock(flight_mu_);
        last_flight_dump_ = flight_->DumpJson();
      }
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
      obs::SetGauge(metrics, "engine.sessions_in_flight",
                    static_cast<double>(sessions_in_flight()));
      promise->set_exception(std::current_exception());
      return;
    }
    // Deregister once the report exists (even an error report): the session
    // no longer needs resuming. A crash anywhere before this line leaves it
    // in the checkpoint.
    if (registered) {
      MutexLock lock(chk_mu_);
      pending_.erase(pending_id);
    }
    // The in-flight count drops before the future is fulfilled, so a
    // caller returning from get() never sees its own session in flight.
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    obs::SetGauge(metrics, "engine.sessions_in_flight",
                  static_cast<double>(sessions_in_flight()));
    promise->set_value(std::move(result));
  });
  obs::SetGauge(metrics, "engine.queue_depth",
                static_cast<double>(pool_.queue_depth()));
  return future;
}

std::vector<Result<SessionReport>> SessionEngine::RunAll(
    std::vector<SessionRequest> requests) {
  std::vector<std::future<Result<SessionReport>>> futures;
  futures.reserve(requests.size());
  for (SessionRequest& request : requests) {
    futures.push_back(Submit(std::move(request)));
  }
  std::vector<Result<SessionReport>> results;
  results.reserve(futures.size());
  for (std::future<Result<SessionReport>>& f : futures) {
    results.push_back(f.get());
  }
  return results;
}

SessionEngine::CacheStats SessionEngine::cache_stats() const {
  CacheStats stats;
  stats.plan_hits = plan_hits_.load(std::memory_order_relaxed);
  stats.plan_misses = plan_misses_.load(std::memory_order_relaxed);
  stats.provenance_hits = prov_hits_.load(std::memory_order_relaxed);
  stats.provenance_misses = prov_misses_.load(std::memory_order_relaxed);
  stats.plan_entries = plan_cache_.size();
  stats.provenance_entries = prov_cache_.size();
  return stats;
}

Status SessionEngine::SaveCheckpoint(Env* env, const std::string& path) {
  CONSENTDB_RETURN_IF_ERROR(WriteCheckpoint(env, path, sdb_,
                                            ledger_->Answers(),
                                            pending_sessions()));
  if (flight_ != nullptr) {
    // Pair every checkpoint with a flight dump: the ring at checkpoint time
    // is the run-up a post-mortem wants next to the recovered state. The
    // sidecar is diagnostic, not durability — no fsync.
    flight_->RecordEvent(obs::names::kEventCheckpoint);
    CONSENTDB_RETURN_IF_ERROR(env->WriteStringToFile(
        path + ".flight.json", flight_->DumpJson(), /*sync=*/false));
  }
  return Status::OK();
}

std::string SessionEngine::last_flight_dump() const {
  MutexLock lock(flight_mu_);
  return last_flight_dump_;
}

Status SessionEngine::RestoreLedger(
    const std::vector<std::pair<VarId, bool>>& answers) {
  for (const auto& [x, answer] : answers) {
    CONSENTDB_RETURN_IF_ERROR(ledger_->RestoreAnswer(x, answer));
  }
  return Status::OK();
}

std::vector<CheckpointedSession> SessionEngine::pending_sessions() const {
  MutexLock lock(chk_mu_);
  std::vector<CheckpointedSession> specs;
  specs.reserve(pending_.size());
  for (const auto& [id, spec] : pending_) {
    specs.push_back(spec);
  }
  return specs;
}

Result<std::shared_ptr<const PreparedSession>> SessionEngine::PrepareForServe(
    const SessionRequest& request,
    const std::optional<std::string>& single_csv) {
  CONSENTDB_CHECK(!request.single.has_value(),
                  "PrepareForServe takes the single-tuple target as row text");
  const SessionOptions& options = options_.session;
  const uint64_t version = sdb_.version();
  CONSENTDB_ASSIGN_OR_RETURN(PlanEntry entry,
                             ResolvePlan(request, options, version));
  std::optional<relational::Tuple> single;
  if (single_csv.has_value()) {
    CONSENTDB_ASSIGN_OR_RETURN(relational::Schema schema,
                               entry.plan->OutputSchema(sdb_.database()));
    CONSENTDB_ASSIGN_OR_RETURN(single,
                               consent::ParseSnapshotRow(*single_csv, schema));
  }
  return ResolvePrepared(single, entry, options, version);
}

uint64_t SessionEngine::RegisterPendingSession(CheckpointedSession spec) {
  MutexLock lock(chk_mu_);
  const uint64_t id = next_pending_id_++;
  pending_.emplace(id, std::move(spec));
  return id;
}

void SessionEngine::ReleasePendingSession(uint64_t id) {
  MutexLock lock(chk_mu_);
  pending_.erase(id);
}

void SessionEngine::InvalidateCaches() {
  plan_cache_.Clear();
  prov_cache_.Clear();
}

}  // namespace consentdb::core
