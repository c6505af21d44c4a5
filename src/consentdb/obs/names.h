// Canonical metric and span names.
//
// Every instrument name in ConsentDB follows the dotted lower-case
// convention `[a-z0-9_.]+` (subsystem first: "session.probes",
// "wal.fsync", "cache.plan.hit"). The consentdb-lint `metric-name` rule
// rejects any name literal at an obs call site that breaks the convention —
// this header is the single file exempt from that rule, so any future name
// that genuinely needs to bend the convention must be declared here, next
// to the documentation explaining why.
//
// Span names additionally must be **static-duration** strings: SpanRecord
// and the flight-recorder ring store the `const char*` itself (never a
// copy), so a dynamically built name would dangle. Using these constants
// satisfies that contract by construction.

#ifndef CONSENTDB_OBS_NAMES_H_
#define CONSENTDB_OBS_NAMES_H_

namespace consentdb::obs::names {

// --- Span names (causal timeline nodes, outermost first) --------------------

// One full consent session: Decide()/RunPrepared() entry to SessionReport.
inline constexpr char kSpanSessionRun[] = "session.run";
// Strategy construction + selection inside AsyncConsentSession::Create.
inline constexpr char kSpanSessionSelect[] = "session.select";
// One probe decision: simplify -> rescore -> pick variable -> ask owner.
inline constexpr char kSpanSessionProbe[] = "session.probe";
// A RetryPolicy backoff wait between probe attempts.
inline constexpr char kSpanRetryWait[] = "retry.wait";
// SessionEngine units: plan resolution, provenance preparation, one
// engine-run session.
inline constexpr char kSpanEnginePlan[] = "engine.plan";
inline constexpr char kSpanEnginePrepare[] = "engine.prepare";
inline constexpr char kSpanEngineSession[] = "engine.session";
// WAL I/O: one record append, one fsync (group commit), one compaction.
inline constexpr char kSpanWalAppend[] = "wal.append";
inline constexpr char kSpanWalFsync[] = "wal.fsync";
inline constexpr char kSpanWalCompact[] = "wal.compact";
// One ProbeServer poll iteration that did work (accepts, frames, timers).
inline constexpr char kSpanServerPoll[] = "server.poll";

// --- Flight-recorder instant events -----------------------------------------

inline constexpr char kEventCrashInjected[] = "engine.crash_injected";
inline constexpr char kEventCheckpoint[] = "engine.checkpoint";

// --- Span argument keys ------------------------------------------------------

inline constexpr char kArgProbes[] = "probes";
inline constexpr char kArgBytes[] = "bytes";
inline constexpr char kArgRecords[] = "records";
inline constexpr char kArgAttempt[] = "attempt";
inline constexpr char kArgVariable[] = "variable";

}  // namespace consentdb::obs::names

#endif  // CONSENTDB_OBS_NAMES_H_
