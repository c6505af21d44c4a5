// File-system abstraction for every durability path in ConsentDB.
//
// All code that persists state (WAL, snapshots, checkpoints) opens files
// through an Env rather than touching <fstream>/<cstdio> directly — the
// `raw-file-io` lint rule enforces this. Two implementations exist:
//
//   * Env::Default() — the real (POSIX) filesystem, used by the shell and
//     by production deployments.
//   * CrashingEnv    — an in-memory filesystem that models the durability
//     semantics of a real disk (appended-but-unsynced data lives in a
//     "page cache" until Sync) and can inject a crash at the Nth append or
//     sync, optionally tearing the fatal write. The crash-recovery property
//     harness runs entirely on it.
//
// The WritableFile contract mirrors a POSIX fd: Append buffers, Sync makes
// everything appended so far durable, Close flushes but promises nothing
// about durability. Readers see the current process view (buffered writes
// included), exactly like read() against the page cache.

#ifndef CONSENTDB_UTIL_IO_H_
#define CONSENTDB_UTIL_IO_H_

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "consentdb/util/result.h"
#include "consentdb/util/status.h"
#include "consentdb/util/thread_annotations.h"

namespace consentdb {

// An append-only file handle. Not thread-safe; callers (WalWriter) serialize.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  // Buffers `data` at the end of the file (visible to readers immediately,
  // durable only after Sync).
  [[nodiscard]] virtual Status Append(std::string_view data) = 0;

  // Makes everything appended so far durable (fsync).
  [[nodiscard]] virtual Status Sync() = 0;

  // Flushes and closes the handle. No durability guarantee beyond the last
  // Sync. Idempotent.
  [[nodiscard]] virtual Status Close() = 0;
};

// The filesystem interface. Implementations are thread-safe.
class Env {
 public:
  virtual ~Env() = default;

  // Opens `path` for writing; `append` keeps existing content, otherwise the
  // file is truncated. Creates the file if missing.
  [[nodiscard]] virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool append) = 0;

  // Whole-file read; NotFound if the file does not exist.
  [[nodiscard]] virtual Result<std::string> ReadFileToString(
      const std::string& path) = 0;

  virtual bool FileExists(const std::string& path) = 0;

  // Atomically replaces `to` with `from` (rename(2) semantics).
  [[nodiscard]] virtual Status RenameFile(const std::string& from,
                                          const std::string& to) = 0;

  // Removes `path`; NotFound if it does not exist.
  [[nodiscard]] virtual Status RemoveFile(const std::string& path) = 0;

  // Convenience: write + optional Sync + Close in one call.
  [[nodiscard]] Status WriteStringToFile(const std::string& path,
                                         std::string_view data, bool sync);

  // Crash-safe full-file replace: writes `data` to `<path>.tmp`, fsyncs it
  // and renames it over `path`, so a crash at any point leaves `path`
  // holding either its old content or `data`, never a torn mix.
  [[nodiscard]] Status WriteFileAtomically(const std::string& path,
                                           std::string_view data);

  // The process-wide POSIX environment.
  static Env* Default();
};

// Thrown by CrashingEnv when an injected crash point fires: the simulated
// process is dead mid-write. Tests and benches catch it at the session
// boundary, call CrashingEnv::Restart() and recover. Deliberately an
// exception rather than a Status — a crash does not return to the caller,
// it unwinds the whole probe loop, exactly like a real kill would end it.
class CrashInjected : public std::runtime_error {
 public:
  explicit CrashInjected(const std::string& what) : std::runtime_error(what) {}
};

// Where and how CrashingEnv kills the process. Counts are 1-based and
// env-wide (across all files); 0 disables that trigger.
struct CrashPlan {
  // Crash on the Nth Append; `torn_bytes` of the fatal append still reach
  // the page cache (a torn write).
  uint64_t crash_at_append = 0;
  // Crash on the Nth Sync; the sync does NOT take effect.
  uint64_t crash_at_sync = 0;
  // Bytes of the fatal append that survive in the page cache (kill) or, for
  // power_loss, bytes of *all* unsynced data that still reach the platter.
  uint64_t torn_bytes = 0;
  // false: process kill — the page cache survives, so every append before
  //        the fatal one reaches the disk. true: power loss — only synced
  //        data survives (plus `torn_bytes` of the unsynced tail).
  bool power_loss = false;
};

// In-memory Env with explicit durable/pending split per file and crash
// injection. After a crash fires every further operation (on the env or on
// any open handle) throws CrashInjected — a dead process cannot do I/O —
// until Restart() simulates reboot + reopen.
class CrashingEnv : public Env {
 public:
  CrashingEnv() = default;
  explicit CrashingEnv(CrashPlan plan) : plan_(plan) {}

  // Installs a new plan and re-arms the triggers (operation counts reset).
  void set_plan(CrashPlan plan) EXCLUDES(mu_);

  // Simulates reboot: applies the crash semantics (kill keeps the page
  // cache, power loss drops unsynced data), clears the crashed flag and
  // invalidates all pre-crash handles. Also valid without a prior crash, in
  // which case it models a clean process restart (all writes survive).
  void Restart() EXCLUDES(mu_);

  bool crashed() const EXCLUDES(mu_);
  uint64_t num_appends() const EXCLUDES(mu_);
  uint64_t num_syncs() const EXCLUDES(mu_);

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool append) override EXCLUDES(mu_);
  Result<std::string> ReadFileToString(const std::string& path) override
      EXCLUDES(mu_);
  bool FileExists(const std::string& path) override EXCLUDES(mu_);
  Status RenameFile(const std::string& from, const std::string& to) override
      EXCLUDES(mu_);
  Status RemoveFile(const std::string& path) override EXCLUDES(mu_);

  // Handle entry points (used by the WritableFile objects this env hands
  // out, not by applications); `generation` stamps the handle's epoch so
  // stale handles from before a Restart() fail instead of resurrecting.
  [[nodiscard]] Status DoAppend(const std::string& path, uint64_t generation,
                                std::string_view data) EXCLUDES(mu_);
  [[nodiscard]] Status DoSync(const std::string& path, uint64_t generation)
      EXCLUDES(mu_);

 private:
  struct FileState {
    std::string durable;  // survives power loss
    std::string pending;  // in the page cache: survives a kill, not a cut cord
  };

  void CrashLocked(const std::string& what) REQUIRES(mu_);
  void ThrowIfCrashedLocked() const REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<std::string, FileState> files_ GUARDED_BY(mu_);
  CrashPlan plan_ GUARDED_BY(mu_);
  uint64_t appends_ GUARDED_BY(mu_) = 0;
  uint64_t syncs_ GUARDED_BY(mu_) = 0;
  uint64_t generation_ GUARDED_BY(mu_) = 0;
  bool crashed_ GUARDED_BY(mu_) = false;
  bool crash_was_power_loss_ GUARDED_BY(mu_) = false;
  // Bytes of pending data (per file) that survive the pending crash; filled
  // at crash time, applied by Restart().
  std::map<std::string, uint64_t> surviving_pending_ GUARDED_BY(mu_);
};

}  // namespace consentdb

#endif  // CONSENTDB_UTIL_IO_H_
