#include "consentdb/util/io.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include <sys/stat.h>
#include <unistd.h>

namespace consentdb {

namespace {

Status ErrnoStatus(const std::string& op, const std::string& path) {
  const std::string message = op + " " + path + ": " + std::strerror(errno);
  if (errno == ENOENT) return Status::NotFound(message);
  return Status::Internal(message);
}

// The one place in the tree that touches the real filesystem; everything
// else goes through Env so tests can swap in CrashingEnv.
class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  ~PosixWritableFile() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  Status Append(std::string_view data) override {
    if (file_ == nullptr) {
      return Status::FailedPrecondition("append to closed file: " + path_);
    }
    if (std::fwrite(data.data(), 1, data.size(), file_) != data.size()) {
      return ErrnoStatus("write", path_);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (file_ == nullptr) {
      return Status::FailedPrecondition("sync of closed file: " + path_);
    }
    if (std::fflush(file_) != 0) return ErrnoStatus("flush", path_);
    if (::fsync(::fileno(file_)) != 0) return ErrnoStatus("fsync", path_);
    return Status::OK();
  }

  Status Close() override {
    if (file_ == nullptr) return Status::OK();
    std::FILE* file = file_;
    file_ = nullptr;
    if (std::fclose(file) != 0) return ErrnoStatus("close", path_);
    return Status::OK();
  }

 private:
  std::FILE* file_;
  std::string path_;
};

class PosixEnv : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool append) override {
    std::FILE* file = std::fopen(path.c_str(), append ? "ab" : "wb");
    if (file == nullptr) return ErrnoStatus("open", path);
    return std::unique_ptr<WritableFile>(new PosixWritableFile(file, path));
  }

  Result<std::string> ReadFileToString(const std::string& path) override {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) return ErrnoStatus("open", path);
    std::string out;
    char buffer[1 << 16];
    size_t n;
    while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
      out.append(buffer, n);
    }
    const bool failed = std::ferror(file) != 0;
    std::fclose(file);
    if (failed) return Status::Internal("read " + path + " failed");
    return out;
  }

  bool FileExists(const std::string& path) override {
    struct ::stat st;
    return ::stat(path.c_str(), &st) == 0;
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (std::rename(from.c_str(), to.c_str()) != 0) {
      return ErrnoStatus("rename", from);
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (std::remove(path.c_str()) != 0) return ErrnoStatus("remove", path);
    return Status::OK();
  }
};

}  // namespace

Status Env::WriteStringToFile(const std::string& path, std::string_view data,
                              bool sync) {
  CONSENTDB_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                             NewWritableFile(path, /*append=*/false));
  CONSENTDB_RETURN_IF_ERROR(file->Append(data));
  if (sync) CONSENTDB_RETURN_IF_ERROR(file->Sync());
  return file->Close();
}

Status Env::WriteFileAtomically(const std::string& path,
                                std::string_view data) {
  const std::string tmp = path + ".tmp";
  CONSENTDB_RETURN_IF_ERROR(WriteStringToFile(tmp, data, /*sync=*/true));
  return RenameFile(tmp, path);
}

Env* Env::Default() {
  static PosixEnv* env = new PosixEnv;  // lint:allow naked-new
  return env;
}

// --- CrashingEnv -----------------------------------------------------------

namespace {

// Handle into a CrashingEnv file; all state lives in the env so Restart()
// can apply crash semantics uniformly.
class CrashingWritableFile : public WritableFile {
 public:
  CrashingWritableFile(CrashingEnv* env, std::string path, uint64_t generation)
      : env_(env), path_(std::move(path)), generation_(generation) {}

  Status Append(std::string_view data) override {
    return env_->DoAppend(path_, generation_, data);
  }
  Status Sync() override { return env_->DoSync(path_, generation_); }
  Status Close() override { return Status::OK(); }

 private:
  CrashingEnv* env_;
  std::string path_;
  uint64_t generation_;
};

}  // namespace

void CrashingEnv::set_plan(CrashPlan plan) {
  MutexLock lock(mu_);
  plan_ = plan;
  appends_ = 0;
  syncs_ = 0;
}

void CrashingEnv::Restart() {
  MutexLock lock(mu_);
  for (auto& [path, state] : files_) {
    if (crashed_ && crash_was_power_loss_) {
      // Power loss: unsynced data is gone, except the torn tail the platter
      // happened to absorb for the file being written.
      auto it = surviving_pending_.find(path);
      const uint64_t keep = it == surviving_pending_.end() ? 0 : it->second;
      state.durable +=
          state.pending.substr(0, std::min<uint64_t>(keep, state.pending.size()));
    } else {
      // Clean exit or process kill: the page cache reaches the disk.
      state.durable += state.pending;
    }
    state.pending.clear();
  }
  surviving_pending_.clear();
  crashed_ = false;
  crash_was_power_loss_ = false;
  ++generation_;  // pre-crash handles are dead
}

bool CrashingEnv::crashed() const {
  MutexLock lock(mu_);
  return crashed_;
}

uint64_t CrashingEnv::num_appends() const {
  MutexLock lock(mu_);
  return appends_;
}

uint64_t CrashingEnv::num_syncs() const {
  MutexLock lock(mu_);
  return syncs_;
}

void CrashingEnv::CrashLocked(const std::string& what) {
  crashed_ = true;
  crash_was_power_loss_ = plan_.power_loss;
  throw CrashInjected("injected crash: " + what);
}

void CrashingEnv::ThrowIfCrashedLocked() const {
  if (crashed_) {
    throw CrashInjected("I/O after crash (missing Restart()?)");
  }
}

Result<std::unique_ptr<WritableFile>> CrashingEnv::NewWritableFile(
    const std::string& path, bool append) {
  MutexLock lock(mu_);
  ThrowIfCrashedLocked();
  FileState& state = files_[path];
  if (!append) {
    state.durable.clear();
    state.pending.clear();
  }
  return std::unique_ptr<WritableFile>(
      new CrashingWritableFile(this, path, generation_));
}

Result<std::string> CrashingEnv::ReadFileToString(const std::string& path) {
  MutexLock lock(mu_);
  ThrowIfCrashedLocked();
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  return it->second.durable + it->second.pending;
}

bool CrashingEnv::FileExists(const std::string& path) {
  MutexLock lock(mu_);
  ThrowIfCrashedLocked();
  return files_.find(path) != files_.end();
}

Status CrashingEnv::RenameFile(const std::string& from, const std::string& to) {
  MutexLock lock(mu_);
  ThrowIfCrashedLocked();
  auto it = files_.find(from);
  if (it == files_.end()) return Status::NotFound("no such file: " + from);
  FileState state = std::move(it->second);
  files_.erase(it);
  files_[to] = std::move(state);
  return Status::OK();
}

Status CrashingEnv::RemoveFile(const std::string& path) {
  MutexLock lock(mu_);
  ThrowIfCrashedLocked();
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  files_.erase(it);
  return Status::OK();
}

Status CrashingEnv::DoAppend(const std::string& path, uint64_t generation,
                             std::string_view data) {
  MutexLock lock(mu_);
  ThrowIfCrashedLocked();
  if (generation != generation_) {
    return Status::FailedPrecondition("stale file handle (pre-restart): " +
                                      path);
  }
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound("file removed under handle: " + path);
  }
  ++appends_;
  if (plan_.crash_at_append != 0 && appends_ == plan_.crash_at_append) {
    if (plan_.power_loss) {
      // The whole write reaches the page cache; Restart() decides how much
      // of the unsynced tail the platter absorbed (plan_.torn_bytes).
      it->second.pending.append(data);
      surviving_pending_[path] = plan_.torn_bytes;
    } else {
      // Process kill mid-write(): only a torn prefix enters the page cache.
      it->second.pending.append(data.substr(
          0, std::min<uint64_t>(plan_.torn_bytes, data.size())));
    }
    CrashLocked("append #" + std::to_string(appends_) + " to " + path);
  }
  it->second.pending.append(data);
  return Status::OK();
}

Status CrashingEnv::DoSync(const std::string& path, uint64_t generation) {
  MutexLock lock(mu_);
  ThrowIfCrashedLocked();
  if (generation != generation_) {
    return Status::FailedPrecondition("stale file handle (pre-restart): " +
                                      path);
  }
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound("file removed under handle: " + path);
  }
  ++syncs_;
  if (plan_.crash_at_sync != 0 && syncs_ == plan_.crash_at_sync) {
    // The fsync is dropped: pending stays unsynced. Under power loss the
    // platter may still have absorbed a prefix of it.
    if (plan_.power_loss) surviving_pending_[path] = plan_.torn_bytes;
    CrashLocked("sync #" + std::to_string(syncs_) + " of " + path);
  }
  it->second.durable += it->second.pending;
  it->second.pending.clear();
  return Status::OK();
}

}  // namespace consentdb
