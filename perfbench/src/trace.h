// The traced run's instruments, all outside the program: the benchmark's
// own span log (exported as a Chrome trace), and counting/timing decorators
// for the program's seams — ProbeOracle, Env, Clock and Transport.
//
// Decorators record only while a session is in flight (Tracer::Begin ..
// End), so a server's idle naps between sessions stay out of the figures.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "consentdb/consent/oracle.h"
#include "consentdb/net/frame.h"
#include "consentdb/util/clock.h"
#include "consentdb/util/io.h"
#include "consentdb/util/transport.h"

namespace perfbench {

struct SpanRecord {
  const char* name;
  uint64_t id;
  uint64_t parent;   // 0 = a root span
  uint64_t session;  // script index + 1; spans of one session share it
  int tid;
  int64_t start_ns;
  int64_t end_ns;
};

// In-memory span store, written out once when the run ends. Thread-safe.
class SpanLog {
 public:
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Add(const char* name, uint64_t id, uint64_t parent, uint64_t session,
           int64_t start_ns, int64_t end_ns);
  size_t size() const;
  // Chrome trace-event JSON ("X" events; args carry id, parent, session).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> records_;
  std::atomic<uint64_t> next_id_{1};
};

// A span around one call made by the calling thread; End() returns its
// duration in nanoseconds (the destructor ends it if End was not called).
class Span {
 public:
  Span(SpanLog* log, const char* name, uint64_t session, uint64_t parent);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int64_t End();
  uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  const char* name_;
  uint64_t id_;
  uint64_t parent_;
  uint64_t session_;
  int64_t start_;
  bool ended_ = false;
};

// One frame seen on the client's connection, kept for the codec replay.
struct WireFrame {
  uint8_t type = 0;
  std::string body;
};

// Shared state of the traced run's decorators.
class Tracer {
 public:
  SpanLog& spans() { return spans_; }

  // Opens the span of session `index` (0-based) and starts recording.
  void Begin(size_t index);
  // Stops recording and closes the session span; returns its duration.
  int64_t End();
  bool active() const { return active_.load(std::memory_order_acquire); }
  uint64_t session() const { return session_.load(std::memory_order_relaxed); }
  uint64_t parent() const { return parent_.load(std::memory_order_relaxed); }
  // Records a finished seam call under the current session span and
  // charges the recording itself to obs_ns.
  void AddCall(const char* name, int64_t start_ns, int64_t end_ns);

  // Counters, read by the benchmark between sessions.
  std::atomic<uint64_t> peer_ns{0};
  // Time the decorators spend on their own bookkeeping inside sessions:
  // the obs layer's self time.
  std::atomic<uint64_t> obs_ns{0};
  std::atomic<uint64_t> wal_appends{0};
  std::atomic<uint64_t> wal_ns{0};
  std::atomic<uint64_t> fsyncs{0};
  std::atomic<uint64_t> client_sleeps{0};
  std::atomic<uint64_t> client_sleep_ns{0};
  std::atomic<uint64_t> server_sleeps{0};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> empty_reads{0};
  std::atomic<uint64_t> connects{0};
  std::atomic<uint64_t> frames{0};
  std::atomic<uint64_t> bytes{0};

  // Per-call samples (microseconds), guarded by samples_mu.
  std::mutex samples_mu;
  std::vector<double> fsync_us;
  std::vector<double> rtt_us;
  // Frames of the current session when capture_frames is set.
  bool capture_frames = false;
  std::vector<WireFrame> frames_seen;

 private:
  SpanLog spans_;
  std::atomic<bool> active_{false};
  std::atomic<uint64_t> session_{0};
  std::atomic<uint64_t> parent_{0};
  int64_t begin_ns_ = 0;
};

// Times every probe that reaches the peers.
class TracedOracle : public consentdb::consent::ProbeOracle {
 public:
  TracedOracle(consentdb::consent::ProbeOracle& base, Tracer* tracer)
      : base_(base), tracer_(tracer) {}
  bool Probe(consentdb::provenance::VarId x) override;
  consentdb::consent::ProbeAttempt TryProbe(
      consentdb::provenance::VarId x) override;
  size_t probe_count() const override { return base_.probe_count(); }

 private:
  consentdb::consent::ProbeOracle& base_;
  Tracer* tracer_;
};

// Times WAL appends and fsyncs: the Env handed to WalWriter::Open.
class TimedEnv : public consentdb::Env {
 public:
  TimedEnv(consentdb::Env* base, Tracer* tracer)
      : base_(base), tracer_(tracer) {}
  consentdb::Result<std::unique_ptr<consentdb::WritableFile>> NewWritableFile(
      const std::string& path, bool append) override;
  consentdb::Result<std::string> ReadFileToString(
      const std::string& path) override {
    return base_->ReadFileToString(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  consentdb::Status RenameFile(const std::string& from,
                               const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  consentdb::Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }

 private:
  consentdb::Env* base_;
  Tracer* tracer_;
};

// Counts and times naps: passed as ProbeClientOptions::clock (client) and
// ServerOptions::clock (server).
class TimedClock : public consentdb::Clock {
 public:
  TimedClock(consentdb::Clock* base, Tracer* tracer, bool client)
      : base_(base), tracer_(tracer), client_(client) {}
  int64_t NowNanos() override { return base_->NowNanos(); }
  void SleepFor(int64_t nanos) override;

 private:
  consentdb::Clock* base_;
  Tracer* tracer_;
  bool client_;
};

// Counts connects, reads, empty reads, frames and bytes. On the client side
// it also decodes the frame stream to time ProbeAnswer-write ->
// next-ProbeRequest-read round trips.
class CountingTransport : public consentdb::Transport {
 public:
  CountingTransport(consentdb::Transport& base, Tracer* tracer, bool client)
      : base_(base), tracer_(tracer), client_(client) {}
  consentdb::Result<std::unique_ptr<consentdb::Listener>> Listen(
      const std::string& address) override;
  consentdb::Result<std::unique_ptr<consentdb::Connection>> Connect(
      const std::string& address) override;

 private:
  consentdb::Transport& base_;
  Tracer* tracer_;
  bool client_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
