#include "trace.h"

#include <fstream>
#include <variant>

#include "consentdb/net/protocol.h"
#include "util.h"

namespace perfbench {

namespace {

int ThreadIndex() {
  static std::atomic<int> next{1};
  thread_local int index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

class TimedFile : public consentdb::WritableFile {
 public:
  TimedFile(std::unique_ptr<consentdb::WritableFile> base, Tracer* tracer)
      : base_(std::move(base)), tracer_(tracer) {}
  consentdb::Status Append(std::string_view data) override {
    const int64_t t0 = NowNanos();
    consentdb::Status s = base_->Append(data);
    const int64_t t1 = NowNanos();
    if (tracer_->active()) {
      tracer_->wal_appends.fetch_add(1, std::memory_order_relaxed);
      tracer_->wal_ns.fetch_add(static_cast<uint64_t>(t1 - t0),
                                std::memory_order_relaxed);
      tracer_->AddCall("consent.wal_append", t0, t1);
    }
    return s;
  }
  consentdb::Status Sync() override {
    const int64_t t0 = NowNanos();
    consentdb::Status s = base_->Sync();
    const int64_t t1 = NowNanos();
    if (tracer_->active()) {
      tracer_->fsyncs.fetch_add(1, std::memory_order_relaxed);
      tracer_->wal_ns.fetch_add(static_cast<uint64_t>(t1 - t0),
                                std::memory_order_relaxed);
      tracer_->AddCall("consent.fsync", t0, t1);
      std::lock_guard<std::mutex> lock(tracer_->samples_mu);
      tracer_->fsync_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    }
    return s;
  }
  consentdb::Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<consentdb::WritableFile> base_;
  Tracer* tracer_;
};

class CountingConnection : public consentdb::Connection {
 public:
  CountingConnection(std::unique_ptr<consentdb::Connection> base,
                     Tracer* tracer, bool client)
      : base_(std::move(base)), tracer_(tracer), client_(client) {}

  consentdb::Result<size_t> Write(std::string_view data) override {
    consentdb::Result<size_t> n = base_->Write(data);
    if (n.ok() && client_ && tracer_->active()) {
      tracer_->bytes.fetch_add(*n, std::memory_order_relaxed);
      out_.Feed(data.substr(0, *n));
      Drain(&out_, /*inbound=*/false);
    }
    return n;
  }

  consentdb::Result<std::string> Read() override {
    consentdb::Result<std::string> data = base_->Read();
    if (data.ok() && tracer_->active()) {
      tracer_->reads.fetch_add(1, std::memory_order_relaxed);
      if (data->empty()) {
        tracer_->empty_reads.fetch_add(1, std::memory_order_relaxed);
      } else if (client_) {
        tracer_->bytes.fetch_add(data->size(), std::memory_order_relaxed);
        in_.Feed(*data);
        Drain(&in_, /*inbound=*/true);
      }
    }
    return data;
  }

  void Close() override { base_->Close(); }

 private:
  // Counts the complete frames buffered in `parser`; an inbound
  // ProbeRequest closes the round trip opened by the last ProbeAnswer.
  void Drain(consentdb::net::FrameParser* parser, bool inbound) {
    const int64_t t0 = NowNanos();
    consentdb::net::Frame frame;
    while (parser->Next(&frame) == consentdb::net::FrameParser::Event::kFrame) {
      const int64_t now = NowNanos();
      tracer_->frames.fetch_add(1, std::memory_order_relaxed);
      consentdb::Result<consentdb::net::Message> msg =
          consentdb::net::DecodeMessage(frame.type, frame.body);
      if (msg.ok()) {
        if (!inbound &&
            std::holds_alternative<consentdb::net::ProbeAnswer>(*msg)) {
          last_answer_ns_ = now;
        }
        if (inbound &&
            std::holds_alternative<consentdb::net::ProbeRequest>(*msg) &&
            last_answer_ns_ != 0) {
          std::lock_guard<std::mutex> lock(tracer_->samples_mu);
          tracer_->rtt_us.push_back(static_cast<double>(now - last_answer_ns_) /
                                    1e3);
          last_answer_ns_ = 0;
        }
      }
      if (tracer_->capture_frames) {
        std::lock_guard<std::mutex> lock(tracer_->samples_mu);
        tracer_->frames_seen.push_back(WireFrame{frame.type, frame.body});
      }
    }
    tracer_->obs_ns.fetch_add(static_cast<uint64_t>(NowNanos() - t0),
                              std::memory_order_relaxed);
  }

  std::unique_ptr<consentdb::Connection> base_;
  Tracer* tracer_;
  bool client_;
  consentdb::net::FrameParser in_;
  consentdb::net::FrameParser out_;
  int64_t last_answer_ns_ = 0;
};

class CountingListener : public consentdb::Listener {
 public:
  CountingListener(std::unique_ptr<consentdb::Listener> base, Tracer* tracer)
      : base_(std::move(base)), tracer_(tracer) {}
  consentdb::Result<std::unique_ptr<consentdb::Connection>> Accept() override {
    consentdb::Result<std::unique_ptr<consentdb::Connection>> conn =
        base_->Accept();
    if (!conn.ok() || *conn == nullptr) return conn;
    return std::unique_ptr<consentdb::Connection>(
        std::make_unique<CountingConnection>(std::move(*conn), tracer_,
                                             /*client=*/false));
  }
  std::string address() const override { return base_->address(); }
  void Close() override { base_->Close(); }

 private:
  std::unique_ptr<consentdb::Listener> base_;
  Tracer* tracer_;
};

}  // namespace

void SpanLog::Add(const char* name, uint64_t id, uint64_t parent,
                  uint64_t session, int64_t start_ns, int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(
      SpanRecord{name, id, parent, session, ThreadIndex(), start_ns, end_ns});
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  const int64_t origin = records_.empty() ? 0 : records_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << r.name
        << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.tid
        << ",\"ts\":" << static_cast<double>(r.start_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(r.end_ns - r.start_ns) / 1e3
        << ",\"args\":{\"id\":" << r.id << ",\"parent\":" << r.parent
        << ",\"session\":" << r.session << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Span::Span(SpanLog* log, const char* name, uint64_t session, uint64_t parent)
    : log_(log),
      name_(name),
      id_(log != nullptr ? log->NewId() : 0),
      parent_(parent),
      session_(session),
      start_(NowNanos()) {}

int64_t Span::End() {
  const int64_t end = NowNanos();
  if (!ended_) {
    ended_ = true;
    if (log_ != nullptr) log_->Add(name_, id_, parent_, session_, start_, end);
  }
  return end - start_;
}

void Tracer::Begin(size_t index) {
  session_.store(index + 1, std::memory_order_relaxed);
  parent_.store(spans_.NewId(), std::memory_order_relaxed);
  begin_ns_ = NowNanos();
  active_.store(true, std::memory_order_release);
}

int64_t Tracer::End() {
  active_.store(false, std::memory_order_release);
  const int64_t end = NowNanos();
  spans_.Add("session", parent(), 0, session(), begin_ns_, end);
  return end - begin_ns_;
}

void Tracer::AddCall(const char* name, int64_t start_ns, int64_t end_ns) {
  spans_.Add(name, spans_.NewId(), parent(), session(), start_ns, end_ns);
  obs_ns.fetch_add(static_cast<uint64_t>(NowNanos() - end_ns),
                   std::memory_order_relaxed);
}

bool TracedOracle::Probe(consentdb::provenance::VarId x) {
  const int64_t t0 = NowNanos();
  const bool answer = base_.Probe(x);
  const int64_t t1 = NowNanos();
  tracer_->peer_ns.fetch_add(static_cast<uint64_t>(t1 - t0),
                             std::memory_order_relaxed);
  tracer_->AddCall("consent.peer_probe", t0, t1);
  return answer;
}

consentdb::consent::ProbeAttempt TracedOracle::TryProbe(
    consentdb::provenance::VarId x) {
  const int64_t t0 = NowNanos();
  consentdb::consent::ProbeAttempt attempt = base_.TryProbe(x);
  const int64_t t1 = NowNanos();
  tracer_->peer_ns.fetch_add(static_cast<uint64_t>(t1 - t0),
                             std::memory_order_relaxed);
  tracer_->AddCall("consent.peer_probe", t0, t1);
  return attempt;
}

consentdb::Result<std::unique_ptr<consentdb::WritableFile>>
TimedEnv::NewWritableFile(const std::string& path, bool append) {
  consentdb::Result<std::unique_ptr<consentdb::WritableFile>> file =
      base_->NewWritableFile(path, append);
  if (!file.ok()) return file;
  return std::unique_ptr<consentdb::WritableFile>(
      std::make_unique<TimedFile>(std::move(*file), tracer_));
}

void TimedClock::SleepFor(int64_t nanos) {
  const int64_t t0 = NowNanos();
  base_->SleepFor(nanos);
  const int64_t t1 = NowNanos();
  if (!tracer_->active()) return;
  if (client_) {
    tracer_->client_sleeps.fetch_add(1, std::memory_order_relaxed);
    tracer_->client_sleep_ns.fetch_add(static_cast<uint64_t>(t1 - t0),
                                       std::memory_order_relaxed);
    tracer_->AddCall("net.client_sleep", t0, t1);
  } else {
    tracer_->server_sleeps.fetch_add(1, std::memory_order_relaxed);
    tracer_->AddCall("net.server_sleep", t0, t1);
  }
}

consentdb::Result<std::unique_ptr<consentdb::Listener>>
CountingTransport::Listen(const std::string& address) {
  consentdb::Result<std::unique_ptr<consentdb::Listener>> listener =
      base_.Listen(address);
  if (!listener.ok()) return listener;
  return std::unique_ptr<consentdb::Listener>(
      std::make_unique<CountingListener>(std::move(*listener), tracer_));
}

consentdb::Result<std::unique_ptr<consentdb::Connection>>
CountingTransport::Connect(const std::string& address) {
  if (tracer_->active()) {
    tracer_->connects.fetch_add(1, std::memory_order_relaxed);
  }
  consentdb::Result<std::unique_ptr<consentdb::Connection>> conn =
      base_.Connect(address);
  if (!conn.ok()) return conn;
  return std::unique_ptr<consentdb::Connection>(
      std::make_unique<CountingConnection>(std::move(*conn), tracer_,
                                           client_));
}

}  // namespace perfbench
