#include "consentdb/net/probe_client.h"

#include <utility>

#include "consentdb/util/check.h"

namespace consentdb::net {
namespace {

constexpr int64_t kIdleNapNanos = 1'000'000;  // 1ms

}  // namespace

ProbeClient::ProbeClient(Transport& transport, std::string server_address,
                         consent::ProbeOracle* oracle,
                         ProbeClientOptions options)
    : transport_(transport),
      address_(std::move(server_address)),
      oracle_(oracle),
      options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : RealClock()) {
  // Reconnects are paced by the attempt cap and the backoff alone.
  CONSENTDB_CHECK(options_.reconnect.probe_deadline_nanos == 0 &&
                      options_.reconnect.session_deadline_nanos == 0,
                  "ProbeClientOptions::reconnect takes no deadlines");
}

Result<std::string> ProbeClient::Decide(
    const std::string& sql, const std::optional<std::string>& single_csv) {
  OpenSession open;
  open.session_id =
      (static_cast<uint64_t>(options_.client_id) << 32) | next_seq_++;
  open.tenant = options_.tenant;
  open.sql = sql;
  open.has_single = single_csv.has_value() ? 1 : 0;
  open.single_csv = single_csv.value_or("");
  open.deadline_nanos = options_.session_deadline_nanos;
  ++stats_.sessions;
  Result<std::string> report = RunSession(open);
  DropConn();
  return report;
}

Result<std::string> ProbeClient::RunSession(const OpenSession& open) {
  // Answers already given for this session: the server re-requests probes
  // after a resume, and those replays must not reach the oracle again.
  std::map<uint64_t, bool> answered;
  size_t attempt = 0;  // consecutive failures; any received frame resets it
  // The stall clock: reset whenever a frame is decoded or a connection is
  // (re-)established. A stream that stays silent past the stall timeout is
  // indistinguishable from a wedged peer — or a length prefix corrupted
  // into a frame that never completes — and is torn down like a drop.
  int64_t last_progress = clock_->NowNanos();

  while (true) {
    if (conn_ == nullptr) {
      CONSENTDB_RETURN_IF_ERROR(Reconnect(open, &attempt));
      last_progress = clock_->NowNanos();
    }
    if (!FlushOut().ok()) {
      ++attempt;
      continue;
    }

    Result<std::string> data = conn_->Read();
    if (!data.ok()) {
      DropConn();
      ++attempt;
      continue;
    }
    if (data->empty()) {
      if (options_.stall_timeout_nanos > 0 &&
          clock_->NowNanos() - last_progress >= options_.stall_timeout_nanos) {
        ++stats_.stalls;
        DropConn();
        ++attempt;
        continue;
      }
      if (options_.idle) {
        options_.idle();
      } else {
        clock_->SleepFor(kIdleNapNanos);
      }
      continue;
    }
    parser_.Feed(*data);

    while (true) {
      Frame frame;
      FrameParser::Event event = parser_.Next(&frame);
      if (event == FrameParser::Event::kCorrupt) {
        // A checksum failure poisons the stream; tear it down and resume.
        DropConn();
        ++attempt;
        break;
      }
      if (event == FrameParser::Event::kNone) break;
      Result<Message> decoded = DecodeMessage(frame.type, frame.body);
      if (!decoded.ok()) {
        DropConn();
        ++attempt;
        break;
      }
      attempt = 0;
      last_progress = clock_->NowNanos();

      if (const auto* probe = std::get_if<ProbeRequest>(&*decoded)) {
        if (probe->session_id != open.session_id) continue;
        auto cached = answered.find(probe->variable);
        if (cached != answered.end()) {
          ++stats_.cached_replays;
          out_ += EncodeMessage(ProbeAnswer{open.session_id, probe->variable,
                                            cached->second ? uint8_t{1}
                                                           : uint8_t{0}});
        } else {
          if (options_.on_probe) options_.on_probe(*probe);
          consent::ProbeAttempt result = oracle_->TryProbe(
              static_cast<provenance::VarId>(probe->variable));
          if (result.ok()) {
            ++stats_.oracle_probes;
            answered[probe->variable] = result.answer;
            out_ += EncodeMessage(ProbeAnswer{open.session_id, probe->variable,
                                              result.answer ? uint8_t{1}
                                                            : uint8_t{0}});
          } else {
            ++stats_.probe_faults;
            out_ += EncodeMessage(
                ProbeFaultMsg{open.session_id, probe->variable,
                              static_cast<uint8_t>(result.fault)});
          }
        }
        CONSENTDB_IGNORE_STATUS(FlushOut());
        continue;
      }
      if (const auto* report = std::get_if<SessionReportMsg>(&*decoded)) {
        if (report->session_id != open.session_id) continue;
        out_ += EncodeMessage(AckMsg{open.session_id});
        CONSENTDB_IGNORE_STATUS(FlushOut());  // best-effort: report is ours
        return report->report_json;
      }
      if (const auto* error = std::get_if<ErrorMsg>(&*decoded)) {
        if (error->session_id != open.session_id) continue;
        stats_.last_retry_after_nanos = error->retry_after_nanos;
        return StatusFromWire(error->code, error->message);
      }
      // Pongs and anything server-side-only: ignore.
    }
  }
}

Status ProbeClient::Reconnect(const OpenSession& open, size_t* attempt) {
  while (true) {
    if (*attempt > 0) {
      const int64_t now = clock_->NowNanos();
      const core::RetryDecision retry = options_.reconnect.Decide(
          consent::ProbeFault::kTransient, *attempt,
          static_cast<provenance::VarId>(open.session_id), now, now, now);
      if (retry.kind != core::RetryDecision::Kind::kRetry) {
        return Status::Unavailable("reconnect attempts exhausted for session " +
                                   std::to_string(open.session_id));
      }
      ++stats_.reconnects;
      clock_->SleepFor(retry.wake_at_nanos - now);
    }
    Result<std::unique_ptr<Connection>> conn = transport_.Connect(address_);
    if (!conn.ok()) {
      ++*attempt;
      continue;
    }
    conn_ = std::move(*conn);
    parser_ = FrameParser();
    // Re-sending the same OpenSession resumes the server-side session; the
    // answer cache and the server's ledger keep the replay probe-free.
    out_ = EncodeMessage(open);
    return Status::OK();
  }
}

Status ProbeClient::FlushOut() {
  if (conn_ == nullptr) return Status::Unavailable("no connection");
  while (!out_.empty()) {
    Result<size_t> n = conn_->Write(out_);
    if (!n.ok()) {
      DropConn();
      return n.status();
    }
    if (*n == 0) break;  // backpressure — retry on the next loop turn
    out_.erase(0, *n);
  }
  return Status::OK();
}

void ProbeClient::DropConn() {
  if (conn_ != nullptr) {
    conn_->Close();
    conn_.reset();
  }
  out_.clear();
  parser_ = FrameParser();
}

}  // namespace consentdb::net
