#include "obs/trace/chrome_trace.h"

#include <bit>
#include <charconv>
#include <cmath>
#include <system_error>

#include "base/check.h"

namespace strip::obs::trace {

namespace {

// The document's buffer holds 64 KiB and goes to the stream once less
// than one record's slack is free, so no write() exceeds 64 KiB. A
// record longer than the slack (only a very long process name or fault
// label) grows the buffer instead.
constexpr std::size_t kBufferBytes = 64 * 1024;
constexpr std::size_t kRecordSlack = 1024;

// "ph" values with their phase fields, as BeginEvent takes them.
constexpr std::string_view kInstant = R"("i","s":"t")";
constexpr std::string_view kProcessInstant = R"("i","s":"p")";

// Parts of a record, each appended by a Put overload. Numbers go
// through std::to_chars, which is specified as if by printf in the C
// locale: the output is fixed and byte-deterministic.
struct Id {  // "%" PRIu64
  std::uint64_t value;
};
struct Num {  // "%.17g", which round-trips doubles
  double value;
};
struct Ts {  // "%.3f" of simulated seconds as trace microseconds
  sim::Time time;
};

void Put(std::string& out, std::string_view text) { out.append(text); }
void Put(std::string& out, char c) { out.push_back(c); }

void Put(std::string& out, Id id) {
  char buffer[20];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), id.value);
  out.append(buffer, result.ptr);
}

void Put(std::string& out, Num num) {
  const double v = num.value;
  // An integral value below 1e17 in magnitude prints as its integer
  // digits under %.17g; -0.0 prints "-0", so it stays on the general
  // path.
  if (v > -1e17 && v < 1e17) {
    const auto integral = static_cast<std::int64_t>(v);
    if (static_cast<double>(integral) == v &&
        (integral != 0 || !std::signbit(v))) {
      char buffer[20];
      const auto result =
          std::to_chars(buffer, buffer + sizeof(buffer), integral);
      out.append(buffer, result.ptr);
      return;
    }
  }
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), v,
                                    std::chars_format::general, 17);
  out.append(buffer, result.ptr);
}

void Put(std::string& out, Ts ts) {
  char buffer[48];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer),
                                    ts.time * 1e6, std::chars_format::fixed, 3);
  STRIP_CHECK_MSG(result.ec == std::errc(), "trace timestamp out of range");
  out.append(buffer, result.ptr);
}

// "low:3" / "high:7" — the object token shared with the flight-record
// format.
void Put(std::string& out, db::ObjectId object) {
  out.append(db::ObjectClassName(object.cls));
  out.push_back(':');
  Put(out, Id{static_cast<std::uint64_t>(object.index)});
}

template <typename... Parts>
void Append(std::string& out, const Parts&... parts) {
  (Put(out, parts), ...);
}

std::string_view OrEmpty(const char* text) {
  return text != nullptr ? text : "";
}

}  // namespace

ChromeTraceDocument::ChromeTraceDocument(std::ostream* out) : out_(out) {
  STRIP_CHECK(out != nullptr);
  buffer_.reserve(kBufferBytes);
  buffer_.append("{\"traceEvents\":[");
}

ChromeTraceDocument::~ChromeTraceDocument() { Finish(); }

void ChromeTraceDocument::Finish() {
  if (finished_) return;
  finished_ = true;
  buffer_.append("\n]}\n");
  WriteBuffer();
  out_->flush();
}

std::string& ChromeTraceDocument::BeginRecord() {
  STRIP_CHECK_MSG(!finished_, "event emitted after document Finish()");
  buffer_.append(events_written_ == 0 ? "\n{" : ",\n{");
  ++events_written_;
  return buffer_;
}

void ChromeTraceDocument::EndRecord() {
  buffer_.push_back('}');
  if (buffer_.size() > kBufferBytes - kRecordSlack) WriteBuffer();
}

void ChromeTraceDocument::WriteBuffer() {
  out_->write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  buffer_.clear();
}

ChromeTraceWriter::ChromeTraceWriter(std::ostream* out)
    : owned_document_(std::make_unique<ChromeTraceDocument>(out)),
      document_(owned_document_.get()),
      pid_frag_("\"pid\":1,") {
  WriteTrackNames("strip");
}

ChromeTraceWriter::ChromeTraceWriter(ChromeTraceDocument* document, int pid,
                                     const std::string& process_name)
    : document_(document),
      pid_frag_("\"pid\":" + std::to_string(pid) + ",") {
  STRIP_CHECK(document != nullptr);
  STRIP_CHECK(pid >= 1);
  WriteTrackNames(process_name);
}

ChromeTraceWriter::~ChromeTraceWriter() { Finish(); }

void ChromeTraceWriter::Finish() {
  if (finished_) return;
  if (span_open_) {
    // The run ended mid-segment: close the span at the last timestamp.
    BeginEvent(open_name_, "segment-complete", "\"E\"", open_tid_);
    EndRecord();
    span_open_ = false;
  }
  finished_ = true;
  if (owned_document_ != nullptr) owned_document_->Finish();
}

std::string& ChromeTraceWriter::BeginRecord() {
  STRIP_CHECK_MSG(!finished_, "event emitted after Finish()");
  ++events_written_;
  return document_->BeginRecord();
}

std::string& ChromeTraceWriter::BeginEvent(std::string_view name,
                                           std::string_view cat,
                                           std::string_view ph,
                                           std::uint64_t tid) {
  std::string& out = BeginRecord();
  Append(out, "\"name\":\"", name, "\",\"cat\":\"", cat, "\",\"ph\":", ph,
         ',', pid_frag_, "\"tid\":", Id{tid}, ",\"ts\":", stamp_);
  return out;
}

void ChromeTraceWriter::WriteTrackNames(std::string_view process_name) {
  Append(BeginRecord(), "\"name\":\"process_name\",\"ph\":\"M\",", pid_frag_,
         "\"args\":{\"name\":\"", process_name, "\"}");
  EndRecord();
  WriteMeta(kSchedulerTid, "scheduler");
  WriteMeta(kUpdatesTid, "updates");
}

void ChromeTraceWriter::WriteMeta(std::uint64_t tid, std::string_view name) {
  Append(BeginRecord(), "\"name\":\"thread_name\",\"ph\":\"M\",", pid_frag_,
         "\"tid\":", Id{tid}, ",\"args\":{\"name\":\"", name, "\"}");
  EndRecord();
}

std::uint64_t ChromeTraceWriter::TxnTid(std::uint64_t txn_id,
                                        txn::TxnClass cls) {
  const std::uint64_t tid = kTxnTidBase + txn_id;
  if (named_txns_.insert(txn_id).second) {
    Append(BeginRecord(), "\"name\":\"thread_name\",\"ph\":\"M\",", pid_frag_,
           "\"tid\":", Id{tid}, ",\"args\":{\"name\":\"txn ", Id{txn_id},
           " (", txn::TxnClassName(cls), ")\"}");
    EndRecord();
  }
  return tid;
}

void ChromeTraceWriter::Emit(const TraceEvent& event) {
  // Compared bit for bit: 0.0 and -0.0 are equal but print differently.
  if (std::bit_cast<std::uint64_t>(event.time) !=
      std::bit_cast<std::uint64_t>(stamp_time_)) {
    stamp_time_ = event.time;
    stamp_.clear();
    Put(stamp_, Ts{event.time});
  }
  // Every TxnTid() call stays above the BeginEvent() of the record that
  // uses its track: a first use writes the track's metadata record,
  // which must not land inside another record.
  switch (event.kind) {
    case EventKind::kTxnAdmitted: {
      const std::uint64_t tid = TxnTid(event.txn_id, event.txn_cls);
      Append(BeginEvent("admitted", "txn-admitted", kInstant, tid),
             ",\"args\":{\"txn\":", Id{event.txn_id}, ",\"class\":\"",
             txn::TxnClassName(event.txn_cls), "\",\"deadline\":",
             Num{event.deadline}, ",\"value\":", Num{event.value}, '}');
      EndRecord();
      break;
    }
    case EventKind::kTxnTerminal: {
      const std::uint64_t tid = TxnTid(event.txn_id, event.txn_cls);
      Append(BeginEvent(txn::TxnOutcomeName(event.outcome), "txn-terminal",
                        kInstant, tid),
             ",\"args\":{\"txn\":", Id{event.txn_id}, ",\"stale\":",
             event.read_stale ? '1' : '0', '}');
      EndRecord();
      break;
    }
    case EventKind::kUpdateArrival:
      Append(BeginEvent("arrival", "update-arrival", kInstant, kUpdatesTid),
             ",\"args\":{\"update\":", Id{event.update_id}, ",\"obj\":\"",
             event.object, "\"}");
      EndRecord();
      break;
    case EventKind::kUpdateEnqueued:
      enqueue_times_[event.update_id] = event.time;
      Append(BeginEvent("enqueue", "update-enqueued", kInstant, kUpdatesTid),
             ",\"args\":{\"update\":", Id{event.update_id}, ",\"obj\":\"",
             event.object, "\"}");
      EndRecord();
      break;
    case EventKind::kUpdateInstalled: {
      if (event.txn_id == kNoId) {
        Append(BeginEvent("install", "update-installed", kInstant,
                          kUpdatesTid),
               ",\"args\":{\"update\":", Id{event.update_id}, ",\"obj\":\"",
               event.object, "\"}");
        EndRecord();
      } else {
        // On-demand install: drawn on the demanding transaction's
        // track, with a flow arrow from the update's enqueue point.
        const std::uint64_t tid = TxnTid(event.txn_id, event.txn_cls);
        Append(BeginEvent("install-od", "update-installed", kInstant, tid),
               ",\"args\":{\"update\":", Id{event.update_id}, ",\"obj\":\"",
               event.object, "\",\"txn\":", Id{event.txn_id}, '}');
        EndRecord();
        const auto it = enqueue_times_.find(event.update_id);
        const sim::Time start =
            it != enqueue_times_.end() ? it->second : event.time;
        Append(BeginRecord(),
               "\"name\":\"od-install\",\"cat\":\"od-flow\",\"ph\":\"s\",",
               pid_frag_, "\"tid\":", Id{kUpdatesTid}, ",\"ts\":", Ts{start},
               ",\"id\":", Id{event.update_id});
        EndRecord();
        Append(BeginEvent("od-install", "od-flow", R"("f","bp":"e")", tid),
               ",\"id\":", Id{event.update_id});
        EndRecord();
      }
      enqueue_times_.erase(event.update_id);
      break;
    }
    case EventKind::kUpdateDropped:
      Append(BeginEvent(core::DropReasonName(event.drop_reason),
                        "update-dropped", kInstant, kUpdatesTid),
             ",\"args\":{\"update\":", Id{event.update_id}, ",\"obj\":\"",
             event.object, "\"}");
      EndRecord();
      enqueue_times_.erase(event.update_id);
      break;
    case EventKind::kDispatch: {
      const std::uint64_t tid =
          event.txn_id != kNoId ? TxnTid(event.txn_id, event.txn_cls)
                                : kUpdatesTid;
      const char* name = core::DispatchKindName(event.dispatch_kind);
      std::string& out = BeginEvent(name, "dispatch", "\"B\"", tid);
      Append(out, ",\"args\":{\"instr\":", Num{event.instructions});
      if (event.txn_id != kNoId) Append(out, ",\"txn\":", Id{event.txn_id});
      if (event.update_id != kNoId) {
        Append(out, ",\"update\":", Id{event.update_id}, ",\"obj\":\"",
               event.object, '"');
      }
      out.push_back('}');
      EndRecord();
      open_tid_ = tid;
      open_name_ = name;
      span_open_ = true;
      break;
    }
    case EventKind::kSegmentComplete:
      STRIP_CHECK_MSG(span_open_, "segment-complete without open span");
      BeginEvent(open_name_, "segment-complete", "\"E\"", open_tid_);
      EndRecord();
      span_open_ = false;
      break;
    case EventKind::kPreempt: {
      // The preemption closes the open span, then marks why.
      STRIP_CHECK_MSG(span_open_, "preempt without open span");
      BeginEvent(open_name_, "segment-complete", "\"E\"", open_tid_);
      EndRecord();
      span_open_ = false;
      const std::uint64_t tid = TxnTid(event.txn_id, event.txn_cls);
      Append(BeginEvent("preempt", "preempt", kInstant, tid),
             ",\"args\":{\"txn\":", Id{event.txn_id}, ",\"reason\":\"",
             core::PreemptReasonName(event.preempt_reason), "\"}");
      EndRecord();
      break;
    }
    case EventKind::kStaleRead: {
      const std::uint64_t tid = TxnTid(event.txn_id, event.txn_cls);
      Append(BeginEvent("stale-read", "stale-read", kInstant, tid),
             ",\"args\":{\"txn\":", Id{event.txn_id}, ",\"obj\":\"",
             event.object, "\"}");
      EndRecord();
      break;
    }
    case EventKind::kPolicyDecision:
      Append(BeginEvent(core::SchedulerChoiceName(event.choice),
                        "policy-decision", kInstant, kSchedulerTid),
             ",\"args\":{\"policy\":\"", core::PolicyKindName(event.policy),
             "\",\"reason\":\"", OrEmpty(event.reason), "\"}");
      EndRecord();
      break;
    case EventKind::kPhase:
      BeginEvent(core::PhaseName(event.phase), "phase", kInstant,
                 kSchedulerTid);
      EndRecord();
      break;
    case EventKind::kFaultBegin:
    case EventKind::kFaultEnd:
      // Process-scoped instants so the fault window is visible on every
      // track while inspecting a trace taken through a fault. The name
      // is two parts, so the head is written here.
      Append(BeginRecord(), "\"name\":\"",
             event.fault_kind != nullptr ? event.fault_kind : "fault",
             event.kind == EventKind::kFaultBegin ? " begin" : " end",
             "\",\"cat\":\"", EventKindName(event.kind), "\",\"ph\":",
             kProcessInstant, ',', pid_frag_, "\"tid\":", Id{kSchedulerTid},
             ",\"ts\":", stamp_, ",\"args\":{\"window\":\"",
             OrEmpty(event.fault_label), "\"}");
      EndRecord();
      break;
    case EventKind::kRemoteIssued:
    case EventKind::kRemoteResolved:
    case EventKind::kRemoteDegraded: {
      // Home-shard instants on the waiting transaction's track (its
      // admission already named the track).
      const std::uint64_t tid = TxnTid(event.txn_id, event.txn_cls);
      const char* kind = EventKindName(event.kind);
      std::string& out = BeginEvent(kind, kind, kInstant, tid);
      Append(out, ",\"args\":{\"req\":", Id{event.request_id}, ",\"txn\":",
             Id{event.txn_id}, ",\"peer\":",
             Id{static_cast<std::uint64_t>(event.peer_shard)}, ",\"obj\":\"",
             event.object, '"');
      if (event.kind == EventKind::kRemoteResolved) {
        Append(out, ",\"state\":\"", OrEmpty(event.reason), '"');
      }
      out.push_back('}');
      EndRecord();
      break;
    }
    case EventKind::kRemoteQueued:
    case EventKind::kRemoteServiced: {
      // Peer-shard instants on the update process's track (the service
      // segment itself appears as a remote-service dispatch span).
      const char* kind = EventKindName(event.kind);
      Append(BeginEvent(kind, kind, kInstant, kUpdatesTid),
             ",\"args\":{\"req\":", Id{event.request_id}, ",\"txn\":",
             Id{event.txn_id}, ",\"home\":",
             Id{static_cast<std::uint64_t>(event.home_shard)}, ",\"obj\":\"",
             event.object, "\"}");
      EndRecord();
      break;
    }
    case EventKind::kRemoteTimeout: {
      // Home-shard instants on the waiting transaction's track; the
      // "state" arg distinguishes a retry from budget exhaustion.
      const std::uint64_t tid = TxnTid(event.txn_id, event.txn_cls);
      const char* kind = EventKindName(event.kind);
      Append(BeginEvent(kind, kind, kInstant, tid), ",\"args\":{\"req\":",
             Id{event.request_id}, ",\"txn\":", Id{event.txn_id},
             ",\"peer\":", Id{static_cast<std::uint64_t>(event.peer_shard)},
             ",\"attempt\":", Id{static_cast<std::uint64_t>(event.attempt)},
             ",\"state\":\"", OrEmpty(event.reason), "\"}");
      EndRecord();
      break;
    }
    case EventKind::kRemoteDropped: {
      // Process-scoped: a message lost in the fabric belongs to no
      // single transaction track's timeline of CPU work.
      const char* kind = EventKindName(event.kind);
      Append(BeginEvent(kind, kind, kProcessInstant, kSchedulerTid),
             ",\"args\":{\"req\":", Id{event.request_id}, ",\"txn\":",
             Id{event.txn_id}, ",\"leg\":\"", OrEmpty(event.reason), "\"}");
      EndRecord();
      break;
    }
  }
}

}  // namespace strip::obs::trace
