// Streaming Chrome trace-event JSON exporter.
//
// Writes the run's causal trace in the Chrome trace-event format
// (viewable in Perfetto / chrome://tracing): one process per shard
// (pid 1 for a uniprocessor run) with one track per simulated CPU
// owner —
//
//   tid 1            the scheduler (policy decisions, phase marks)
//   tid 2            the update process (receive/install spans,
//                    arrivals, enqueues, drops, ordinary installs,
//                    remote-service spans in the sharded model)
//   tid 1000 + id    one track per transaction (its CPU segments as
//                    B/E spans, admit/stale-read/terminal instants)
//
// Dispatched segments become duration spans (ph B/E); a preemption
// closes the open span and leaves a "preempt" instant with the reason.
// On-demand installs are drawn on the demanding transaction's track
// and linked back to the update's enqueue point on the updates track
// with a flow arrow (ph s/f, id = the update's id) — the OD causal
// chain is visible as an arrow from queue to transaction.
//
// Sharded runs (core/cluster.h) share one ChromeTraceDocument between
// M writers — one per shard, each a distinct pid / track group — so
// the whole cluster lands in a single viewable file. The single-stream
// constructor (one writer owning its document, pid 1) produces bytes
// identical to the pre-sharding format.
//
// The output is byte-deterministic for a fixed (Config, seed): fixed
// key order, fixed float formatting, no wall-clock timestamps. Each
// event's category is its EventKindName token, which is what the
// analysis CLI (tools/strip_trace.cc) keys on when reading the file
// back.
//
// Timestamps ("ts") are microseconds of simulated time with
// sub-microsecond decimals.

#ifndef STRIP_OBS_TRACE_CHROME_TRACE_H_
#define STRIP_OBS_TRACE_CHROME_TRACE_H_

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "obs/trace/collector.h"

namespace strip::obs::trace {

// The JSON framing of one trace file: the opening "{"traceEvents":["
// (written on construction), the event-record commas, and the closing
// "]}" (written by Finish). One or many ChromeTraceWriters append to
// it; events interleave in emission order.
//
// Records are appended straight into one buffer, which goes to the
// stream with one write() per 64 KiB at most, and at Finish.
class ChromeTraceDocument {
 public:
  // Streams to `out`, which must outlive the document.
  explicit ChromeTraceDocument(std::ostream* out);
  ~ChromeTraceDocument();

  ChromeTraceDocument(const ChromeTraceDocument&) = delete;
  ChromeTraceDocument& operator=(const ChromeTraceDocument&) = delete;

  // Writes the closing bracket and hands every buffered byte to the
  // stream, then flushes it. Idempotent; call only after every
  // writer's Finish().
  void Finish();

  std::uint64_t events_written() const { return events_written_; }

 private:
  friend class ChromeTraceWriter;
  // Opens one event record (its separator and "{") and returns the
  // buffer to append the record's body to.
  std::string& BeginRecord();
  // Closes the record with "}"; writes the buffer out once it is full.
  void EndRecord();
  void WriteBuffer();

  std::ostream* out_;
  std::string buffer_;
  bool finished_ = false;
  std::uint64_t events_written_ = 0;
};

class ChromeTraceWriter : public TraceCollector {
 public:
  // Track ids (within each process/shard track group).
  static constexpr std::uint64_t kSchedulerTid = 1;
  static constexpr std::uint64_t kUpdatesTid = 2;
  static constexpr std::uint64_t kTxnTidBase = 1000;

  // Single-stream form: the writer owns its document (pid 1, process
  // name "strip"). Byte-identical to the historical format.
  explicit ChromeTraceWriter(std::ostream* out);
  // Shared-document form (sharded runs): appends to `document` as
  // process `pid` named `process_name` ("shard 0", ...). The document
  // must outlive the writer; the caller finishes the document after
  // finishing every writer.
  ChromeTraceWriter(ChromeTraceDocument* document, int pid,
                    const std::string& process_name);
  // Finishes this writer (and the owned document, if any) if Finish()
  // was not called.
  ~ChromeTraceWriter() override;

  // Closes a span the run left open (the simulation can end mid-
  // segment); for an owned document also writes the closing bracket.
  // Idempotent; no events may be emitted after.
  void Finish();

  std::uint64_t events_written() const { return events_written_; }

 protected:
  void Emit(const TraceEvent& event) override;

 private:
  // Opens a record in the document; EndRecord closes it.
  std::string& BeginRecord();
  void EndRecord() { document_->EndRecord(); }
  // Opens a record and appends its head, through the current "ts":
  // name, cat, ph (the phase plus any phase fields, already quoted),
  // pid and tid.
  std::string& BeginEvent(std::string_view name, std::string_view cat,
                          std::string_view ph, std::uint64_t tid);
  // Ensures the transaction's track has a thread_name metadata record.
  // A record that uses the track calls this before it begins.
  std::uint64_t TxnTid(std::uint64_t txn_id, txn::TxnClass cls);
  void WriteMeta(std::uint64_t tid, std::string_view name);
  void WriteTrackNames(std::string_view process_name);

  std::unique_ptr<ChromeTraceDocument> owned_document_;
  ChromeTraceDocument* document_;
  // Rendered "\"pid\":N," fragment shared by every record.
  std::string pid_frag_;
  bool finished_ = false;
  std::uint64_t events_written_ = 0;
  // Track of the currently open dispatch span and its B name/category,
  // so E lines match (exactly one span is open at a time per shard).
  std::uint64_t open_tid_ = 0;
  const char* open_name_ = nullptr;
  bool span_open_ = false;
  // The "ts" text of the last event's time, reformatted only when the
  // time changes; also closes an end-of-run open span.
  sim::Time stamp_time_ = 0;
  std::string stamp_ = "0.000";
  // Transactions whose track metadata has been written.
  std::unordered_set<std::uint64_t> named_txns_;
  // Enqueue timestamp per queued update id, for the OD flow arrow's
  // start point. Erased on install/drop.
  std::unordered_map<std::uint64_t, sim::Time> enqueue_times_;
};

}  // namespace strip::obs::trace

#endif  // STRIP_OBS_TRACE_CHROME_TRACE_H_
