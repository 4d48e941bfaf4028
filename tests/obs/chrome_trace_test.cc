// ChromeTraceWriter: document structure, span pairing, OD flow
// arrows, determinism, the golden file, and number formats at their
// edges.
//
// The golden test byte-compares the trace for a fixed (config, seed)
// against tests/obs/testdata/chrome_trace_golden.json. Runs are pure
// functions of (Config, seed) and the writer is deterministic by
// design (fixed key order, fixed float formats, no wall clocks), so
// the bytes are a constant of the implementation. Regenerate with
//   STRIP_UPDATE_GOLDEN=1 ./build/tests/chrome_trace_test

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/system.h"
#include "exp/experiment.h"
#include "obs/trace/chrome_trace.h"
#include "obs/trace/trace_analysis.h"

namespace strip::obs::trace {
namespace {

constexpr char kGoldenPath[] =
    STRIP_TEST_SOURCE_DIR "/obs/testdata/chrome_trace_golden.json";

// Short OD run tuned so every event family appears: a tight freshness
// bound makes reads go stale (hence OD installs and flow arrows), and
// transaction preemption plus the hot transaction stream produce
// preempt and drop records.
core::Config GoldenConfig() {
  core::Config config;
  config.policy = core::PolicyKind::kOnDemand;
  config.sim_seconds = 1.5;
  config.warmup_seconds = 0.0;
  config.alpha = 0.5;
  config.lambda_t = 30.0;
  config.n_low = 200;
  config.n_high = 200;
  config.txn_preemption = true;
  return config;
}

std::string ProduceTrace(const core::Config& config, std::uint64_t seed) {
  std::ostringstream out;
  exp::RunHook hook = [&out](core::System& system,
                             const exp::RunContext&) -> exp::RunFinisher {
    auto trace = std::make_shared<ChromeTraceWriter>(&out);
    system.AddObserver(trace.get());
    return [trace](const core::RunMetrics&) { trace->Finish(); };
  };
  exp::RunContext context;
  context.seed = seed;
  exp::RunOnce(config, seed, hook, context);
  return out.str();
}

int CountOccurrences(const std::string& text, const std::string& needle) {
  int count = 0;
  std::size_t at = 0;
  while ((at = text.find(needle, at)) != std::string::npos) {
    ++count;
    at += needle.size();
  }
  return count;
}

TEST(ChromeTraceTest, DocumentShapeAndRequiredRecords) {
  const std::string doc = ProduceTrace(GoldenConfig(), 7);
  EXPECT_EQ(doc.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(doc.find("\n]}\n"), std::string::npos);
  // Process and fixed-track metadata.
  EXPECT_NE(doc.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(doc.find("\"args\":{\"name\":\"scheduler\"}"),
            std::string::npos);
  EXPECT_NE(doc.find("\"args\":{\"name\":\"updates\"}"), std::string::npos);
  // Every record carries pid 1.
  EXPECT_EQ(CountOccurrences(doc, "\"pid\":1"),
            CountOccurrences(doc, "\"ph\":\""));
  // The lifecycle event families all appear.
  for (const char* cat :
       {"\"cat\":\"txn-admitted\"", "\"cat\":\"txn-terminal\"",
        "\"cat\":\"update-arrival\"", "\"cat\":\"update-enqueued\"",
        "\"cat\":\"update-installed\"", "\"cat\":\"dispatch\"",
        "\"cat\":\"segment-complete\"", "\"cat\":\"preempt\"",
        "\"cat\":\"stale-read\"", "\"cat\":\"policy-decision\"",
        "\"cat\":\"phase\""}) {
    EXPECT_NE(doc.find(cat), std::string::npos) << cat;
  }
}

TEST(ChromeTraceTest, SpansPairAndFlowArrowsComeInPairs) {
  const std::string doc = ProduceTrace(GoldenConfig(), 7);
  EXPECT_GT(CountOccurrences(doc, "\"ph\":\"B\""), 0);
  EXPECT_EQ(CountOccurrences(doc, "\"ph\":\"B\""),
            CountOccurrences(doc, "\"ph\":\"E\""));
  // The OD causal chain: at least one flow pair, starts == finishes,
  // and the finish side binds enclosing-slice semantics.
  const int starts = CountOccurrences(doc, "\"ph\":\"s\"");
  const int finishes = CountOccurrences(doc, "\"ph\":\"f\"");
  EXPECT_GE(starts, 1);
  EXPECT_EQ(starts, finishes);
  EXPECT_EQ(finishes, CountOccurrences(doc, "\"bp\":\"e\""));
  EXPECT_EQ(starts, CountOccurrences(doc, "\"name\":\"install-od\""));
}

TEST(ChromeTraceTest, SameSeedSameBytes) {
  const std::string first = ProduceTrace(GoldenConfig(), 7);
  const std::string second = ProduceTrace(GoldenConfig(), 7);
  EXPECT_EQ(first, second);
}

TEST(ChromeTraceTest, DifferentSeedDifferentBytes) {
  const std::string first = ProduceTrace(GoldenConfig(), 7);
  const std::string second = ProduceTrace(GoldenConfig(), 8);
  EXPECT_NE(first, second);
}

TEST(ChromeTraceTest, ParsesBackAndCriticalPathIsConsistent) {
  const std::string doc = ProduceTrace(GoldenConfig(), 7);
  std::istringstream in(doc);
  std::string error;
  const std::optional<ParsedTrace> parsed = ParseChromeTrace(in, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_FALSE(parsed->events.empty());
  const auto kinds = KindCounts(parsed->events);
  EXPECT_EQ(kinds.at("dispatch"), kinds.at("segment-complete"));
  // Every transaction that has a terminal yields a critical path whose
  // running+waiting time spans admission to terminal.
  const std::optional<std::uint64_t> miss =
      FirstMissedDeadlineTxn(parsed->events);
  if (miss.has_value()) {
    const std::optional<CriticalPath> path =
        ExtractCriticalPath(parsed->events, *miss, &error);
    ASSERT_TRUE(path.has_value()) << error;
    EXPECT_GE(path->terminal, path->admitted);
    EXPECT_NEAR(path->running_seconds + path->waiting_seconds,
                path->terminal - path->admitted, 1e-9);
  }
}

TEST(ChromeTraceTest, MatchesGoldenFile) {
  const std::string doc = ProduceTrace(GoldenConfig(), 7);

  if (std::getenv("STRIP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << kGoldenPath;
    out << doc;
    GTEST_SKIP() << "golden file regenerated at " << kGoldenPath;
  }

  std::ifstream in(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << kGoldenPath
                  << " (regenerate with STRIP_UPDATE_GOLDEN=1)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(doc, golden.str())
      << "chrome trace bytes changed; if intentional, regenerate with "
         "STRIP_UPDATE_GOLDEN=1 and review the diff";
}

// The values `key` takes in `doc`, in document order: the text between
// `"key":` and the next ',' or '}'.
std::vector<std::string> ValuesOf(const std::string& doc,
                                  const std::string& key) {
  std::vector<std::string> values;
  const std::string needle = "\"" + key + "\":";
  for (std::size_t at = doc.find(needle); at != std::string::npos;
       at = doc.find(needle, at)) {
    at += needle.size();
    const std::size_t end = doc.find_first_of(",}", at);
    values.push_back(doc.substr(at, end - at));
  }
  return values;
}

std::string Printf(const char* format, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

// A policy decision at `time`: one record whose "ts" is the time alone.
void DecideAt(ChromeTraceWriter& writer, sim::Time time) {
  writer.OnPolicyDecision(time, core::PolicyKind::kOnDemand,
                          core::SystemObserver::SchedulerChoice::kIdle,
                          "edge");
}

// A stream buffer that keeps every write() it receives.
class RecordingBuffer final : public std::streambuf {
 public:
  std::vector<std::size_t> writes;
  std::string bytes;

 protected:
  std::streamsize xsputn(const char* data, std::streamsize size) override {
    writes.push_back(static_cast<std::size_t>(size));
    bytes.append(data, static_cast<std::size_t>(size));
    return size;
  }
};

// The document buffers records and hands them to the stream in
// writes of at most 64 KiB while the run goes on, not all at Finish.
TEST(ChromeTraceTest, StreamsInWritesOfAtMost64KiB) {
  RecordingBuffer buffer;
  std::ostream out(&buffer);
  ChromeTraceWriter writer(&out);
  for (int i = 0; i < 5000; ++i) DecideAt(writer, i * 1e-3);
  EXPECT_GE(buffer.writes.size(), 5u);
  writer.Finish();
  for (const std::size_t size : buffer.writes) EXPECT_LE(size, 64u * 1024);
  EXPECT_EQ(buffer.bytes.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(CountOccurrences(buffer.bytes, "\"name\":\"idle\""), 5000);
  EXPECT_EQ(buffer.bytes.substr(buffer.bytes.size() - 4), "\n]}\n");
}

// The writer prints numbers without printf; every "ts" must still be
// the bytes of "%.3f" of the time in microseconds.
TEST(ChromeTraceNumberTest, TimestampsMatchPrintfAtTheEdges) {
  // Times whose microsecond value sits on an exact binary half at the
  // third decimal, where printf rounds to even.
  const std::vector<double> ties = {0.5625e-6, 1.0625e-6, 1.1875e-6,
                                    2.5625e-6, 12.5625e-6, -2.5625e-6};
  for (const double t : ties) {
    const double thousandths = t * 1e6 * 1000;
    ASSERT_EQ(thousandths - std::floor(thousandths), 0.5) << t;
  }
  std::vector<double> times = {
      0.0,  -0.0, -1.5, -2.5e-7, -1e-12, 1e-5,
      std::numeric_limits<double>::denorm_min(),
      0x1p53 / 1e6, 1e11, 300.0, 299.99999999, 1.0 / 3.0};
  times.insert(times.end(), ties.begin(), ties.end());

  std::ostringstream out;
  std::vector<std::string> expected;
  ChromeTraceWriter writer(&out);
  for (const double t : times) {
    DecideAt(writer, t);
    expected.push_back(Printf("%.3f", t * 1e6));
  }
  writer.Finish();
  EXPECT_EQ(ValuesOf(out.str(), "ts"), expected);
}

// Every "instr" must be the bytes of "%.17g", on the integer path and
// off it.
TEST(ChromeTraceNumberTest, InstructionCountsMatchPrintfAtTheEdges) {
  const double below_1e17 = std::nextafter(1e17, 0.0);
  const std::vector<double> values = {
      0.0,          -0.0,         1.0,
      -1.0,         123.0,        -1.5,
      -123456789.0, 0x1p53,       0x1p53 + 2,
      -0x1p53,      below_1e17,   1e17,
      -below_1e17,  -1e17,        0x1p63,
      1e-5,         0.1,          1.0 / 3.0,
      2.5,          1e300,        -1e-300,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min()};

  std::ostringstream out;
  std::vector<std::string> expected;
  ChromeTraceWriter writer(&out);
  core::SystemObserver::DispatchInfo dispatch;
  dispatch.kind = core::SystemObserver::DispatchKind::kUpdaterTransfer;
  for (const double v : values) {
    dispatch.instructions = v;
    writer.OnDispatch(1.0, dispatch);
    writer.OnSegmentComplete(1.0, dispatch);
    expected.push_back(Printf("%.17g", v));
  }
  writer.Finish();
  EXPECT_EQ(ValuesOf(out.str(), "instr"), expected);
}

// The "ts" text is formatted once per distinct time and reused while
// the time repeats; 0.0 and -0.0 compare equal but must not share it.
TEST(ChromeTraceNumberTest, RepeatedTimesKeepTheirOwnStamp) {
  const std::vector<double> times = {3.0,      3.0, 3.0, 4.000001,
                                     4.000001, 3.0, 3.0, 0.0,
                                     -0.0,     -0.0, 0.0};
  std::ostringstream out;
  std::vector<std::string> expected;
  ChromeTraceWriter writer(&out);
  for (const double t : times) {
    DecideAt(writer, t);
    expected.push_back(Printf("%.3f", t * 1e6));
  }
  // A span left open closes at the last stamp.
  core::SystemObserver::DispatchInfo dispatch;
  dispatch.kind = core::SystemObserver::DispatchKind::kUpdaterTransfer;
  writer.OnDispatch(5.5, dispatch);
  writer.Finish();
  expected.insert(expected.end(), 2, "5500000.000");
  EXPECT_EQ(ValuesOf(out.str(), "ts"), expected);
}

}  // namespace
}  // namespace strip::obs::trace
