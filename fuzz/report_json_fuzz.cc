// Fuzz target: the report JSON reader and the artifact readers on it.
//
// strip_report reads telemetry documents, sweep cells and benchmark
// JSON that other runs, other revisions or people wrote. On arbitrary
// bytes ParseJson must return a document or reject with an error set.
// An accepted document then goes through the telemetry, sweep-cell and
// benchmark-document readers, which must likewise return a document or
// an error: never crash, never reject silently.

#include <cstdint>
#include <string>

#include "fuzz/standalone_driver.h"
#include "obs/report/artifact.h"
#include "obs/report/json.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  namespace report = strip::obs::report;
  const std::string text(reinterpret_cast<const char*>(data), size);
  std::string error;
  const auto doc = report::ParseJson(text, &error);
  if (!doc.has_value()) {
    if (error.empty()) __builtin_trap();
    return 0;
  }
  error.clear();
  if (!report::ParseTelemetryDoc("input", *doc, &error).has_value() &&
      error.empty()) {
    __builtin_trap();
  }
  error.clear();
  if (!report::ParseSweepCellDoc("input", *doc, &error).has_value() &&
      error.empty()) {
    __builtin_trap();
  }
  error.clear();
  if (!report::ParseBenchDoc("input", *doc, &error).has_value() &&
      error.empty()) {
    __builtin_trap();
  }
  return 0;
}
