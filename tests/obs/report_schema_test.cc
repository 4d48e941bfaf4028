// JSON Schema validation of the telemetry contract.
//
// Two layers: unit tests of the validator subset itself, and the
// contract test — every telemetry document this suite can produce
// (uniprocessor and per-shard) must validate against
// docs/telemetry.schema.json, so the writer and the published schema
// cannot drift apart silently. The checked-in goldens are validated
// too, pinning the schema to the exact bytes under review.

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/sharded_config.h"
#include "core/system.h"
#include "exp/experiment.h"
#include "obs/report/json.h"
#include "obs/report/schema.h"
#include "obs/telemetry.h"

namespace strip::obs::report {
namespace {

constexpr char kSchemaPath[] =
    STRIP_TEST_SOURCE_DIR "/../docs/telemetry.schema.json";

JsonValue ParseOrDie(const std::string& text, const std::string& what) {
  std::string error;
  const std::optional<JsonValue> value = ParseJson(text, &error);
  EXPECT_TRUE(value.has_value()) << what << ": " << error;
  return value.value_or(JsonValue{});
}

JsonValue LoadSchema() {
  std::ifstream in(kSchemaPath, std::ios::binary);
  EXPECT_TRUE(in) << kSchemaPath;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseOrDie(buffer.str(), kSchemaPath);
}

// --- validator unit tests --------------------------------------------------

TEST(SchemaValidatorTest, TypeAndRequiredChecks) {
  const JsonValue schema = ParseOrDie(
      "{\"type\": \"object\", \"required\": [\"a\"],"
      " \"properties\": {\"a\": {\"type\": \"number\"}}}",
      "schema");
  std::string error;
  EXPECT_TRUE(ValidateJsonSchema(schema, ParseOrDie("{\"a\": 1}", "doc"),
                                 &error))
      << error;
  EXPECT_FALSE(ValidateJsonSchema(schema, ParseOrDie("{}", "doc"), &error));
  EXPECT_NE(error.find("a"), std::string::npos) << error;
  EXPECT_FALSE(ValidateJsonSchema(
      schema, ParseOrDie("{\"a\": \"x\"}", "doc"), &error));
}

TEST(SchemaValidatorTest, IntegerTypeRejectsFractions) {
  const JsonValue schema =
      ParseOrDie("{\"type\": \"integer\", \"minimum\": 0}", "schema");
  std::string error;
  EXPECT_TRUE(ValidateJsonSchema(schema, ParseOrDie("3", "doc"), &error));
  EXPECT_FALSE(
      ValidateJsonSchema(schema, ParseOrDie("3.5", "doc"), &error));
  EXPECT_FALSE(ValidateJsonSchema(schema, ParseOrDie("-1", "doc"), &error));
}

TEST(SchemaValidatorTest, UnionTypesEnumAndConst) {
  const JsonValue schema = ParseOrDie(
      "{\"type\": \"object\", \"properties\": {"
      "\"n\": {\"type\": [\"number\", \"null\"]},"
      "\"p\": {\"enum\": [\"UF\", \"OD\"]},"
      "\"s\": {\"const\": \"v3\"}}}",
      "schema");
  std::string error;
  EXPECT_TRUE(ValidateJsonSchema(
      schema,
      ParseOrDie("{\"n\": null, \"p\": \"UF\", \"s\": \"v3\"}", "doc"),
      &error))
      << error;
  EXPECT_FALSE(ValidateJsonSchema(
      schema, ParseOrDie("{\"p\": \"XX\"}", "doc"), &error));
  EXPECT_FALSE(ValidateJsonSchema(
      schema, ParseOrDie("{\"s\": \"v2\"}", "doc"), &error));
}

TEST(SchemaValidatorTest, AdditionalPropertiesFalseCatchesDrift) {
  const JsonValue schema = ParseOrDie(
      "{\"type\": \"object\", \"additionalProperties\": false,"
      " \"properties\": {\"a\": {}}}",
      "schema");
  std::string error;
  EXPECT_TRUE(
      ValidateJsonSchema(schema, ParseOrDie("{\"a\": 1}", "doc"), &error));
  EXPECT_FALSE(ValidateJsonSchema(
      schema, ParseOrDie("{\"a\": 1, \"b\": 2}", "doc"), &error));
  EXPECT_NE(error.find("b"), std::string::npos) << error;
}

TEST(SchemaValidatorTest, ArrayItemsAndBounds) {
  const JsonValue schema = ParseOrDie(
      "{\"type\": \"array\", \"minItems\": 2, \"maxItems\": 2,"
      " \"items\": {\"type\": \"number\", \"maximum\": 10}}",
      "schema");
  std::string error;
  EXPECT_TRUE(
      ValidateJsonSchema(schema, ParseOrDie("[1, 2]", "doc"), &error));
  EXPECT_FALSE(
      ValidateJsonSchema(schema, ParseOrDie("[1]", "doc"), &error));
  EXPECT_FALSE(
      ValidateJsonSchema(schema, ParseOrDie("[1, 11]", "doc"), &error));
}

TEST(SchemaValidatorTest, UnknownKeywordIsAnErrorNotSilence) {
  // A schema using a keyword outside the implemented subset must be
  // rejected, otherwise an edit could silently turn validation off.
  const JsonValue schema =
      ParseOrDie("{\"type\": \"object\", \"patternProperties\": {}}",
                 "schema");
  std::string error;
  EXPECT_FALSE(
      ValidateJsonSchema(schema, ParseOrDie("{}", "doc"), &error));
  EXPECT_NE(error.find("patternProperties"), std::string::npos) << error;
}

// --- the telemetry contract ------------------------------------------------

std::string ProduceDocument(std::uint64_t seed) {
  core::Config config;
  config.sim_seconds = 5.0;
  config.warmup_seconds = 1.0;
  std::ostringstream out;
  exp::ClusterRunHook hook = [&out](core::Cluster& cluster,
                                    const exp::RunContext& context)
      -> exp::RunFinisher {
    RunTelemetry::Options options;
    options.seed = context.seed;
    auto telemetry =
        std::make_shared<RunTelemetry>(&cluster.shard(0), options);
    return [telemetry, &out](const core::RunMetrics& metrics) {
      telemetry->WriteJson(out, metrics);
    };
  };
  exp::RunContext context;
  context.seed = seed;
  core::ShardedConfig sharded;
  sharded.base = config;
  exp::RunOnce(sharded, seed, hook, context);
  return out.str();
}

TEST(TelemetrySchemaTest, FreshRunDocumentValidates) {
  const JsonValue schema = LoadSchema();
  std::string error;
  EXPECT_TRUE(ValidateJsonSchema(
      schema, ParseOrDie(ProduceDocument(1), "run telemetry"), &error))
      << error;
  EXPECT_TRUE(ValidateJsonSchema(
      schema, ParseOrDie(ProduceDocument(99), "run telemetry"), &error))
      << error;
}

TEST(TelemetrySchemaTest, CheckedInGoldensValidate) {
  const JsonValue schema = LoadSchema();
  for (const char* name :
       {"telemetry_golden.json", "determinism_telemetry_v4.json",
        "determinism_telemetry_v4.shard0.json",
        "determinism_telemetry_v4.shard1.json"}) {
    const std::string path =
        std::string(STRIP_TEST_SOURCE_DIR "/obs/testdata/") + name;
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    EXPECT_TRUE(
        ValidateJsonSchema(schema, ParseOrDie(buffer.str(), path), &error))
        << path << ": " << error;
  }
}

TEST(TelemetrySchemaTest, DriftIsCaught) {
  const JsonValue schema = LoadSchema();
  // Inject an unknown metric into an otherwise-valid document: the
  // additionalProperties: false contract must flag it.
  std::string doc = ProduceDocument(1);
  const std::string needle = "\"p_md\":";
  const std::size_t at = doc.find(needle);
  ASSERT_NE(at, std::string::npos);
  doc.insert(at, "\"mystery_metric\": 1,\n    ");
  std::string error;
  EXPECT_FALSE(ValidateJsonSchema(
      schema, ParseOrDie(doc, "perturbed telemetry"), &error));
  EXPECT_NE(error.find("mystery_metric"), std::string::npos) << error;
}

TEST(TelemetrySchemaTest, V4InterconnectKeysAreRequired) {
  const JsonValue schema = LoadSchema();
  const std::string doc = ProduceDocument(1);
  // The writer stamps the v4 schema id and every interconnect
  // robustness key, even on a uniprocessor run where they are zero.
  EXPECT_NE(doc.find("\"strip.telemetry/v4\""), std::string::npos);
  for (const char* key :
       {"remote_retries", "remote_timeouts", "remote_degraded_reads",
        "txns_remote_unavailable", "link_messages_lost",
        "partition_windows", "partition_seconds", "time_to_reconnect"}) {
    const std::string quoted = std::string("\"") + key + "\":";
    const std::size_t at = doc.find(quoted);
    ASSERT_NE(at, std::string::npos) << key;
    // Deleting the key must fail validation: the v4 contract lists all
    // of them as required, so a writer regression cannot drop one
    // silently.
    std::string gutted = doc;
    const std::size_t line_end = gutted.find('\n', at);
    ASSERT_NE(line_end, std::string::npos);
    std::size_t line_start = gutted.rfind('\n', at);
    ASSERT_NE(line_start, std::string::npos);
    gutted.erase(line_start, line_end - line_start);
    std::string error;
    EXPECT_FALSE(ValidateJsonSchema(
        schema, ParseOrDie(gutted, "gutted telemetry"), &error))
        << key;
    EXPECT_NE(error.find(key), std::string::npos) << error;
  }
}

}  // namespace
}  // namespace strip::obs::report
