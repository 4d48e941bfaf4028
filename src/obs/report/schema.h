// A minimal JSON Schema validator for the telemetry contract.
//
// docs/telemetry.schema.json is the formal, machine-checkable
// description of strip.telemetry/v4; the test suite validates every
// telemetry document it writes against it, so schema drift is caught
// where it originates (the writer) instead of in downstream parsers.
// The validator implements the subset of JSON Schema the contract
// uses — types, required properties, additionalProperties, items /
// prefixItems, enum / const, numeric bounds — and rejects schemas
// using anything else, so a schema edit cannot silently disable
// validation.

#ifndef STRIP_OBS_REPORT_SCHEMA_H_
#define STRIP_OBS_REPORT_SCHEMA_H_

#include <string>

#include "obs/report/json.h"

namespace strip::obs::report {

// Validates `doc` against `schema`. On failure returns false with
// *error = "<json path>: reason" for the first violation found
// (document order, so failures are deterministic).
bool ValidateJsonSchema(const JsonValue& schema, const JsonValue& doc,
                        std::string* error);

}  // namespace strip::obs::report

#endif  // STRIP_OBS_REPORT_SCHEMA_H_
