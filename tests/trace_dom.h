// DOM reference writer/reader for Chrome-trace (Kineto) JSON.
//
// The shipped ingest and emit paths are streaming: SAX parse into the
// EventTable columns (trace::parse_rank_trace_json) and trace::JsonWriter
// (trace::to_json_string). These two functions build and walk a full
// json::Value tree instead. They are the executable reference the streaming
// paths are golden-tested against (byte-identical output, identical parsed
// traces), so they live with the tests, not in the library.
#pragma once

#include "json/json.h"
#include "trace/event.h"

namespace lumos::trace {

/// Serializes a rank trace to a Chrome-trace JSON value (DOM form);
/// json::write of the result is byte-identical to to_json_string.
json::Value to_json(const RankTrace& trace);

/// Parses a Chrome-trace JSON value into a rank trace. Unknown categories
/// are skipped (real Kineto traces contain many auxiliary event types).
/// Throws json::TypeError / std::out_of_range on structurally invalid input,
/// with the same missing-traceEvents message as the SAX path.
RankTrace rank_trace_from_json(const json::Value& root);

}  // namespace lumos::trace
