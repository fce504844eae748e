// Wire-protocol versioning for the JSONL query protocol.
//
// Protocol history:
//   1  the original unversioned protocol: '\n'-framed JSONL requests,
//      one response line each, no greeting — a client only learned what
//      the server could do by trying.
//   2  adds (a) a one-line JSON greeting sent by the server immediately
//      on accept — {"rwdom": {"protocol_version": N, "capabilities":
//      [...]}} — so clients can detect cache-aware servers before the
//      first request, and (b) "protocol_version" + "capabilities" +
//      persistence counters in the `server_stats` response.
//   3  adds multi-graph tenancy: request lines accept an optional
//      `"graph": "name"` member naming the served substrate to run
//      against (omitted = the default graph, so every v2 line is a
//      valid v3 line with identical semantics), the "multi_graph"
//      capability tag, and a per-graph "graphs" section in
//      `server_stats` when more than one graph is served. Unknown
//      top-level request members are now rejected with
//      invalid_argument instead of silently ignored.
//
// The request/response framing itself is unchanged across 1 -> 3; the
// greeting is purely additive, which is why the version lives in its own
// header: bumping it is an API event, not a server implementation detail.
#ifndef RWDOM_SERVER_PROTOCOL_H_
#define RWDOM_SERVER_PROTOCOL_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"

namespace rwdom {

inline constexpr int kProtocolVersion = 3;

/// Capability tags every rwdom server speaks. `rwdom serve` appends
/// feature-gated tags (e.g. "cache" when --cache_dir is attached);
/// clients must treat unknown tags as ignorable.
inline std::vector<std::string> BaseCapabilities() {
  return {"jsonl", "batch_commands", "multi_graph", "server_stats",
          "shutdown"};
}

/// The greeting every accepted connection receives before anything
/// else: {"rwdom":{"protocol_version":N,"capabilities":[...]}}. No
/// trailing newline.
inline std::string GreetingLine(const std::vector<std::string>& capabilities) {
  JsonWriter json;
  json.BeginObject().Key("rwdom").BeginObject();
  json.Key("protocol_version").Int(kProtocolVersion);
  json.Key("capabilities").BeginArray();
  for (const std::string& capability : capabilities) json.String(capability);
  json.EndArray().EndObject().EndObject();
  return json.ToString();
}

/// The protocol's one error-line shape, shared by the server and the
/// router so clients see identical framing from both:
/// {"error":{"code":...,"message":...[,"retry_after_ms":N]}}. A
/// negative retry_after_ms omits the member. No trailing newline —
/// callers frame the line themselves.
inline std::string ErrorResponseLine(std::string_view code,
                                     const std::string& message,
                                     int retry_after_ms = -1) {
  JsonWriter json;
  json.BeginObject()
      .Key("error")
      .BeginObject()
      .Key("code")
      .String(std::string(code))
      .Key("message")
      .String(message);
  if (retry_after_ms >= 0) {
    json.Key("retry_after_ms").Int(retry_after_ms);
  }
  json.EndObject().EndObject();
  return json.ToString();
}

}  // namespace rwdom

#endif  // RWDOM_SERVER_PROTOCOL_H_
