#include "server/server.h"

#include <tuple>
#include <utility>

#include "util/json.h"
#include "util/logging.h"
#include "util/strings.h"

namespace rwdom {

namespace {

FrontOptions FrontFor(const ServerOptions& options) {
  FrontOptions front;
  front.host = options.host;
  front.port = options.port;
  front.threads = options.threads;
  front.max_connections = options.max_connections;
  front.max_queue_depth = options.max_queue_depth;
  front.retry_after_ms = options.retry_after_ms;
  front.write_timeout_ms = options.write_timeout_ms;
  front.max_request_bytes = options.max_request_bytes;
  front.write_buffer_bytes = options.write_buffer_bytes;
  front.role = "server";
  return front;
}

}  // namespace

QueryServer::QueryServer(GraphRegistry* registry, LineExecutor executor,
                         ServerOptions options)
    : registry_(registry),
      executor_(std::move(executor)),
      options_(std::move(options)),
      front_(FrontFor(options_),
             {/*new_connection=*/
              [this] {
                return LineHandler([this](const std::string& line) {
                  return HandleLine(line);
                });
              },
              /*on_oversized_line=*/
              [this] {
                oversized_requests_.fetch_add(1);
                queries_error_.fetch_add(1);
              }}) {
  RWDOM_CHECK(registry_ != nullptr);
  RWDOM_CHECK(registry_->default_context() != nullptr)
      << "QueryServer needs a default graph";
  RWDOM_CHECK(executor_ != nullptr);
  for (const std::string& name : registry_->GraphNames()) {
    graph_requests_.emplace(std::piecewise_construct,
                            std::forward_as_tuple(name),
                            std::forward_as_tuple(0));
  }
}

Status QueryServer::Start() {
  return front_.Start(GreetingLine(options_.capabilities));
}

std::string QueryServer::HandleLine(const std::string& line) {
  // The request's clock starts when its line is dispatched, which under
  // the event loop is also when its bytes arrived.
  const Deadline deadline =
      options_.request_timeout_ms > 0
          ? Deadline::AfterMillis(clock(), options_.request_timeout_ms)
          : Deadline::Infinite();
  // One strict parse of the protocol-v3 envelope up front: malformed
  // lines and unknown members are rejected here with the exact wording
  // batch scripts print, before any dispatch work.
  auto parsed = ParseRequestLine(line);
  if (!parsed.ok()) {
    queries_error_.fetch_add(1);
    return ErrorResponseLine(StatusCodeToString(parsed.status().code()),
                             parsed.status().message());
  }
  // The two admin requests the server answers itself.
  if (parsed->command == "shutdown") {
    if (!parsed->flags.empty() || !parsed->graph.empty()) {
      queries_error_.fetch_add(1);
      return ErrorResponseLine(
          "InvalidArgument",
          "shutdown is fleet-wide and takes no \"flags\" or \"graph\"");
    }
    queries_ok_.fetch_add(1);
    front_.BeginShutdown();
    JsonWriter json;
    json.BeginObject();
    json.Key("ok").Bool(true);
    json.Key("shutting_down").Bool(true);
    json.EndObject();
    return json.ToString();
  }
  if (parsed->command == "server_stats") {
    if (!parsed->flags.empty()) {
      queries_error_.fetch_add(1);
      return ErrorResponseLine(
          "InvalidArgument",
          "server_stats takes no \"flags\" (use \"graph\" to filter)");
    }
    const std::string* filter = nullptr;
    if (!parsed->graph.empty()) {
      auto resolved = registry_->Resolve(parsed->graph);
      if (!resolved.ok()) {
        queries_error_.fetch_add(1);
        return ErrorResponseLine(StatusCodeToString(resolved.status().code()),
                                 resolved.status().message());
      }
      filter = resolved->name;
    }
    queries_ok_.fetch_add(1);
    return StatsResponseLine(filter);
  }
  // Dispatch boundary 1: a request already past its budget is answered
  // without doing the work it is too late for.
  if (deadline.Expired(clock())) {
    deadline_exceeded_.fetch_add(1);
    queries_error_.fetch_add(1);
    return ErrorResponseLine(
        "DeadlineExceeded",
        StrFormat("request exceeded --request_timeout_ms=%d before dispatch",
                  options_.request_timeout_ms));
  }
  auto resolved = registry_->Resolve(parsed->graph);
  if (!resolved.ok()) {
    queries_error_.fetch_add(1);
    return ErrorResponseLine(StatusCodeToString(resolved.status().code()),
                             resolved.status().message());
  }
  graph_requests_.find(*resolved->name)->second.fetch_add(1);
  std::string response;
  Status status = executor_(*parsed, *resolved->context, &response);
  // Dispatch boundary 2: the work ran long. The answer is correct but
  // contractually late — the client asked for a bounded wait, so late
  // is an error (and the index the work warmed stays cached, so a retry
  // without the deadline pressure is cheap).
  if (status.ok() && deadline.Expired(clock())) {
    deadline_exceeded_.fetch_add(1);
    queries_error_.fetch_add(1);
    return ErrorResponseLine(
        "DeadlineExceeded",
        StrFormat("request exceeded --request_timeout_ms=%d during execution",
                  options_.request_timeout_ms));
  }
  if (!status.ok()) {
    queries_error_.fetch_add(1);
    return ErrorResponseLine(StatusCodeToString(status.code()), status.message());
  }
  queries_ok_.fetch_add(1);
  return response;
}

ServerStats QueryServer::stats() const {
  const FrontStats front = front_.stats();
  ServerStats stats;
  stats.connections_accepted = front.connections_accepted;
  stats.connections_rejected = front.connections_rejected;
  stats.active_connections = front.active_connections;
  stats.queries_ok = queries_ok_.load();
  stats.queries_error = queries_error_.load();
  stats.requests_shed = front.requests_shed;
  stats.deadline_exceeded = deadline_exceeded_.load();
  stats.oversized_requests = oversized_requests_.load();
  stats.write_timeouts = front.write_timeouts;
  stats.backpressure_pauses = front.backpressure_pauses;
  stats.graph_loads = static_cast<int64_t>(registry_->size());
  stats.graphs.reserve(registry_->size());
  for (const ResolvedGraph& graph : registry_->Graphs()) {
    GraphServeStats slice;
    slice.name = *graph.name;
    slice.substrate = graph.context->substrate().kind();
    slice.substrate_fingerprint = graph.context->substrate_fingerprint();
    slice.index_hits = graph.context->index_hits();
    slice.metric_memo_hits = graph.context->metric_memo_hits();
    slice.metric_memo_misses = graph.context->metric_memo_misses();
    slice.index_builds = graph.context->index_builds();
    slice.index_evictions = graph.context->index_evictions();
    slice.admission_rejections = graph.context->admission_rejections();
    auto requests = graph_requests_.find(*graph.name);
    slice.requests =
        requests != graph_requests_.end() ? requests->second.load() : 0;
    stats.index_builds += slice.index_builds;
    stats.index_hits += slice.index_hits;
    stats.metric_memo_hits += slice.metric_memo_hits;
    stats.metric_memo_misses += slice.metric_memo_misses;
    stats.index_recovered += graph.context->index_recovered();
    stats.index_evictions += slice.index_evictions;
    stats.admission_rejections += slice.admission_rejections;
    stats.cached_bytes += graph.context->TotalMemoryBytes();
    for (const auto& [key, index] : graph.context->CachedIndexes()) {
      slice.cached_index_bytes += index->MemoryUsageBytes();
      stats.cached_index_raw_bytes += index->UncompressedBytes();
    }
    stats.cached_index_bytes += slice.cached_index_bytes;
    const PersistenceInfo persistence = graph.context->persistence();
    stats.persistence.snapshots_recovered += persistence.snapshots_recovered;
    stats.persistence.snapshots_rejected += persistence.snapshots_rejected;
    stats.persistence.checkpoints_written += persistence.checkpoints_written;
    stats.persistence.checkpoint_failures += persistence.checkpoint_failures;
    for (const std::string& reason : persistence.rejections) {
      stats.persistence.rejections.push_back(reason);
    }
    stats.graphs.push_back(std::move(slice));
  }
  stats.persistence.cache_dir =
      registry_->default_context()->persistence().cache_dir;
  // Health latch: "degraded" while the degradation counters are moving,
  // back to "ok" after one quiet interval. Reading advances the latch.
  const int64_t degradation_sum =
      stats.requests_shed + stats.deadline_exceeded +
      stats.oversized_requests + stats.write_timeouts +
      stats.index_evictions + stats.admission_rejections +
      stats.persistence.checkpoint_failures + stats.connections_rejected;
  const int64_t previous = last_degradation_sum_.exchange(degradation_sum);
  stats.health = degradation_sum > previous ? "degraded" : "ok";
  return stats;
}

std::string QueryServer::StatsResponseLine(
    const std::string* graph_filter) const {
  const ServerStats stats = this->stats();
  const QueryContext& default_context = *registry_->default_context();
  JsonWriter json;
  json.BeginObject();
  json.Key("server_stats").BeginObject();
  json.Key("protocol_version").Int(kProtocolVersion);
  json.Key("capabilities").BeginArray();
  for (const std::string& capability : options_.capabilities) {
    json.String(capability);
  }
  json.EndArray();
  // The top-level substrate keys stay the default graph's — exactly the
  // v2 response shape; named tenants appear in the "graphs" section.
  json.Key("substrate").String(default_context.substrate().kind());
  json.Key("substrate_fingerprint")
      .String(StrFormat("%016llx",
                        static_cast<unsigned long long>(
                            default_context.substrate_fingerprint())));
  json.Key("threads").Int(options_.threads);
  json.Key("io").String("epoll");
  json.Key("max_connections").Int(options_.max_connections);
  json.Key("graph_loads").Int(stats.graph_loads);
  json.Key("index_builds").Int(stats.index_builds);
  json.Key("index_hits").Int(stats.index_hits);
  json.Key("metric_memo_hits").Int(stats.metric_memo_hits);
  json.Key("metric_memo_misses").Int(stats.metric_memo_misses);
  json.Key("index_recovered").Int(stats.index_recovered);
  json.Key("cached_bytes").Int(stats.cached_bytes);
  json.Key("cached_index_bytes").Int(stats.cached_index_bytes);
  json.Key("cached_index_raw_bytes").Int(stats.cached_index_raw_bytes);
  json.Key("cache_dir").String(stats.persistence.cache_dir);
  json.Key("snapshots_recovered").Int(stats.persistence.snapshots_recovered);
  json.Key("snapshots_rejected").Int(stats.persistence.snapshots_rejected);
  json.Key("checkpoints_written").Int(stats.persistence.checkpoints_written);
  json.Key("checkpoint_failures").Int(stats.persistence.checkpoint_failures);
  json.Key("snapshot_rejections").BeginArray();
  for (const std::string& reason : stats.persistence.rejections) {
    json.String(reason);
  }
  json.EndArray();
  json.Key("queries_ok").Int(stats.queries_ok);
  json.Key("queries_error").Int(stats.queries_error);
  json.Key("connections_accepted").Int(stats.connections_accepted);
  json.Key("connections_rejected").Int(stats.connections_rejected);
  json.Key("active_connections").Int(stats.active_connections);
  json.Key("health").String(stats.health);
  json.Key("requests_shed").Int(stats.requests_shed);
  json.Key("deadline_exceeded").Int(stats.deadline_exceeded);
  json.Key("oversized_requests").Int(stats.oversized_requests);
  json.Key("write_timeouts").Int(stats.write_timeouts);
  json.Key("backpressure_pauses").Int(stats.backpressure_pauses);
  json.Key("index_evictions").Int(stats.index_evictions);
  json.Key("admission_rejections").Int(stats.admission_rejections);
  // The per-graph section appears only for multi-graph servers or an
  // explicit filter, keeping single-graph v2 responses byte-identical.
  if (registry_->multi_graph() || graph_filter != nullptr) {
    json.Key("graphs").BeginObject();
    for (const GraphServeStats& graph : stats.graphs) {
      if (graph_filter != nullptr && graph.name != *graph_filter) continue;
      json.Key(graph.name).BeginObject();
      json.Key("substrate").String(graph.substrate);
      json.Key("substrate_fingerprint")
          .String(StrFormat("%016llx", static_cast<unsigned long long>(
                                           graph.substrate_fingerprint)));
      json.Key("cached_index_bytes").Int(graph.cached_index_bytes);
      json.Key("index_hits").Int(graph.index_hits);
      json.Key("metric_memo_hits").Int(graph.metric_memo_hits);
      json.Key("metric_memo_misses").Int(graph.metric_memo_misses);
      json.Key("index_builds").Int(graph.index_builds);
      json.Key("index_evictions").Int(graph.index_evictions);
      json.Key("admission_rejections").Int(graph.admission_rejections);
      json.Key("requests").Int(graph.requests);
      json.EndObject();
    }
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  return json.ToString();
}

}  // namespace rwdom
