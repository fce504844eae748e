#include "server/router.h"

#include <algorithm>
#include <utility>

#include "server/protocol.h"
#include "service/graph_registry.h"
#include "service/wire.h"
#include "util/fingerprint.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/strings.h"

namespace rwdom {
namespace {

/// One ring point: the hash of "address#vnode". Length-prefixed string
/// hashing (UpdateString) keeps "a#11" and "a1#1" distinct.
uint64_t RingPoint(const std::string& address, int vnode) {
  Fingerprint fp;
  fp.UpdateString(address);
  fp.UpdatePod(static_cast<int64_t>(vnode));
  return fp.Digest();
}

uint64_t NameHash(std::string_view name) {
  Fingerprint fp;
  fp.UpdateString(name);
  return fp.Digest();
}

/// The cached link to `address` in `clients`, connecting on first use.
Result<QueryClient*> BackendFor(const std::string& address,
                                std::map<std::string, QueryClient>& clients) {
  auto it = clients.find(address);
  if (it != clients.end()) return &it->second;
  const size_t colon = address.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("backend address needs HOST:PORT: " +
                                   address);
  }
  RWDOM_ASSIGN_OR_RETURN(int64_t port,
                         ParseInt64(address.substr(colon + 1)));
  RWDOM_ASSIGN_OR_RETURN(
      QueryClient client,
      QueryClient::Connect(address.substr(0, colon),
                           static_cast<int>(port)));
  return &clients.emplace(address, std::move(client)).first->second;
}

FrontOptions FrontFor(const RouterOptions& options) {
  FrontOptions front;
  front.host = options.host;
  front.port = options.port;
  front.threads = options.threads;
  front.max_connections = options.max_connections;
  front.retry_after_ms = options.retry_after_ms;
  front.write_timeout_ms = options.write_timeout_ms;
  front.max_request_bytes = options.max_request_bytes;
  front.role = "router";
  return front;
}

}  // namespace

HashRing::HashRing(std::vector<std::string> backends)
    : backends_(std::move(backends)) {
  points_.reserve(backends_.size() * kVirtualNodesPerBackend);
  for (size_t i = 0; i < backends_.size(); ++i) {
    for (int v = 0; v < kVirtualNodesPerBackend; ++v) {
      points_.emplace_back(RingPoint(backends_[i], v), i);
    }
  }
  std::sort(points_.begin(), points_.end());
}

std::vector<const std::string*> HashRing::RouteOrder(
    std::string_view name) const {
  std::vector<const std::string*> order;
  if (points_.empty()) return order;
  order.reserve(backends_.size());
  std::vector<bool> seen(backends_.size(), false);
  const uint64_t hash = NameHash(name);
  auto start = std::lower_bound(
      points_.begin(), points_.end(),
      std::make_pair(hash, static_cast<size_t>(0)));
  for (size_t walked = 0;
       walked < points_.size() && order.size() < backends_.size();
       ++walked) {
    if (start == points_.end()) start = points_.begin();
    if (!seen[start->second]) {
      seen[start->second] = true;
      order.push_back(&backends_[start->second]);
    }
    ++start;
  }
  return order;
}

QueryRouter::QueryRouter(std::vector<std::string> backends,
                         RouterOptions options)
    : ring_(std::move(backends)),
      options_(std::move(options)),
      front_(FrontFor(options_),
             {/*new_connection=*/
              [this] {
                return LineHandler(
                    [this, clients = BackendClients()](
                        const std::string& line) mutable {
                      return RouteLine(line, clients);
                    });
              },
              /*on_oversized_line=*/
              [this] { requests_error_.fetch_add(1); }}) {
  RWDOM_CHECK(!ring_.backends().empty()) << "QueryRouter needs backends";
}

Status QueryRouter::Start() {
  // Probe the backends for their capability tags (best effort — a down
  // backend just contributes nothing) and greet clients with the union
  // plus "router", so feature detection works one hop removed.
  std::vector<std::string> capabilities;
  const auto add_capability = [&capabilities](const std::string& tag) {
    if (std::find(capabilities.begin(), capabilities.end(), tag) ==
        capabilities.end()) {
      capabilities.push_back(tag);
    }
  };
  for (const std::string& address : ring_.backends()) {
    BackendClients probed;
    auto client = BackendFor(address, probed);
    if (!client.ok()) continue;
    for (const std::string& tag : (*client)->server_greeting().capabilities) {
      add_capability(tag);
    }
  }
  if (capabilities.empty()) capabilities = BaseCapabilities();
  add_capability("router");
  return front_.Start(GreetingLine(capabilities));
}

std::string QueryRouter::RouteLine(const std::string& line,
                                   BackendClients& clients) {
  // The strict v3 parse runs here too — a malformed line is answered by
  // the router with the exact wording a backend would use, and the
  // "graph" member is what the ring hashes.
  auto parsed = ParseRequestLine(line);
  if (!parsed.ok()) {
    requests_error_.fetch_add(1);
    return ErrorResponseLine(StatusCodeToString(parsed.status().code()),
                             parsed.status().message());
  }
  if (parsed->command == "server_stats" || parsed->command == "shutdown") {
    return FanOutAdmin(line, clients, parsed->command == "shutdown");
  }
  // An explicit {"graph":"default"} and an omitted graph must land on
  // the same backend, so normalize before hashing.
  const std::string graph =
      parsed->graph.empty() ? std::string(kDefaultGraphName) : parsed->graph;
  for (const std::string* address : ring_.RouteOrder(graph)) {
    auto client = BackendFor(*address, clients);
    if (!client.ok()) {
      // Nothing was sent to this backend; the next ring position is a
      // safe retry.
      failovers_.fetch_add(1);
      continue;
    }
    auto response = (*client)->Roundtrip(line);
    if (!response.ok()) {
      // Mid-request transport error: the backend may have executed the
      // line, so replaying it (here or on another backend) is not safe.
      // Report Unavailable with a backoff hint; the client's retry
      // policy decides, and its retry reconnects around the dead
      // backend.
      clients.erase(*address);
      requests_error_.fetch_add(1);
      return ErrorResponseLine(
          "Unavailable",
          "backend " + *address +
              " failed mid-request: " + response.status().message(),
          options_.retry_after_ms);
    }
    requests_proxied_.fetch_add(1);
    return *response;
  }
  requests_error_.fetch_add(1);
  return ErrorResponseLine(
      "Unavailable",
      "no reachable backend for graph \"" + graph + "\"",
      options_.retry_after_ms);
}

std::string QueryRouter::FanOutAdmin(const std::string& line,
                                     BackendClients& clients,
                                     bool is_shutdown) {
  admin_fanouts_.fetch_add(1);
  JsonWriter json;
  json.BeginObject();
  json.Key("router").BeginObject();
  json.Key("backends").Int(static_cast<int64_t>(ring_.backends().size()));
  if (is_shutdown) json.Key("shutting_down").Bool(true);
  json.Key("responses").BeginObject();
  for (const std::string& address : ring_.backends()) {
    json.Key(address);
    auto client = BackendFor(address, clients);
    if (!client.ok()) {
      json.Raw(ErrorResponseLine(
          StatusCodeToString(client.status().code()),
          client.status().message()));
      continue;
    }
    auto response = (*client)->Roundtrip(line);
    if (!response.ok()) {
      clients.erase(address);
      json.Raw(ErrorResponseLine("Unavailable",
                                 "backend " + address + " failed mid-request: " +
                                     response.status().message(),
                                 options_.retry_after_ms));
      continue;
    }
    json.Raw(*response);
  }
  json.EndObject();
  json.EndObject();
  json.EndObject();
  requests_proxied_.fetch_add(1);
  // The shutdown response still goes out to this client; the router
  // stops accepting afterwards, exactly like a backend's own shutdown.
  if (is_shutdown) front_.BeginShutdown();
  return json.ToString();
}

RouterStats QueryRouter::stats() const {
  const FrontStats front = front_.stats();
  RouterStats stats;
  stats.connections_accepted = front.connections_accepted;
  stats.connections_rejected = front.connections_rejected;
  stats.active_connections = front.active_connections;
  stats.requests_proxied = requests_proxied_.load();
  stats.requests_error = requests_error_.load();
  stats.failovers = failovers_.load();
  stats.admin_fanouts = admin_fanouts_.load();
  return stats;
}

}  // namespace rwdom
