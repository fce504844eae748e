// perfbench_tool: the compiled half of the rwdom serving benchmark
// (perfbench/run.py drives it and `rwdom serve`). Subcommands:
//
//   env        compiler and build type of this build, as one JSON line.
//   reference  cold responses: every request line executed once through
//              ExecuteRequestToJsonLine on fresh QueryContexts (no server,
//              no snapshot, no shared cache), "seconds" normalized away.
//   load       closed-loop load generator: one thread and one TCP
//              connection per plan connection, each keeping up to
//              `window` requests in flight and sending the next only when
//              a response arrives. Every response is compared byte for
//              byte (modulo "seconds") with its reference.
//   trace      in-process replay of the workload's request lines with a
//              span around each call into a layer's public functions;
//              prints per-layer numbers and writes the spans at exit.
//
// Tenants are given as --tenant=NAME=PATH[,weighted][,directed]; the
// first one is registered as the default graph.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli/flag_parsing.h"
#include "cli/query_line.h"
#include "core/approx_greedy.h"
#include "core/min_seed_cover.h"
#include "eval/metrics.h"
#include "persist/artifact_cache.h"
#include "server/server.h"
#include "service/engine.h"
#include "service/graph_registry.h"
#include "service/render.h"
#include "service/wire.h"
#include "util/json.h"
#include "util/socket.h"
#include "walk/walk_source.h"
#include "wgraph/substrate.h"

namespace rwdom {
namespace {

using SteadyClock = std::chrono::steady_clock;

double MicrosBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Exits without running destructors, so it is safe from worker threads.
[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_tool: %s\n", message.c_str());
  std::fflush(nullptr);
  std::_Exit(1);
}

template <typename T>
T ValueOrDie(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).value();
}

// --key=value arguments; repeated keys keep every value in order.
using Args = std::multimap<std::string, std::string>;

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) Die("unexpected argument " + arg);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) Die("expected --key=value, got " + arg);
    args.emplace(arg.substr(2, eq - 2), arg.substr(eq + 1));
  }
  return args;
}

std::string Arg(const Args& args, const std::string& key,
                const std::string& fallback = "") {
  auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

std::string RequiredArg(const Args& args, const std::string& key) {
  auto it = args.find(key);
  if (it == args.end()) Die("missing --" + key);
  return it->second;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// Replaces the number after "seconds": with 0 (the only field that
// differs between runs) and returns the number that was there, or -1.
double NormalizeSeconds(std::string* response) {
  static const std::string kKey = "\"seconds\":";
  const size_t at = response->find(kKey);
  if (at == std::string::npos) return -1.0;
  const size_t begin = at + kKey.size();
  size_t end = begin;
  while (end < response->size() &&
         std::string_view("+-0123456789.eE").find((*response)[end]) !=
             std::string_view::npos) {
    ++end;
  }
  const double value = std::strtod(response->substr(begin, end - begin).c_str(),
                                   nullptr);
  response->replace(begin, end - begin, "0");
  return value;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// --- Tenants -------------------------------------------------------------

struct Tenant {
  std::string name;
  std::string path;
  SubstrateOptions options;
};

std::vector<Tenant> ParseTenants(const Args& args) {
  std::vector<Tenant> tenants;
  auto [begin, end] = args.equal_range("tenant");
  for (auto it = begin; it != end; ++it) {
    const std::string& spec = it->second;
    const size_t eq = spec.find('=');
    if (eq == std::string::npos) Die("--tenant wants NAME=PATH: " + spec);
    Tenant tenant;
    tenant.name = tenants.empty() ? kDefaultGraphName : spec.substr(0, eq);
    std::stringstream rest(spec.substr(eq + 1));
    std::getline(rest, tenant.path, ',');
    for (std::string option; std::getline(rest, option, ',');) {
      if (option == "weighted") {
        tenant.options.weights = SubstrateWeights::kForce;
      } else if (option == "directed") {
        tenant.options.directed = true;
      } else {
        Die("unknown tenant option " + option);
      }
    }
    tenants.push_back(std::move(tenant));
  }
  if (tenants.empty()) Die("at least one --tenant is required");
  return tenants;
}

std::unique_ptr<GraphRegistry> LoadRegistry(const std::vector<Tenant>& tenants,
                                            int64_t max_cache_bytes) {
  auto registry = std::make_unique<GraphRegistry>();
  registry->set_max_cache_bytes(max_cache_bytes);
  for (const Tenant& tenant : tenants) {
    LoadedSubstrate loaded = ValueOrDie(
        LoadSubstrate(tenant.path, tenant.options), "load " + tenant.path);
    Status added = registry->Add(
        tenant.name, std::make_unique<QueryContext>(std::move(loaded)));
    if (!added.ok()) Die(added.ToString());
  }
  return registry;
}

// Executes one request line the way `rwdom serve` does, minus the server.
Result<std::string> ExecuteLine(GraphRegistry& registry,
                                const std::string& line) {
  RWDOM_ASSIGN_OR_RETURN(ParsedRequest request, ParseRequestLine(line));
  RWDOM_ASSIGN_OR_RETURN(ResolvedGraph graph, registry.Resolve(request.graph));
  std::string response;
  RWDOM_RETURN_IF_ERROR(
      ExecuteRequestToJsonLine(request, *graph.context, &response));
  return response;
}

// --- env -------------------------------------------------------------------

int RunEnv() {
  JsonWriter json;
  json.BeginObject();
#if defined(__clang__)
  json.Key("compiler").String(std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  json.Key("compiler").String(std::string("gcc ") + __VERSION__);
#else
  json.Key("compiler").String("unknown");
#endif
  json.Key("build_type").String(PERFBENCH_BUILD_TYPE);
  json.EndObject();
  std::printf("%s\n", json.ToString().c_str());
  return 0;
}

// --- reference -------------------------------------------------------------

int RunReference(const Args& args) {
  std::unique_ptr<GraphRegistry> registry = LoadRegistry(ParseTenants(args), 0);
  const std::vector<std::string> lines = ReadLines(RequiredArg(args, "lines"));
  // Lines are independent and QueryContext is thread-safe, so four
  // workers share them; responses are written back in line order.
  std::vector<std::string> responses(lines.size());
  std::atomic<size_t> next{0};
  {
    std::vector<std::jthread> workers;
    for (int w = 0; w < 4; ++w) {
      workers.emplace_back([&] {
        for (size_t i = next++; i < lines.size(); i = next++) {
          responses[i] = ValueOrDie(ExecuteLine(*registry, lines[i]),
                                    "reference for " + lines[i]);
          NormalizeSeconds(&responses[i]);
        }
      });
    }
  }
  std::ofstream out(RequiredArg(args, "out"), std::ios::trunc);
  for (const std::string& response : responses) out << response << "\n";
  return out ? 0 : 1;
}

// --- load ------------------------------------------------------------------

struct PlanLine {
  std::string cls;
  std::string request;
  std::string reference;
};

struct PlanConnection {
  int window = 1;
  std::vector<PlanLine> lines;
};

// One completed (or lost) request.
struct Record {
  const PlanLine* line = nullptr;
  double done_s = 0.0;  // Completion time since the load started.
  double latency_us = 0.0;
  char status = 'x';  // o = ok, m = mismatch, e = error line, x = lost.
  double reported_s = -1.0;
};

struct ConnectionRun {
  std::vector<Record> records;
  int64_t sent = 0;
  std::string failure;
};

// Plan: one TSV line per request line,
// conn <TAB> window <TAB> class <TAB> request <TAB> reference.
std::vector<PlanConnection> ReadPlan(const std::string& path) {
  std::map<int, PlanConnection> by_id;
  for (const std::string& row : ReadLines(path)) {
    std::vector<std::string> cols;
    std::stringstream fields(row);
    for (std::string col; std::getline(fields, col, '\t');) {
      cols.push_back(col);
    }
    if (cols.size() != 5) Die("bad plan row: " + row);
    PlanConnection& conn = by_id[std::stoi(cols[0])];
    conn.window = std::max(1, std::stoi(cols[1]));
    conn.lines.push_back({cols[2], cols[3], cols[4]});
  }
  std::vector<PlanConnection> plan;
  for (auto& [_, conn] : by_id) plan.push_back(std::move(conn));
  return plan;
}

void DriveConnection(int port, const PlanConnection& conn,
                     SteadyClock::time_point start,
                     SteadyClock::time_point deadline, ConnectionRun* run) {
  auto connection = TcpConnect("127.0.0.1", port);
  if (!connection.ok()) {
    run->failure = connection.status().ToString();
    return;
  }
  LineReader reader(connection->get());
  std::string line;
  auto outcome = reader.ReadLine(&line);  // Greeting.
  if (!outcome.ok() || *outcome != LineReader::Outcome::kLine) {
    run->failure = "no greeting";
    return;
  }
  struct InFlight {
    const PlanLine* line;
    SteadyClock::time_point sent;
  };
  std::deque<InFlight> in_flight;
  size_t next = 0;
  while (true) {
    while (static_cast<int>(in_flight.size()) < conn.window &&
           SteadyClock::now() < deadline) {
      const PlanLine& plan_line = conn.lines[next++ % conn.lines.size()];
      in_flight.push_back({&plan_line, SteadyClock::now()});
      Status sent = SendAll(connection->get(), plan_line.request + "\n");
      if (!sent.ok()) {
        run->failure = sent.ToString();
        break;
      }
      ++run->sent;
    }
    if (in_flight.empty() || !run->failure.empty()) break;
    outcome = reader.ReadLine(&line);
    if (!outcome.ok() || *outcome != LineReader::Outcome::kLine) {
      run->failure = "connection closed with requests in flight";
      break;
    }
    const auto now = SteadyClock::now();
    const InFlight done = in_flight.front();
    in_flight.pop_front();
    Record record;
    record.line = done.line;
    record.done_s = std::chrono::duration<double>(now - start).count();
    record.latency_us = MicrosBetween(done.sent, now);
    record.reported_s = NormalizeSeconds(&line);
    if (line == done.line->reference) {
      record.status = 'o';
    } else {
      record.status = line.rfind("{\"error\"", 0) == 0 ? 'e' : 'm';
      static std::atomic<int> reported{0};
      if (reported++ < 5) {
        std::fprintf(stderr, "MISMATCH %s\n  want: %s\n  got:  %s\n",
                     done.line->request.c_str(),
                     done.line->reference.c_str(), line.c_str());
      }
    }
    run->records.push_back(record);
  }
  for (const InFlight& lost : in_flight) {
    run->records.push_back({lost.line, 0.0, 0.0, 'x', -1.0});
  }
}

int RunLoad(const Args& args) {
  const std::vector<PlanConnection> plan = ReadPlan(RequiredArg(args, "plan"));
  const int port = std::stoi(RequiredArg(args, "port"));
  const double seconds = std::stod(RequiredArg(args, "seconds"));
  std::vector<ConnectionRun> runs(plan.size());
  const auto start = SteadyClock::now();
  const auto deadline =
      start + std::chrono::duration_cast<SteadyClock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    std::vector<std::jthread> threads;
    for (size_t c = 0; c < plan.size(); ++c) {
      threads.emplace_back(DriveConnection, port, std::cref(plan[c]), start,
                           deadline, &runs[c]);
    }
  }
  std::ofstream out(RequiredArg(args, "out"), std::ios::trunc);
  int64_t sent = 0;
  std::string failures;
  for (const ConnectionRun& run : runs) {
    sent += run.sent;
    if (!run.failure.empty()) failures += run.failure + "; ";
    for (const Record& r : run.records) {
      out << r.line->cls << '\t' << r.done_s << '\t' << r.latency_us << '\t'
          << r.status << '\t' << r.reported_s << '\n';
    }
  }
  JsonWriter json;
  json.BeginObject();
  json.Key("sent").Int(sent);
  json.Key("failures").String(failures);
  json.EndObject();
  std::printf("%s\n", json.ToString().c_str());
  return out ? 0 : 1;
}

// --- trace -----------------------------------------------------------------

// One timed call into a layer. Spans of one request share `request`; a
// span with parent -1 is the request's root.
struct Span {
  int64_t request = 0;
  int parent = -1;
  std::string name;
  SteadyClock::time_point start;
  SteadyClock::time_point end;
};

class Tracer {
 public:
  // Opens the root span of a new request and returns its id.
  int64_t BeginRequest() {
    spans_.push_back({++last_request_, -1, "request", SteadyClock::now(), {}});
    root_ = static_cast<int>(spans_.size()) - 1;
    return last_request_;
  }
  void EndRequest() { spans_[root_].end = SteadyClock::now(); }

  // Runs `body` inside a child span of the current request.
  template <typename F>
  auto Time(const char* name, F&& body) {
    spans_.push_back({last_request_, root_, name, SteadyClock::now(), {}});
    const size_t at = spans_.size() - 1;
    if constexpr (std::is_void_v<decltype(body())>) {
      body();
      spans_[at].end = SteadyClock::now();
    } else {
      auto result = body();
      spans_[at].end = SteadyClock::now();
      return result;
    }
  }

  // Self time of each span of the request: its duration minus the part
  // its children cover.
  std::map<std::string, double> SelfMicros(int64_t request) const {
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      if (span.request != request) continue;
      const double us = MicrosBetween(span.start, span.end);
      self[span.name] += us;
      if (span.parent >= 0) self[spans_[span.parent].name] -= us;
    }
    return self;
  }

  double DurationMicros(int64_t request, const std::string& name) const {
    double total = 0.0;
    for (const Span& span : spans_) {
      if (span.request == request && span.name == name) {
        total += MicrosBetween(span.start, span.end);
      }
    }
    return total;
  }

  void Write(const std::string& path, SteadyClock::time_point origin) const {
    std::ofstream out(path, std::ios::trunc);
    for (const Span& span : spans_) {
      out << "{\"request\":" << span.request << ",\"span\":\"" << span.name
          << "\",\"parent\":"
          << (span.parent < 0 ? std::string("null")
                              : "\"" + spans_[span.parent].name + "\"")
          << ",\"start_us\":" << MicrosBetween(origin, span.start)
          << ",\"end_us\":" << MicrosBetween(origin, span.end) << "}\n";
    }
  }

 private:
  std::vector<Span> spans_;
  int64_t last_request_ = 0;
  int root_ = -1;
};

// What the traced path learned about one request beyond its spans.
struct TracedFacts {
  std::string command;
  bool index_hit = false;
  int64_t gain_evals = -1;
  bool weighted = false;
  size_t render_bytes = 0;
};

// The service call a CLI handler makes, with its index fetch, solve and
// metric pass split into spans. Mirrors cmd_*.cc + service/engine.cc so
// the rendered line must equal the cold reference.
Result<ServiceResponse> TracedDispatch(Tracer& tracer,
                                       const CliInvocation& invocation,
                                       QueryContext& context,
                                       TracedFacts* facts) {
  const std::string& command = invocation.command;
  const TransitionModel& model = context.substrate().model();
  auto get_index = [&](const SelectorParams& params) {
    const int64_t hits = context.index_hits();
    auto index = tracer.Time("index_cache", [&] {
      return context.GetIndex(
          context.MakeKey(params.length, params.num_samples, params.seed));
    });
    facts->index_hit = context.index_hits() > hits;
    return index;
  };
  if (command == "select") {
    RWDOM_ASSIGN_OR_RETURN(SelectorParams params,
                           ResolveSelectorParams(invocation));
    RWDOM_ASSIGN_OR_RETURN(int64_t k, IntFlagOr(invocation, "k", 10));
    SelectRequest request;
    RWDOM_ASSIGN_OR_RETURN(request.k, CheckedInt32Flag("k", k, 0));
    RWDOM_ASSIGN_OR_RETURN(request.algorithm,
                           ResolveAlgorithmName(invocation, &params));
    const auto solve_start = SteadyClock::now();
    RWDOM_ASSIGN_OR_RETURN(std::unique_ptr<Selector> selector,
                           tracer.Time("core", [&] {
                             return MakeSelector(request.algorithm, &model,
                                                 params);
                           }));
    auto* approx = dynamic_cast<ApproxGreedy*>(selector.get());
    if (approx == nullptr) {
      return Status::InvalidArgument("trace replays index selects only");
    }
    RWDOM_ASSIGN_OR_RETURN(std::shared_ptr<const InvertedWalkIndex> index,
                           get_index(params));
    approx->UsePrebuiltIndex(std::move(index));
    SelectionResult result =
        tracer.Time("core", [&] { return selector->Select(request.k); });
    facts->gain_evals = approx->last_num_evaluations();
    SelectResponse response;
    response.algorithm = request.algorithm;
    response.substrate_kind = context.substrate().kind();
    response.seeds = std::move(result.selected);
    response.gains = std::move(result.gains);
    response.seconds = std::chrono::duration<double>(SteadyClock::now() -
                                                     solve_start)
                           .count();
    response.length = params.length;
    response.metric_samples = 500;
    MetricsResult metrics = tracer.Time("eval", [&] {
      return SampledMetrics(model, response.seeds, params.length, 500,
                            params.seed + 1);
    });
    response.aht = metrics.aht;
    response.ehn = metrics.ehn;
    return ServiceResponse(std::move(response));
  }
  if (command == "cover") {
    RWDOM_ASSIGN_OR_RETURN(SelectorParams params,
                           ResolveSelectorParams(invocation));
    RWDOM_ASSIGN_OR_RETURN(double alpha,
                           DoubleFlagOr(invocation, "alpha", 0.9));
    RWDOM_ASSIGN_OR_RETURN(std::shared_ptr<const InvertedWalkIndex> index,
                           get_index(params));
    const ApproxGreedyOptions options{.length = params.length,
                                      .num_replicates = params.num_samples,
                                      .seed = params.seed,
                                      .lazy = true};
    MinSeedCoverResult cover = tracer.Time("core", [&] {
      return MinSeedCover(model, alpha, options, index.get());
    });
    CoverResponse response;
    response.alpha = alpha;
    response.seeds = std::move(cover.selected);
    response.coverage_after_pick = std::move(cover.coverage_after_pick);
    response.reached_target = cover.reached_target;
    return ServiceResponse(std::move(response));
  }
  if (command == "stats") {
    StatsResponse response;
    RWDOM_ASSIGN_OR_RETURN(response.with_index,
                           BoolFlagOr(invocation, "with_index", false));
    response.stats = tracer.Time("service", [&] { return context.Stats(); });
    if (response.with_index) {
      RWDOM_ASSIGN_OR_RETURN(SelectorParams params,
                             ResolveSelectorParams(invocation));
      RWDOM_ASSIGN_OR_RETURN(std::shared_ptr<const InvertedWalkIndex> index,
                             get_index(params));
      response.index_length = params.length;
      response.index_samples = params.num_samples;
      response.index_bytes = index->MemoryUsageBytes();
      response.index_raw_bytes = index->UncompressedBytes();
      response.index_entries = index->TotalEntries();
    }
    return ServiceResponse(std::move(response));
  }
  facts->weighted = context.substrate().weighted();
  if (command == "evaluate") {
    EvaluateRequest request;
    RWDOM_ASSIGN_OR_RETURN(
        request.seeds, ParseSeedList(FlagOr(invocation, "seeds", ""),
                                     context.substrate().num_nodes()));
    RWDOM_ASSIGN_OR_RETURN(int64_t length, IntFlagOr(invocation, "L", 6));
    RWDOM_ASSIGN_OR_RETURN(request.length, CheckedInt32Flag("L", length, 0));
    RWDOM_ASSIGN_OR_RETURN(int64_t metric_r, IntFlagOr(invocation, "R", 500));
    RWDOM_ASSIGN_OR_RETURN(request.num_samples,
                           CheckedInt32Flag("R", metric_r, 1));
    RWDOM_ASSIGN_OR_RETURN(int64_t seed, IntFlagOr(invocation, "seed", 42));
    request.seed = static_cast<uint64_t>(seed);
    EvaluateResponse response = tracer.Time(
        "walk", [&] { return EvaluateOnModel(model, request); });
    return ServiceResponse(std::move(response));
  }
  if (command == "knn") {
    KnnRequest request;
    RWDOM_ASSIGN_OR_RETURN(request.params, ResolveSelectorParams(invocation));
    RWDOM_ASSIGN_OR_RETURN(int64_t query, IntFlagOr(invocation, "query", -1));
    RWDOM_ASSIGN_OR_RETURN(int64_t k, IntFlagOr(invocation, "k", 10));
    request.query = static_cast<NodeId>(query);
    RWDOM_ASSIGN_OR_RETURN(request.k, CheckedInt32Flag("k", k, 0));
    request.mode = FlagOr(invocation, "mode", "exact") == "sampled"
                       ? KnnRequest::Mode::kSampled
                       : KnnRequest::Mode::kExact;
    RWDOM_ASSIGN_OR_RETURN(KnnResponse response, tracer.Time("walk", [&] {
                             return Knn(context, request);
                           }));
    return ServiceResponse(std::move(response));
  }
  return Status::InvalidArgument("trace cannot replay command " + command);
}

// Per-request outcome of the traced replay.
struct TracedRequest {
  int64_t id = 0;
  TracedFacts facts;
};

Result<TracedRequest> TraceLine(Tracer& tracer, GraphRegistry& registry,
                                const std::string& line,
                                const std::string& reference) {
  TracedRequest traced;
  traced.id = tracer.BeginRequest();
  RWDOM_ASSIGN_OR_RETURN(ParsedRequest request, tracer.Time("wire", [&] {
                           return ParseRequestLine(line);
                         }));
  const CliInvocation invocation = RequestToInvocation(request);
  RWDOM_RETURN_IF_ERROR(tracer.Time("cli", [&] {
                          return ResolveQueryLine(invocation);
                        }).status());
  RWDOM_ASSIGN_OR_RETURN(ResolvedGraph graph, tracer.Time("registry", [&] {
                           return registry.Resolve(request.graph);
                         }));
  traced.facts.command = request.command;
  RWDOM_ASSIGN_OR_RETURN(
      ServiceResponse response,
      TracedDispatch(tracer, invocation, *graph.context, &traced.facts));
  std::string rendered = tracer.Time("render", [&] {
    std::ostringstream out;
    Render(response, OutputFormat::kJson, out);
    return out.str();
  });
  tracer.EndRequest();
  traced.facts.render_bytes = rendered.size();
  while (!rendered.empty() && rendered.back() == '\n') rendered.pop_back();
  NormalizeSeconds(&rendered);
  if (rendered != reference) {
    return Status::Internal("traced replay differs from reference for " +
                            line + "\n  want: " + reference +
                            "\n  got:  " + rendered);
  }
  return traced;
}

// In-process QueryServer whose executor times ExecuteRequestToJsonLine;
// one connection sends the lines one at a time. Returns per-request
// {executor micros, round-trip micros}.
std::vector<std::pair<double, double>> TimeServerOverhead(
    GraphRegistry& registry, const std::vector<std::string>& lines,
    double budget_s) {
  std::mutex mutex;
  std::vector<double> exec_us;  // Guarded by mutex.
  auto executor = [&](const ParsedRequest& request, QueryContext& context,
                      std::string* response) {
    const auto start = SteadyClock::now();
    Status status = ExecuteRequestToJsonLine(request, context, response);
    const double us = MicrosBetween(start, SteadyClock::now());
    std::lock_guard<std::mutex> lock(mutex);
    exec_us.push_back(us);
    return status;
  };
  ServerOptions options;
  options.port = 0;
  QueryServer server(&registry, executor, options);
  Status started = server.Start();
  if (!started.ok()) Die("in-process server: " + started.ToString());
  std::vector<double> round_trip_us;
  {
    UniqueFd connection = ValueOrDie(TcpConnect("127.0.0.1", server.port()),
                                     "connect to in-process server");
    LineReader reader(connection.get());
    std::string response;
    auto outcome = reader.ReadLine(&response);  // Greeting.
    const auto start = SteadyClock::now();
    for (size_t i = 0; i < lines.size(); ++i) {
      if (i > 0 && MicrosBetween(start, SteadyClock::now()) > budget_s * 1e6) {
        break;
      }
      const auto sent = SteadyClock::now();
      if (!SendAll(connection.get(), lines[i] + "\n").ok()) break;
      outcome = reader.ReadLine(&response);
      if (!outcome.ok() || *outcome != LineReader::Outcome::kLine) break;
      round_trip_us.push_back(MicrosBetween(sent, SteadyClock::now()));
    }
  }
  server.Shutdown();
  std::vector<std::pair<double, double>> samples;
  std::lock_guard<std::mutex> lock(mutex);
  for (size_t i = 0; i < std::min(exec_us.size(), round_trip_us.size()); ++i) {
    samples.emplace_back(exec_us[i], round_trip_us[i]);
  }
  return samples;
}

int RunTrace(const Args& args) {
  const auto origin = SteadyClock::now();
  const std::vector<Tenant> tenants = ParseTenants(args);
  const std::vector<std::string> lines = ReadLines(RequiredArg(args, "lines"));
  const std::vector<std::string> refs = ReadLines(RequiredArg(args, "refs"));
  if (lines.size() != refs.size() || lines.empty()) {
    Die("--lines and --refs must be non-empty and aligned");
  }
  const std::string cache_dir = Arg(args, "cache_dir");
  const int64_t max_cache_bytes = std::stoll(Arg(args, "max_cache_bytes", "0"));
  const double budget_s = std::stod(Arg(args, "budget_s", "4"));
  std::map<std::string, double> metrics;

  // Set-up layers, each the median of five repetitions.
  std::vector<double> load_ms, init_ms, recover_ms;
  double snapshot_mb = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    double load = 0.0, init = 0.0;
    std::unique_ptr<QueryContext> default_context;
    for (const Tenant& tenant : tenants) {
      auto t0 = SteadyClock::now();
      LoadedSubstrate loaded = ValueOrDie(
          LoadSubstrate(tenant.path, tenant.options), "load " + tenant.path);
      auto t1 = SteadyClock::now();
      auto context = std::make_unique<QueryContext>(std::move(loaded));
      auto t2 = SteadyClock::now();
      load += MicrosBetween(t0, t1) / 1e3;
      init += MicrosBetween(t1, t2) / 1e3;
      if (!default_context) default_context = std::move(context);
    }
    load_ms.push_back(load);
    init_ms.push_back(init);
    if (!cache_dir.empty()) {
      ArtifactCache cache(cache_dir);
      auto t0 = SteadyClock::now();
      const int64_t adopted =
          ValueOrDie(cache.RecoverInto(*default_context), "recover");
      recover_ms.push_back(MicrosBetween(t0, SteadyClock::now()) / 1e3);
      if (adopted < 1) Die("no snapshot recovered from " + cache_dir);
      snapshot_mb = 0.0;
      for (const auto& entry : std::filesystem::directory_iterator(cache_dir)) {
        if (entry.path().extension() == kSnapshotExtension) {
          snapshot_mb += static_cast<double>(entry.file_size()) / 1e6;
        }
      }
    }
  }
  metrics["graph.load_ms"] = Median(load_ms);
  metrics["service.context_init_ms"] = Median(init_ms);
  metrics["persist.recover_ms"] = Median(recover_ms);
  metrics["persist.snapshot_mb_per_s"] =
      recover_ms.empty() ? 0.0 : snapshot_mb / (Median(recover_ms) / 1e3);

  // Two replay registries, both starting in the state the server starts
  // in: one replays untraced (the overhead baseline), one traced.
  auto make_registry = [&] {
    std::unique_ptr<GraphRegistry> registry =
        LoadRegistry(tenants, max_cache_bytes);
    if (!cache_dir.empty()) {
      ArtifactCache cache(cache_dir);
      ValueOrDie(cache.RecoverInto(*registry->default_context()), "recover");
    }
    if (args.count("warmup") > 0) {
      for (const std::string& line : ReadLines(Arg(args, "warmup"))) {
        ValueOrDie(ExecuteLine(*registry, line), "warm-up " + line);
      }
    }
    return registry;
  };
  std::unique_ptr<GraphRegistry> untraced_registry = make_registry();
  std::unique_ptr<GraphRegistry> registry = make_registry();

  // Each line runs traced on one registry, then untraced on its twin, so
  // both passes see the same cache states and the same machine moment.
  Tracer tracer;
  std::vector<TracedRequest> traced;
  double traced_us = 0.0, untraced_us = 0.0;
  const auto replay_start = SteadyClock::now();
  for (size_t i = 0; i < lines.size(); ++i) {
    if (i > 0 &&
        MicrosBetween(replay_start, SteadyClock::now()) > budget_s * 0.6e6) {
      break;
    }
    traced.push_back(ValueOrDie(TraceLine(tracer, *registry, lines[i], refs[i]),
                                "trace"));
    traced_us += tracer.DurationMicros(traced.back().id, "request");
    const auto t0 = SteadyClock::now();
    ValueOrDie(ExecuteLine(*untraced_registry, lines[i]),
               "untraced " + lines[i]);
    untraced_us += MicrosBetween(t0, SteadyClock::now());
  }
  untraced_registry.reset();
  metrics["trace.requests"] = static_cast<double>(traced.size());
  metrics["trace.traced_ms"] = traced_us / 1e3;
  metrics["trace.untraced_ms"] = untraced_us / 1e3;
  metrics["trace.overhead_frac"] = traced_us / untraced_us - 1.0;

  // Per-layer medians over the replayed requests, and self time per
  // request type.
  std::map<std::string, std::vector<double>> samples;
  for (const TracedRequest& t : traced) {
    const std::string& cmd = t.facts.command;
    for (const auto& [layer, us] : tracer.SelfMicros(t.id)) {
      samples["self." + cmd + "." + (layer == "request" ? "glue" : layer) +
              "_us"]
          .push_back(us);
    }
    samples["wire.parse_us"].push_back(tracer.DurationMicros(t.id, "wire"));
    samples["cli.resolve_us"].push_back(tracer.DurationMicros(t.id, "cli"));
    samples["registry.resolve_us"].push_back(
        tracer.DurationMicros(t.id, "registry"));
    samples["render.us"].push_back(tracer.DurationMicros(t.id, "render"));
    samples["render.bytes"].push_back(
        static_cast<double>(t.facts.render_bytes));
    if (t.facts.index_hit) {
      samples["index_cache.get_hit_us"].push_back(
          tracer.DurationMicros(t.id, "index_cache"));
    }
    if (cmd == "select") {
      samples["core.select_ms"].push_back(
          tracer.DurationMicros(t.id, "core") / 1e3);
      samples["core.gain_evals"].push_back(
          static_cast<double>(t.facts.gain_evals));
      samples["eval.metrics_ms"].push_back(
          tracer.DurationMicros(t.id, "eval") / 1e3);
    } else if (cmd == "cover") {
      samples["core.cover_ms"].push_back(tracer.DurationMicros(t.id, "core") /
                                         1e3);
    } else if (cmd == "evaluate") {
      samples[t.facts.weighted ? "walk.evaluate_ms.weighted"
                               : "walk.evaluate_ms.uniform"]
          .push_back(tracer.DurationMicros(t.id, "walk") / 1e3);
    } else if (cmd == "knn") {
      samples["walk.knn_ms"].push_back(tracer.DurationMicros(t.id, "walk") /
                                       1e3);
    }
  }
  for (const auto& [name, values] : samples) metrics[name] = Median(values);

  // Index build at the workload's main key.
  const std::string index_key = Arg(args, "index_key");
  if (!index_key.empty()) {
    int length = 0, replicates = 0;
    unsigned long long seed = 0;
    if (std::sscanf(index_key.c_str(), "%d,%d,%llu", &length, &replicates,
                    &seed) != 3) {
      Die("--index_key wants L,R,seed");
    }
    std::vector<double> build_ms;
    int64_t entries = 0, bytes = 0;
    for (int rep = 0; rep < 2; ++rep) {
      const auto t0 = SteadyClock::now();
      TransitionWalkSource source(
          &registry->default_context()->substrate().model(), seed);
      InvertedWalkIndex index =
          InvertedWalkIndex::Build(length, replicates, &source);
      build_ms.push_back(MicrosBetween(t0, SteadyClock::now()) / 1e3);
      entries = index.TotalEntries();
      bytes = index.MemoryUsageBytes();
    }
    metrics["index.build_ms"] = Median(build_ms);
    metrics["index.postings_per_s"] =
        static_cast<double>(entries) / (Median(build_ms) / 1e3);
    metrics["index.bytes_per_posting"] =
        static_cast<double>(bytes) / static_cast<double>(entries);
  }

  // Server layer: round trip minus executor time.
  std::vector<std::string> server_lines(lines.begin(),
                                        lines.begin() + traced.size());
  std::vector<double> exec_ms, overhead_us;
  for (const auto& [exec, round_trip] :
       TimeServerOverhead(*registry, server_lines, budget_s * 0.3)) {
    exec_ms.push_back(exec / 1e3);
    overhead_us.push_back(round_trip - exec);
  }
  metrics["server.exec_ms"] = Median(exec_ms);
  metrics["server.overhead_us"] = Median(overhead_us);

  tracer.Write(RequiredArg(args, "spans_out"), origin);
  JsonWriter json;
  json.BeginObject();
  for (const auto& [name, value] : metrics) json.Key(name).Number(value);
  json.EndObject();
  std::printf("%s\n", json.ToString().c_str());
  return 0;
}

}  // namespace
}  // namespace rwdom

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  const rwdom::Args args = rwdom::ParseArgs(argc, argv);
  if (command == "env") return rwdom::RunEnv();
  if (command == "reference") return rwdom::RunReference(args);
  if (command == "load") return rwdom::RunLoad(args);
  if (command == "trace") return rwdom::RunTrace(args);
  std::fprintf(stderr,
               "usage: perfbench_tool env|reference|load|trace --key=value "
               "...\n");
  return 2;
}
