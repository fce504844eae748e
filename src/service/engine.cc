#include "service/engine.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/approx_greedy.h"
#include "core/min_seed_cover.h"
#include "core/selector_registry.h"
#include "eval/metrics.h"
#include "util/strings.h"
#include "util/timer.h"
#include "walk/hitting_time_knn.h"

namespace rwdom {
namespace {

// The paper's post-hoc metric protocol for select: R = 500 walks per
// node, on an independent stream (seed + 1) from the selection walks.
constexpr int32_t kSelectMetricSamples = 500;

ArtifactKey KeyOf(const QueryContext& context, const SelectorParams& params) {
  return context.MakeKey(params.length, params.num_samples, params.seed);
}

Status ValidateNode(const QueryContext& context, NodeId node,
                    const char* what) {
  if (node < 0 || node >= context.substrate().num_nodes()) {
    return Status::OutOfRange(
        StrFormat("%s %lld outside [0, %d)", what,
                  static_cast<long long>(node),
                  context.substrate().num_nodes()));
  }
  return Status::OK();
}

}  // namespace

Result<SelectResponse> Select(QueryContext& context,
                              const SelectRequest& request) {
  if (request.k < 0) return Status::InvalidArgument("k must be >= 0");
  WallTimer timer;
  RWDOM_ASSIGN_OR_RETURN(
      std::unique_ptr<Selector> selector,
      MakeSelector(request.algorithm, &context.substrate().model(),
                   request.params));

  // Approx* selectors read their index from the context cache, so a warm
  // context answers repeated selects without re-materializing walks.
  auto* approx = dynamic_cast<ApproxGreedy*>(selector.get());
  if (approx != nullptr) {
    RWDOM_ASSIGN_OR_RETURN(std::shared_ptr<const InvertedWalkIndex> index,
                           context.GetIndex(KeyOf(context, request.params)));
    approx->UsePrebuiltIndex(std::move(index));
  }

  SelectionResult result = selector->Select(request.k);

  SelectResponse response;
  response.algorithm = request.algorithm;
  response.substrate_kind = context.substrate().kind();
  response.seeds = std::move(result.selected);
  response.gains = std::move(result.gains);
  response.seconds = timer.Seconds();
  response.length = request.params.length;
  response.metric_samples = kSelectMetricSamples;

  // The metric pass depends only on the seed set, so a repeated select
  // reads it from the context's memo instead of re-running its walks.
  MetricsResult metrics = context.MemoizedSampledMetrics(
      response.seeds, request.params.length, kSelectMetricSamples,
      request.params.seed + 1);
  response.aht = metrics.aht;
  response.ehn = metrics.ehn;

  return response;
}

Result<EvaluateResponse> Evaluate(QueryContext& context,
                                  const EvaluateRequest& request) {
  for (NodeId seed_node : request.seeds) {
    RWDOM_RETURN_IF_ERROR(ValidateNode(context, seed_node, "seed"));
  }
  // The metrics score a seed *set*; a repeat would make "k" overstate it.
  std::vector<NodeId> sorted = request.seeds;
  std::sort(sorted.begin(), sorted.end());
  auto repeat = std::adjacent_find(sorted.begin(), sorted.end());
  if (repeat != sorted.end()) {
    return Status::InvalidArgument(StrFormat(
        "seed %lld repeated", static_cast<long long>(*repeat)));
  }
  if (request.num_samples < 1) {
    return Status::InvalidArgument("metric sample count must be >= 1");
  }
  return EvaluateOnModel(context.substrate().model(), request);
}

Result<KnnResponse> Knn(QueryContext& context, const KnnRequest& request) {
  RWDOM_RETURN_IF_ERROR(ValidateNode(context, request.query, "query"));
  if (request.k < 0) return Status::InvalidArgument("k must be >= 0");

  KnnResponse response;
  response.query = request.query;
  if (request.mode == KnnRequest::Mode::kExact) {
    response.mode = "exact";
    response.neighbors =
        ExactHittingTimeKnn(context.substrate().model(), request.query,
                            request.k, request.params.length);
  } else {
    response.mode = "sampled";
    response.neighbors = SampledHittingTimeKnn(
        context.substrate().model(), request.params.seed, request.query,
        request.k, request.params.length, request.params.num_samples);
  }
  return response;
}

Result<CoverResponse> Cover(QueryContext& context,
                            const CoverRequest& request) {
  if (!(request.alpha >= 0.0 && request.alpha <= 1.0)) {  // Rejects NaN.
    return Status::InvalidArgument("alpha must be in [0, 1]");
  }
  WallTimer timer;
  ApproxGreedyOptions options{.length = request.params.length,
                              .num_replicates = request.params.num_samples,
                              .seed = request.params.seed,
                              .lazy = true};
  RWDOM_ASSIGN_OR_RETURN(std::shared_ptr<const InvertedWalkIndex> index,
                         context.GetIndex(KeyOf(context, request.params)));
  MinSeedCoverResult cover = MinSeedCover(context.substrate().model(),
                                          request.alpha, options,
                                          index.get());

  CoverResponse response;
  response.alpha = request.alpha;
  response.seeds = std::move(cover.selected);
  response.coverage_after_pick = std::move(cover.coverage_after_pick);
  response.reached_target = cover.reached_target;
  response.seconds = timer.Seconds();
  return response;
}

Result<StatsResponse> Stats(QueryContext& context,
                            const StatsRequest& request) {
  StatsResponse response;
  response.stats = context.Stats();
  response.with_index = request.with_index;
  if (request.with_index) {
    RWDOM_ASSIGN_OR_RETURN(std::shared_ptr<const InvertedWalkIndex> index,
                           context.GetIndex(KeyOf(context, request.params)));
    response.index_length = request.params.length;
    response.index_samples = request.params.num_samples;
    response.index_bytes = index->MemoryUsageBytes();
    response.index_raw_bytes = index->UncompressedBytes();
    response.index_entries = index->TotalEntries();
  }
  return response;
}

Result<ServiceResponse> Dispatch(QueryContext& context,
                                 const ServiceRequest& request) {
  return std::visit(
      [&context](const auto& typed) -> Result<ServiceResponse> {
        using T = std::decay_t<decltype(typed)>;
        if constexpr (std::is_same_v<T, SelectRequest>) {
          RWDOM_ASSIGN_OR_RETURN(SelectResponse response,
                                 Select(context, typed));
          return ServiceResponse(std::move(response));
        } else if constexpr (std::is_same_v<T, EvaluateRequest>) {
          RWDOM_ASSIGN_OR_RETURN(EvaluateResponse response,
                                 Evaluate(context, typed));
          return ServiceResponse(std::move(response));
        } else if constexpr (std::is_same_v<T, KnnRequest>) {
          RWDOM_ASSIGN_OR_RETURN(KnnResponse response, Knn(context, typed));
          return ServiceResponse(std::move(response));
        } else if constexpr (std::is_same_v<T, CoverRequest>) {
          RWDOM_ASSIGN_OR_RETURN(CoverResponse response,
                                 Cover(context, typed));
          return ServiceResponse(std::move(response));
        } else {
          RWDOM_ASSIGN_OR_RETURN(StatsResponse response,
                                 Stats(context, typed));
          return ServiceResponse(std::move(response));
        }
      },
      request);
}

Result<ServiceResponse> Dispatch(GraphRegistry& registry,
                                 const ServiceRequest& request) {
  const std::string& graph = std::visit(
      [](const auto& typed) -> const std::string& { return typed.graph; },
      request);
  RWDOM_ASSIGN_OR_RETURN(ResolvedGraph resolved, registry.Resolve(graph));
  return Dispatch(*resolved.context, request);
}

EvaluateResponse EvaluateOnModel(const TransitionModel& model,
                                 const EvaluateRequest& request) {
  EvaluateResponse response;
  response.k = static_cast<int64_t>(request.seeds.size());
  response.length = request.length;
  response.num_samples = request.num_samples;
  MetricsResult metrics =
      SampledMetrics(model, request.seeds, request.length,
                     request.num_samples, request.seed);
  response.aht = metrics.aht;
  response.ehn = metrics.ehn;
  return response;
}

}  // namespace rwdom
