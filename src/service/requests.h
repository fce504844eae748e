// The service layer's typed request/response API.
//
// One request struct per query kind, one response struct per result, and
// a variant-based Dispatch() entry point (service/engine.h) so the same
// warm engine is callable from the CLI, tests, benches, `rwdom batch`
// scripts and a future server without re-parsing flags at each layer.
// Responses carry raw numbers only; rendering (legacy text / --format=json)
// lives in service/render.h, which guarantees both formats report the
// same values.
#ifndef RWDOM_SERVICE_REQUESTS_H_
#define RWDOM_SERVICE_REQUESTS_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "core/selector_registry.h"
#include "graph/graph.h"
#include "service/query_context.h"
#include "walk/hitting_time_knn.h"

namespace rwdom {

/// Pick k seeds with a registered selector (select command).
struct SelectRequest {
  /// Registry name: "ApproxF2", "DPF1", "Degree", ... (see
  /// KnownSelectorNames()).
  std::string algorithm = "ApproxF2";
  int32_t k = 10;
  /// L / R / seed / lazy. For Approx* selectors, (L, R, seed) plus the
  /// context's substrate fingerprint form the walk-index ArtifactKey.
  SelectorParams params;
  /// Target tenant for registry dispatch (protocol v3 "graph" member);
  /// empty selects the default graph. Ignored — like on every request
  /// struct — when dispatching against an explicit QueryContext.
  std::string graph{};
};

/// Score a given seed set with the paper's sampled metrics (evaluate
/// command).
struct EvaluateRequest {
  std::vector<NodeId> seeds;
  int32_t length = 6;          ///< L.
  int32_t num_samples = 500;   ///< Metric R (paper protocol: 500).
  uint64_t seed = 42;
  std::string graph{};         ///< Tenant name ("" = default graph).
};

/// Truncated-hitting-time k nearest neighbors (knn command).
struct KnnRequest {
  enum class Mode { kExact, kSampled };
  NodeId query = kInvalidNode;
  int32_t k = 10;
  Mode mode = Mode::kExact;
  /// L always; R and seed only for Mode::kSampled.
  SelectorParams params;
  std::string graph{};  ///< Tenant name ("" = default graph).
};

/// Minimum seeds for alpha coverage (cover command).
struct CoverRequest {
  double alpha = 0.9;
  SelectorParams params;  ///< L / R / seed of the underlying index.
  std::string graph{};    ///< Tenant name ("" = default graph).
};

/// Structural statistics and memory footprint (stats command).
struct StatsRequest {
  bool with_index = false;
  /// Index params when with_index (same cache key as select/cover).
  SelectorParams params;
  std::string graph{};  ///< Tenant name ("" = default graph).
};

/// Result of SelectRequest.
struct SelectResponse {
  std::string algorithm;
  std::string substrate_kind;
  std::vector<NodeId> seeds;       ///< In selection order.
  std::vector<double> gains;       ///< Estimated marginal gains, when any.
  double seconds = 0.0;            ///< Selection wall time (incl. index
                                   ///< build on a cold cache).
  double aht = 0.0;                ///< Post-hoc sampled metric M1.
  double ehn = 0.0;                ///< Post-hoc sampled metric M2.
  int32_t length = 6;              ///< L used for selection + metrics.
  int32_t metric_samples = 500;    ///< R of the post-hoc metric protocol.
  std::string index_saved;         ///< Path written, when requested.
};

/// Result of EvaluateRequest.
struct EvaluateResponse {
  int64_t k = 0;  ///< Number of seeds scored.
  int32_t length = 6;
  int32_t num_samples = 500;
  double aht = 0.0;
  double ehn = 0.0;
};

/// Result of KnnRequest.
struct KnnResponse {
  NodeId query = kInvalidNode;
  std::string mode;  ///< "exact" or "sampled".
  std::vector<HittingTimeNeighbor> neighbors;  ///< Ascending h^L.
};

/// Result of CoverRequest.
struct CoverResponse {
  double alpha = 0.0;
  std::vector<NodeId> seeds;
  std::vector<double> coverage_after_pick;
  bool reached_target = false;
  double seconds = 0.0;
};

/// Result of StatsRequest.
struct StatsResponse {
  SubstrateStats stats;
  bool with_index = false;
  // Index block, filled when with_index.
  int32_t index_length = 0;
  int32_t index_samples = 0;
  int64_t index_bytes = 0;      ///< Resident (compressed) footprint.
  int64_t index_raw_bytes = 0;  ///< Former raw-CSR footprint, for the ratio.
  int64_t index_entries = 0;
};

/// The closed set of service queries, for Dispatch().
using ServiceRequest = std::variant<SelectRequest, EvaluateRequest,
                                    KnnRequest, CoverRequest, StatsRequest>;

/// Dispatch()'s result; alternative i corresponds to ServiceRequest's
/// alternative i.
using ServiceResponse =
    std::variant<SelectResponse, EvaluateResponse, KnnResponse,
                 CoverResponse, StatsResponse>;

}  // namespace rwdom

#endif  // RWDOM_SERVICE_REQUESTS_H_
