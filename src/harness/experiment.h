// Shared plumbing for the figure-reproduction benchmark binaries: flag
// parsing, banner printing, and prefix-evaluation of greedy selections
// (greedy output is nested in k, so one k=100 run yields every smaller k).
#ifndef RWDOM_HARNESS_EXPERIMENT_H_
#define RWDOM_HARNESS_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "eval/metrics.h"
#include "graph/graph.h"
#include "walk/transition_model.h"

namespace rwdom {

/// Flags accepted by every bench binary:
///   --full           paper-scale parameters (default: scaled for minutes)
///   --seed=<u64>     master seed (default 42)
///   --data_dir=<dir> where real SNAP edge lists may live (default "data")
///   --csv_dir=<dir>  also dump each table as CSV into this directory
///   --threads=<n>    worker threads (default RWDOM_THREADS env / cores);
///                    applied via SetNumThreads before the bench runs
struct BenchArgs {
  bool full = false;
  uint64_t seed = 42;
  std::string data_dir = "data";
  std::string csv_dir;
  int threads = 0;  ///< 0 = default.
};

/// Parses the flags above; unknown flags abort with a usage message.
BenchArgs ParseBenchArgs(int argc, char** argv);

/// Prints a standard experiment banner (figure id, setting, seed).
void PrintBanner(const std::string& experiment_id,
                 const std::string& description, const BenchArgs& args);

/// Evaluates the metrics of each prefix selection[0..k) for the given ks
/// using the paper's sampled-metrics protocol. Runs over any
/// TransitionModel; the Graph overload is the unweighted convenience.
std::vector<MetricsResult> EvaluatePrefixes(
    const TransitionModel& model, const std::vector<NodeId>& selection,
    const std::vector<int32_t>& ks, int32_t length, int32_t num_samples,
    uint64_t seed);
std::vector<MetricsResult> EvaluatePrefixes(
    const Graph& graph, const std::vector<NodeId>& selection,
    const std::vector<int32_t>& ks, int32_t length, int32_t num_samples,
    uint64_t seed);

/// Writes `csv_text` to `<csv_dir>/<name>.csv` when csv_dir is set; logs
/// and continues on failure (benches should not die on an unwritable dir).
void MaybeDumpCsv(const BenchArgs& args, const std::string& name,
                  const std::string& csv_text);

}  // namespace rwdom

#endif  // RWDOM_HARNESS_EXPERIMENT_H_
