#include "harness/experiment.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "service/engine.h"
#include "service/requests.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace rwdom {

BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--full") {
      args.full = true;
    } else if (StartsWith(arg, "--seed=")) {
      auto parsed = ParseInt64(arg.substr(7));
      RWDOM_CHECK(parsed.ok()) << "bad --seed value";
      args.seed = static_cast<uint64_t>(*parsed);
    } else if (StartsWith(arg, "--data_dir=")) {
      args.data_dir = std::string(arg.substr(11));
    } else if (StartsWith(arg, "--csv_dir=")) {
      args.csv_dir = std::string(arg.substr(10));
    } else if (StartsWith(arg, "--threads=")) {
      auto parsed = ParseInt64(arg.substr(10));
      RWDOM_CHECK(parsed.ok() && *parsed >= 1 && *parsed <= 1024)
          << "bad --threads value";
      args.threads = static_cast<int>(*parsed);
      SetNumThreads(args.threads);
    } else if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr,
                   "usage: %s [--full] [--seed=N] [--threads=N] "
                   "[--data_dir=DIR] [--csv_dir=DIR]\n",
                   argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", argv[i]);
      std::exit(2);
    }
  }
  return args;
}

void PrintBanner(const std::string& experiment_id,
                 const std::string& description, const BenchArgs& args) {
  std::printf("=== %s ===\n%s\nmode=%s seed=%llu threads=%d\n\n",
              experiment_id.c_str(), description.c_str(),
              args.full ? "full (paper-scale)" : "quick",
              static_cast<unsigned long long>(args.seed), NumThreads());
  std::fflush(stdout);
}

std::vector<MetricsResult> EvaluatePrefixes(
    const TransitionModel& model, const std::vector<NodeId>& selection,
    const std::vector<int32_t>& ks, int32_t length, int32_t num_samples,
    uint64_t seed) {
  // One EvaluateRequest per prefix through the service engine — the same
  // code path the CLI's `evaluate` and batch mode use, so bench tables
  // and CLI output can never drift apart. Estimates are pure functions
  // of (model, request), so this is bit-identical to calling
  // SampledMetrics directly.
  std::vector<MetricsResult> results;
  results.reserve(ks.size());
  for (int32_t k : ks) {
    const size_t take =
        std::min(static_cast<size_t>(k), selection.size());
    EvaluateRequest request;
    request.seeds.assign(selection.begin(), selection.begin() + take);
    request.length = length;
    request.num_samples = num_samples;
    request.seed = seed;
    EvaluateResponse response = EvaluateOnModel(model, request);
    results.push_back(MetricsResult{response.aht, response.ehn});
  }
  return results;
}

std::vector<MetricsResult> EvaluatePrefixes(
    const Graph& graph, const std::vector<NodeId>& selection,
    const std::vector<int32_t>& ks, int32_t length, int32_t num_samples,
    uint64_t seed) {
  UniformTransitionModel model(&graph);
  return EvaluatePrefixes(model, selection, ks, length, num_samples, seed);
}

void MaybeDumpCsv(const BenchArgs& args, const std::string& name,
                  const std::string& csv_text) {
  if (args.csv_dir.empty()) return;
  const std::string path = args.csv_dir + "/" + name + ".csv";
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    RWDOM_LOG(WARNING) << "cannot write " << path << "; skipping CSV dump";
    return;
  }
  file << csv_text;
}

}  // namespace rwdom
