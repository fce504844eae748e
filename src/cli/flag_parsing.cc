#include "cli/flag_parsing.h"

#include <cmath>
#include <limits>
#include <utility>

#include "harness/dataset_registry.h"
#include "util/strings.h"

namespace rwdom {

std::string FlagOr(const CliInvocation& invocation, const std::string& key,
                   const std::string& fallback) {
  auto it = invocation.flags.find(key);
  return it == invocation.flags.end() ? fallback : it->second;
}

std::vector<std::string> RepeatedFlagValues(const CliInvocation& invocation,
                                            const std::string& key) {
  std::vector<std::string> values;
  for (const auto& [name, value] : invocation.ordered_flags) {
    if (name == key) values.push_back(value);
  }
  if (values.empty()) {
    auto it = invocation.flags.find(key);
    if (it != invocation.flags.end()) values.push_back(it->second);
  }
  return values;
}

Result<int64_t> IntFlagOr(const CliInvocation& invocation,
                          const std::string& key, int64_t fallback) {
  auto it = invocation.flags.find(key);
  if (it == invocation.flags.end()) return fallback;
  RWDOM_ASSIGN_OR_RETURN(int64_t value, ParseInt64(it->second));
  return value;
}

Result<double> DoubleFlagOr(const CliInvocation& invocation,
                            const std::string& key, double fallback) {
  auto it = invocation.flags.find(key);
  if (it == invocation.flags.end()) return fallback;
  RWDOM_ASSIGN_OR_RETURN(double value, ParseDouble(it->second));
  // strtod accepts "nan" and "inf"; no double flag wants either, and a NaN
  // slips past every range guard written as `x < lo || x > hi`.
  if (!std::isfinite(value)) {
    return Status::InvalidArgument("--" + key + " must be finite, got: " +
                                   it->second);
  }
  return value;
}

Result<bool> BoolFlagOr(const CliInvocation& invocation,
                        const std::string& key, bool fallback) {
  auto it = invocation.flags.find(key);
  if (it == invocation.flags.end()) return fallback;
  const std::string& value = it->second;
  if (value == "1" || value == "true" || value == "yes") return true;
  if (value == "0" || value == "false" || value == "no") return false;
  return Status::InvalidArgument("--" + key +
                                 " wants true/false, got: " + value);
}

namespace {

// The one list both WithSubstrateFlags and IsSubstrateFlag derive from,
// so a new substrate flag cannot be known to validation yet invisible
// to the batch-line rejection (which would silently ignore it).
const std::vector<FlagDef>& SubstrateFlagDefs() {
  static const std::vector<FlagDef>* const kFlags = new std::vector<FlagDef>{
      {"graph", "FILE", "edge list to load (weights/3rd column "
                        "autodetected)"},
      {"dataset", "NAME", "Table-2 dataset name (append -w / -wd for "
                          "weighted variants)"},
      {"data_dir", "DIR", "where real dataset edge lists live "
                          "(default: data)"},
      {"directed", "0|1", "load --graph as a digraph (arc list)"},
      {"weighted", "auto|yes|no", "override weight-column autodetection"},
  };
  return *kFlags;
}

}  // namespace

std::vector<FlagDef> WithSubstrateFlags(std::vector<FlagDef> extra) {
  std::vector<FlagDef> flags = SubstrateFlagDefs();
  flags.insert(flags.end(), std::make_move_iterator(extra.begin()),
               std::make_move_iterator(extra.end()));
  return flags;
}

bool IsSubstrateFlag(const std::string& name) {
  for (const FlagDef& def : SubstrateFlagDefs()) {
    if (def.name == name) return true;
  }
  return false;
}

Result<int32_t> CheckedInt32Flag(const std::string& name, int64_t value,
                                 int64_t min_value) {
  if (value < min_value ||
      value > std::numeric_limits<int32_t>::max()) {
    return Status::InvalidArgument(
        StrFormat("--%s must be in [%lld, 2^31)", name.c_str(),
                  static_cast<long long>(min_value)));
  }
  return static_cast<int32_t>(value);
}

namespace {

// Parses --weighted=auto|yes|no (several spellings accepted).
Result<SubstrateWeights> ParseWeightedFlag(const CliInvocation& invocation) {
  const std::string weighted = FlagOr(invocation, "weighted", "auto");
  if (weighted == "auto") return SubstrateWeights::kAuto;
  if (weighted == "yes" || weighted == "true" || weighted == "1") {
    return SubstrateWeights::kForce;
  }
  if (weighted == "no" || weighted == "false" || weighted == "0") {
    return SubstrateWeights::kIgnore;
  }
  return Status::InvalidArgument("--weighted wants auto/yes/no, got: " +
                                 weighted);
}

}  // namespace

Result<LoadedSubstrate> ResolveSubstrate(const CliInvocation& invocation) {
  const bool has_graph = invocation.flags.count("graph") > 0;
  const bool has_dataset = invocation.flags.count("dataset") > 0;
  if (has_graph == has_dataset) {
    return Status::InvalidArgument(
        "exactly one of --graph=FILE or --dataset=NAME is required");
  }
  if (has_graph) {
    SubstrateOptions options;
    RWDOM_ASSIGN_OR_RETURN(options.directed,
                           BoolFlagOr(invocation, "directed", false));
    RWDOM_ASSIGN_OR_RETURN(options.weights, ParseWeightedFlag(invocation));
    if (options.directed && options.weights == SubstrateWeights::kIgnore) {
      return Status::InvalidArgument(
          "--directed needs the weighted substrate; drop --weighted=no");
    }
    return LoadSubstrate(invocation.flags.at("graph"), options);
  }
  // Datasets carry directedness in the variant name, so --directed=1 is
  // rejected; --weighted passes through (it overrides autodetection when a
  // real file backs the dataset, e.g. --weighted=no for a timestamped
  // SNAP column under a plain name).
  RWDOM_ASSIGN_OR_RETURN(bool dataset_directed,
                         BoolFlagOr(invocation, "directed", false));
  if (dataset_directed) {
    return Status::InvalidArgument(
        "--directed applies to --graph only; pick a directed dataset "
        "variant instead (e.g. CAGrQc-wd)");
  }
  std::optional<SubstrateWeights> weights;
  if (invocation.flags.count("weighted") > 0) {
    RWDOM_ASSIGN_OR_RETURN(SubstrateWeights parsed,
                           ParseWeightedFlag(invocation));
    weights = parsed;
  }
  RWDOM_ASSIGN_OR_RETURN(
      SubstrateDataset dataset,
      LoadOrSynthesizeSubstrateDataset(
          invocation.flags.at("dataset"),
          FlagOr(invocation, "data_dir", "data"), weights));
  return LoadedSubstrate{std::move(dataset.substrate), {}};
}

Result<QueryContext*> AcquireContext(const CommandEnv& env,
                                     std::optional<QueryContext>* storage) {
  if (env.warm_context != nullptr) return env.warm_context;
  RWDOM_ASSIGN_OR_RETURN(LoadedSubstrate loaded,
                         ResolveSubstrate(env.invocation));
  storage->emplace(std::move(loaded));
  return &storage->value();
}

Result<SelectorParams> ResolveSelectorParams(
    const CliInvocation& invocation) {
  SelectorParams params;
  RWDOM_ASSIGN_OR_RETURN(int64_t length, IntFlagOr(invocation, "L", 6));
  RWDOM_ASSIGN_OR_RETURN(int64_t samples, IntFlagOr(invocation, "R", 100));
  RWDOM_ASSIGN_OR_RETURN(int64_t seed, IntFlagOr(invocation, "seed", 42));
  // Checked on the int64 BEFORE narrowing, so out-of-int32-range values
  // error instead of silently wrapping past the guards.
  RWDOM_ASSIGN_OR_RETURN(params.length, CheckedInt32Flag("L", length, 0));
  RWDOM_ASSIGN_OR_RETURN(params.num_samples,
                         CheckedInt32Flag("R", samples, 1));
  params.seed = static_cast<uint64_t>(seed);
  return params;
}

Result<std::string> ResolveAlgorithmName(const CliInvocation& invocation,
                                         SelectorParams* params) {
  const bool has_algorithm = invocation.flags.count("algorithm") > 0;
  const bool has_problem = invocation.flags.count("problem") > 0;
  const bool has_method = invocation.flags.count("method") > 0;
  if (has_algorithm && (has_problem || has_method)) {
    return Status::InvalidArgument(
        "--algorithm and --problem/--method are exclusive spellings");
  }
  if (!has_problem && !has_method) {
    return FlagOr(invocation, "algorithm", "ApproxF2");
  }
  const std::string problem = FlagOr(invocation, "problem", "F2");
  if (problem != "F1" && problem != "F2") {
    return Status::InvalidArgument("--problem wants F1 or F2, got: " +
                                   problem);
  }
  const std::string method = FlagOr(invocation, "method", "index-celf");
  if (method == "dp") return "DP" + problem;
  if (method == "sampling") return "Sampling" + problem;
  if (method == "index" || method == "index-celf") {
    params->lazy = method == "index-celf";
    return "Approx" + problem;
  }
  return Status::InvalidArgument(
      "--method wants dp, sampling, index or index-celf, got: " + method);
}

Result<std::vector<NodeId>> ParseSeedList(const std::string& text,
                                          NodeId num_nodes) {
  std::vector<NodeId> seeds;
  for (std::string_view field : SplitString(text, ',')) {
    RWDOM_ASSIGN_OR_RETURN(int64_t value, ParseInt64(field));
    if (value < 0 || value >= num_nodes) {
      return Status::OutOfRange(
          StrFormat("seed %lld outside [0, %d)",
                    static_cast<long long>(value), num_nodes));
    }
    seeds.push_back(static_cast<NodeId>(value));
  }
  return seeds;
}

}  // namespace rwdom
