// `rwdom cover`: minimum seeds for alpha coverage (greedy partial cover).
#include <optional>

#include "cli/command_registry.h"
#include "cli/flag_parsing.h"
#include "service/engine.h"

namespace rwdom {
namespace {

Status RunCover(const CommandEnv& env) {
  std::optional<QueryContext> local;
  RWDOM_ASSIGN_OR_RETURN(QueryContext * context,
                         AcquireContext(env, &local));
  CoverRequest request;
  RWDOM_ASSIGN_OR_RETURN(request.params,
                         ResolveSelectorParams(env.invocation));
  RWDOM_ASSIGN_OR_RETURN(request.alpha,
                         DoubleFlagOr(env.invocation, "alpha", 0.9));
  if (!(request.alpha >= 0.0 && request.alpha <= 1.0)) {  // Rejects NaN.
    return Status::InvalidArgument("--alpha must be in [0, 1]");
  }

  RWDOM_ASSIGN_OR_RETURN(CoverResponse response, Cover(*context, request));
  Render(ServiceResponse(std::move(response)), env.format, env.out);
  return Status::OK();
}

}  // namespace

CommandDef MakeCoverCommand() {
  CommandDef def;
  def.name = "cover";
  def.summary = "minimum seeds for alpha coverage";
  def.usage =
      "rwdom cover (--graph=FILE | --dataset=NAME) --alpha=0.9 [--L=6 "
      "--R=100 --seed=42]";
  def.flags = WithSubstrateFlags({
      {"alpha", "X", "coverage target in [0, 1] (default 0.9)"},
      {"L", "N", "walk budget (default 6)"},
      {"R", "N", "index replicates (default 100)"},
      {"seed", "N", "master walk seed (default 42)"},
  });
  def.batchable = true;
  def.handler = RunCover;
  return def;
}

}  // namespace rwdom
