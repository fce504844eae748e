// Flag access and resolution helpers shared by every command handler and
// by `rwdom batch` script lines (which reuse the exact same parsing path
// as one-shot invocations, so batch output is bit-identical to cold
// runs).
#ifndef RWDOM_CLI_FLAG_PARSING_H_
#define RWDOM_CLI_FLAG_PARSING_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "cli/command.h"
#include "core/selector_registry.h"
#include "service/query_context.h"
#include "util/status.h"
#include "wgraph/substrate.h"

namespace rwdom {

/// `flags[key]`, or `fallback` when absent.
std::string FlagOr(const CliInvocation& invocation, const std::string& key,
                   const std::string& fallback);

/// Every occurrence of --key in source order, for repeatable flags.
/// Falls back to the single map entry when the invocation was built
/// without ordered_flags (hand-constructed in tests).
std::vector<std::string> RepeatedFlagValues(const CliInvocation& invocation,
                                            const std::string& key);

/// Typed variants; parse errors are InvalidArgument. DoubleFlagOr also
/// rejects NaN and infinities.
Result<int64_t> IntFlagOr(const CliInvocation& invocation,
                          const std::string& key, int64_t fallback);
Result<double> DoubleFlagOr(const CliInvocation& invocation,
                            const std::string& key, double fallback);
Result<bool> BoolFlagOr(const CliInvocation& invocation,
                        const std::string& key, bool fallback);

/// The shared substrate-selection flag spec (--graph, --dataset,
/// --data_dir, --directed, --weighted), prepended to `extra` for each
/// graph-consuming command.
std::vector<FlagDef> WithSubstrateFlags(std::vector<FlagDef> extra);

/// True if `name` selects/shapes the input substrate — these are banned
/// inside batch script lines (the script's substrate is fixed up front).
bool IsSubstrateFlag(const std::string& name);

/// Validates a parsed int64 flag value against [min_value, 2^31) BEFORE
/// narrowing to the int32 the engine uses, so out-of-range input errors
/// instead of wrapping.
Result<int32_t> CheckedInt32Flag(const std::string& name, int64_t value,
                                 int64_t min_value);

/// Resolves --graph=FILE or --dataset=NAME (plus --directed /
/// --weighted) into a loaded substrate. See the old cli.cc contract:
/// exactly one source flag; dataset variants carry directedness in the
/// name.
Result<LoadedSubstrate> ResolveSubstrate(const CliInvocation& invocation);

/// The warm context when running inside a batch, else a fresh context
/// resolved from the invocation's substrate flags into `storage`.
Result<QueryContext*> AcquireContext(const CommandEnv& env,
                                     std::optional<QueryContext>* storage);

/// --L / --R / --seed with the select-side defaults (6 / 100 / 42).
Result<SelectorParams> ResolveSelectorParams(
    const CliInvocation& invocation);

/// --algorithm=NAME, or --problem=F1|F2 / --method=dp|sampling|index|
/// index-celf (exclusive spellings); sets params->lazy for the index
/// methods.
Result<std::string> ResolveAlgorithmName(const CliInvocation& invocation,
                                         SelectorParams* params);

/// Comma-separated node list, range-checked against `num_nodes`.
Result<std::vector<NodeId>> ParseSeedList(const std::string& text,
                                          NodeId num_nodes);

}  // namespace rwdom

#endif  // RWDOM_CLI_FLAG_PARSING_H_
