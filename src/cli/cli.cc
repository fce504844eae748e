#include "cli/cli.h"

#include <cstdio>
#include <iostream>

#include "cli/command_registry.h"
#include "cli/flag_parsing.h"
#include "util/fault.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace rwdom {

std::string CliUsage() {
  std::string text =
      "rwdom — random-walk domination toolkit (Li et al., ICDE'14)\n"
      "\n"
      "usage: rwdom COMMAND [--flag=value ...]\n"
      "       rwdom help COMMAND   detailed flag spec for one command\n"
      "\n"
      "commands:\n";
  for (const CommandDef& command : Commands()) {
    text += StrFormat("  %-9s  %s\n", command.name.c_str(),
                      command.summary.c_str());
  }
  text +=
      "\n"
      "graph input: --graph=EDGELIST or --dataset=NAME [--data_dir=DIR].\n"
      "  Edge lists may carry a third weight column (autodetected; override\n"
      "  with --weighted=auto|yes|no) and load as digraphs via\n"
      "  --directed=1. Dataset variants: NAME-w (weighted), NAME-wd\n"
      "  (weighted directed). Every command runs on every substrate.\n"
      "algorithms: Degree Dominate Random DPF1 DPF2 SamplingF1 SamplingF2\n"
      "            ApproxF1 ApproxF2 EdgeGreedy\n"
      "global:     --threads=N (or RWDOM_THREADS=N; default: all cores).\n"
      "            Results are identical for every thread count.\n"
      "            --format=text|json — structured output, one JSON\n"
      "            object per query, identical numbers to the text form.\n"
      "batching:   rwdom batch SCRIPT.jsonl runs many queries on one warm\n"
      "            engine (graph loaded once, walk index built once per\n"
      "            (L, R, seed)).\n"
      "serving:    rwdom serve --port=P exposes the same warm engine over\n"
      "            TCP (JSONL in, JSONL out, many concurrent clients);\n"
      "            rwdom client --port=P sends queries to it.\n"
      "Unknown commands and flags are rejected with a closest-match hint.\n";
  return text;
}

Result<CliInvocation> ParseCliArgs(int argc, const char* const* argv) {
  if (argc < 2) {
    return Status::InvalidArgument("missing command (try `rwdom help`)");
  }
  CliInvocation invocation;
  invocation.command = argv[1];
  if (invocation.command == "--help" || invocation.command == "-h") {
    invocation.command = "help";
  }
  for (int i = 2; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!StartsWith(arg, "--")) {
      invocation.positionals.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    size_t eq = arg.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("flag needs a value: --" +
                                     std::string(arg));
    }
    std::string key(arg.substr(0, eq));
    std::string value(arg.substr(eq + 1));
    invocation.ordered_flags.emplace_back(key, value);
    invocation.flags[std::move(key)] = std::move(value);
  }
  return invocation;
}

Status RunCliCommand(const CliInvocation& invocation, std::ostream& out) {
  const CommandDef* command = FindCommand(invocation.command);
  if (command == nullptr) {
    return Status::NotFound("unknown command: " + invocation.command +
                            SuggestCommand(invocation.command));
  }
  RWDOM_RETURN_IF_ERROR(ValidateInvocation(*command, invocation));
  if (invocation.flags.count("threads") > 0) {
    // Global --threads flag (equivalent to the RWDOM_THREADS env var).
    RWDOM_ASSIGN_OR_RETURN(int64_t threads,
                           IntFlagOr(invocation, "threads", 0));
    if (threads < 1 || threads > 1024) {
      return Status::InvalidArgument("--threads must be in [1, 1024]");
    }
    SetNumThreads(static_cast<int>(threads));
  }
  OutputFormat format = OutputFormat::kText;
  const std::string format_text = FlagOr(invocation, "format", "text");
  if (format_text == "json") {
    format = OutputFormat::kJson;
  } else if (format_text != "text") {
    return Status::InvalidArgument("--format wants text or json, got: " +
                                   format_text);
  }
  CommandEnv env{invocation, out, format, /*warm_context=*/nullptr};
  return command->handler(env);
}

int CliMain(int argc, const char* const* argv) {
  // Fault-injection schedules ride in on the environment so child
  // processes under test (crash_consistency_test) can be armed without
  // touching their command lines. No-op when unset.
  if (Status faults = ArmFaultsFromEnv(); !faults.ok()) {
    std::fprintf(stderr, "RWDOM_FAULTS: %s\n", faults.ToString().c_str());
    return 2;
  }
  Result<CliInvocation> invocation = ParseCliArgs(argc, argv);
  if (!invocation.ok()) {
    std::fprintf(stderr, "%s\n%s", invocation.status().ToString().c_str(),
                 CliUsage().c_str());
    return 2;
  }
  Status status = RunCliCommand(*invocation, std::cout);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace rwdom
