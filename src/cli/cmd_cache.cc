// `rwdom cache`: admin surface over a --cache_dir snapshot directory.
//
// Subcommands (first positional):
//   ls      one row per snapshot: file, format version, artifact key,
//           shape, size — header-only reads, cheap on big caches.
//   verify  deep check: recompute every checksum and re-validate
//           structure; any failing snapshot fails the command.
//   rm      delete by --key=CANONICAL (the exact string `ls` and
//           server_stats print) or --all.
//
// Multi-graph caches (a `serve --graph NAME=PATH` fleet) lay named
// tenants out under one level of subdirectories; every subcommand walks
// the whole tree and accepts --graph=NAME to scope to one tenant. The
// graph column/key appears only when the cache is tenant-aware (named
// subdirectories exist or --graph was passed), so single-tenant output
// is byte-identical to the pre-tenancy format.
//
// The command never needs the graph data: snapshots carry their
// identity in the ArtifactKey header, which is the point of the key
// redesign.
#include <cstdint>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "cli/command_registry.h"
#include "cli/flag_parsing.h"
#include "persist/artifact_cache.h"
#include "persist/snapshot.h"
#include "service/graph_registry.h"
#include "util/json.h"
#include "util/strings.h"

namespace rwdom {
namespace {

namespace fs = std::filesystem;

/// The filtered tree plus whether output should carry the graph
/// dimension at all (the v2 byte-identity gate).
struct CacheView {
  std::vector<CacheTreeEntry> entries;
  bool tenant_aware = false;
};

std::string EntryPath(const std::string& dir, const CacheTreeEntry& entry) {
  if (entry.graph == kDefaultGraphName) {
    return (fs::path(dir) / entry.file).string();
  }
  return (fs::path(dir) / entry.graph / entry.file).string();
}

Result<CacheView> ResolveCacheView(const std::string& dir,
                                   const CommandEnv& env) {
  CacheView view;
  RWDOM_ASSIGN_OR_RETURN(view.entries, ListSnapshotTree(dir));
  for (const CacheTreeEntry& entry : view.entries) {
    if (entry.graph != kDefaultGraphName) view.tenant_aware = true;
  }
  const std::string filter = FlagOr(env.invocation, "graph", "");
  if (!filter.empty()) {
    if (!IsValidGraphName(filter)) {
      return Status::InvalidArgument("invalid graph name \"" + filter +
                                     "\" (use [A-Za-z0-9_.-]+)");
    }
    view.tenant_aware = true;
    std::vector<CacheTreeEntry> kept;
    for (CacheTreeEntry& entry : view.entries) {
      if (entry.graph == filter) kept.push_back(std::move(entry));
    }
    view.entries = std::move(kept);
  }
  return view;
}

Status RunCacheLs(const std::string& dir, const CommandEnv& env) {
  RWDOM_ASSIGN_OR_RETURN(CacheView view, ResolveCacheView(dir, env));
  if (env.format == OutputFormat::kJson) {
    JsonWriter json;
    json.BeginObject();
    json.Key("cache").BeginObject();
    json.Key("dir").String(dir);
    json.Key("snapshots").BeginArray();
    for (const CacheTreeEntry& entry : view.entries) {
      auto meta = WalkIndexSerializer::Inspect(EntryPath(dir, entry),
                                               /*verify=*/false);
      json.BeginObject();
      if (view.tenant_aware) json.Key("graph").String(entry.graph);
      json.Key("file").String(entry.file);
      if (meta.ok()) {
        json.Key("version").Int(meta->version);
        json.Key("key").String(meta->key.CanonicalString());
        json.Key("num_nodes").Int(meta->num_nodes);
        json.Key("num_replicates").Int(meta->num_replicates);
        json.Key("total_entries").Int(meta->total_entries);
        json.Key("file_bytes").Int(meta->file_bytes);
      } else {
        json.Key("error").String(meta.status().message());
      }
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    json.EndObject();
    env.out << json.ToString() << "\n";
    return Status::OK();
  }
  env.out << StrFormat("cache %s: %lld snapshot(s)\n", dir.c_str(),
                       static_cast<long long>(view.entries.size()));
  for (const CacheTreeEntry& entry : view.entries) {
    auto meta = WalkIndexSerializer::Inspect(EntryPath(dir, entry),
                                             /*verify=*/false);
    const std::string label =
        view.tenant_aware ? entry.graph + "/" + entry.file : entry.file;
    if (!meta.ok()) {
      env.out << StrFormat("  %s  UNREADABLE: %s\n", label.c_str(),
                           meta.status().message().c_str());
      continue;
    }
    env.out << StrFormat(
        "  %s  v%u  %s  nodes=%d replicates=%d entries=%lld bytes=%lld\n",
        label.c_str(), meta->version, meta->key.CanonicalString().c_str(),
        meta->num_nodes, meta->num_replicates,
        static_cast<long long>(meta->total_entries),
        static_cast<long long>(meta->file_bytes));
  }
  return Status::OK();
}

Status RunCacheVerify(const std::string& dir, const CommandEnv& env) {
  RWDOM_ASSIGN_OR_RETURN(CacheView view, ResolveCacheView(dir, env));
  int64_t failed = 0;
  JsonWriter json;
  if (env.format == OutputFormat::kJson) {
    json.BeginObject();
    json.Key("cache_verify").BeginObject();
    json.Key("dir").String(dir);
    json.Key("snapshots").BeginArray();
  }
  for (const CacheTreeEntry& entry : view.entries) {
    auto meta = WalkIndexSerializer::Inspect(EntryPath(dir, entry),
                                             /*verify=*/true);
    const std::string label =
        view.tenant_aware ? entry.graph + "/" + entry.file : entry.file;
    if (env.format == OutputFormat::kJson) {
      json.BeginObject();
      if (view.tenant_aware) json.Key("graph").String(entry.graph);
      json.Key("file").String(entry.file);
      json.Key("ok").Bool(meta.ok());
      if (meta.ok()) {
        json.Key("key").String(meta->key.CanonicalString());
      } else {
        json.Key("error").String(meta.status().message());
      }
      json.EndObject();
    } else if (meta.ok()) {
      env.out << StrFormat("  %s  OK  %s\n", label.c_str(),
                           meta->key.CanonicalString().c_str());
    } else {
      env.out << StrFormat("  %s  FAIL: %s\n", label.c_str(),
                           meta.status().message().c_str());
    }
    if (!meta.ok()) ++failed;
  }
  if (env.format == OutputFormat::kJson) {
    json.EndArray();
    json.Key("checked").Int(static_cast<int64_t>(view.entries.size()));
    json.Key("failed").Int(failed);
    json.EndObject();
    json.EndObject();
    env.out << json.ToString() << "\n";
  } else {
    env.out << StrFormat("verified %lld snapshot(s), %lld failed\n",
                         static_cast<long long>(view.entries.size()),
                         static_cast<long long>(failed));
  }
  if (failed > 0) {
    return Status::Corruption(
        StrFormat("%lld snapshot(s) failed verification in %s",
                  static_cast<long long>(failed), dir.c_str()));
  }
  return Status::OK();
}

Status RunCacheRm(const std::string& dir, const CommandEnv& env) {
  const std::string key_text = FlagOr(env.invocation, "key", "");
  RWDOM_ASSIGN_OR_RETURN(bool all,
                         BoolFlagOr(env.invocation, "all", false));
  if (all != key_text.empty()) {
    return Status::InvalidArgument(
        "cache rm needs exactly one of --key=CANONICAL or --all");
  }
  RWDOM_ASSIGN_OR_RETURN(CacheView view, ResolveCacheView(dir, env));
  std::vector<CacheTreeEntry> doomed;
  if (all) {
    doomed = std::move(view.entries);
  } else {
    RWDOM_ASSIGN_OR_RETURN(ArtifactKey key, ArtifactKey::Parse(key_text));
    const std::string name = key.FileStem() + kSnapshotExtension;
    for (CacheTreeEntry& entry : view.entries) {
      if (entry.file == name) doomed.push_back(std::move(entry));
    }
    if (doomed.empty()) {
      return Status::NotFound("no snapshot for key " + key_text + " in " +
                              dir);
    }
  }
  for (const CacheTreeEntry& entry : doomed) {
    std::error_code ec;
    fs::remove(EntryPath(dir, entry), ec);
    if (ec) {
      return Status::IoError("cannot remove " + entry.file + ": " +
                             ec.message());
    }
  }
  if (env.format == OutputFormat::kJson) {
    JsonWriter json;
    json.BeginObject();
    json.Key("cache_rm").BeginObject();
    json.Key("dir").String(dir);
    json.Key("removed").Int(static_cast<int64_t>(doomed.size()));
    json.EndObject();
    json.EndObject();
    env.out << json.ToString() << "\n";
  } else {
    env.out << StrFormat("removed %lld snapshot(s) from %s\n",
                         static_cast<long long>(doomed.size()), dir.c_str());
  }
  return Status::OK();
}

Status RunCache(const CommandEnv& env) {
  const std::string dir = FlagOr(env.invocation, "cache_dir", "");
  if (dir.empty()) {
    return Status::InvalidArgument("cache requires --cache_dir=DIR");
  }
  const std::string verb = env.invocation.positionals.empty()
                               ? "ls"
                               : env.invocation.positionals.front();
  if (verb == "ls") return RunCacheLs(dir, env);
  if (verb == "verify") return RunCacheVerify(dir, env);
  if (verb == "rm") return RunCacheRm(dir, env);
  return Status::InvalidArgument("unknown cache subcommand `" + verb +
                                 "` (expected ls, verify or rm)");
}

}  // namespace

CommandDef MakeCacheCommand() {
  CommandDef def;
  def.name = "cache";
  def.summary = "inspect or prune a --cache_dir snapshot directory";
  def.usage =
      "rwdom cache [ls|verify|rm] --cache_dir=DIR [--graph=NAME] "
      "[--key=CANONICAL | --all]\n       keys are the canonical "
      "artifact-key strings server_stats and `cache ls` print, e.g. "
      "\"L=6,R=100,seed=42,substrate=0123456789abcdef\"; multi-graph "
      "caches keep named tenants under DIR/NAME/ subdirectories";
  def.flags = {
      {"cache_dir", "DIR", "snapshot directory (same flag `serve` takes)"},
      {"graph", "NAME", "scope to one tenant of a multi-graph cache "
                        "(\"default\" = the root-level snapshots)"},
      {"key", "CANONICAL", "for rm: one artifact key, canonical spelling"},
      {"all", "yes|no", "for rm: remove every snapshot (default no)"},
  };
  def.max_positionals = 1;
  def.positional_hint = "[ls|verify|rm]";
  def.handler = RunCache;
  return def;
}

}  // namespace rwdom
