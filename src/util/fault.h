// Deterministic fault injection for robustness tests.
//
// A *fault site* is a named point in production code where an operator
// (or a test) can make the next operation fail with a chosen errno —
// without touching the code under test. Sites are plumbed as a single
// call:
//
//   RWDOM_RETURN_IF_ERROR(FaultPoint("persist.write"));
//
// When nothing is armed, FaultPoint is one relaxed atomic load and a
// branch — cheap enough to leave in release builds, which is the point:
// the binary you fault-test is the binary you ship.
//
// Arming, from the environment or programmatically:
//
//   RWDOM_FAULTS=persist.write:1:ENOSPC,socket.send:%10:EPIPE
//   ArmFault("persist.rename", FaultSpec{.nth = 2, .error = EIO});
//
// Trigger syntax per site: `N` fires exactly once, on the Nth hit
// (1-based); `%K` fires on every Kth hit, forever. The optional third
// field is a symbolic errno (EIO, ENOSPC, EPIPE, ECONNRESET, EMSGSIZE,
// ENOMEM) or a raw integer; default EIO. The special action `stall`
// sleeps the hitting thread for ~30s and then succeeds — it widens the
// window between "tmp file exists" and "rename published" so crash
// tests can SIGKILL a process mid-checkpoint deterministically.
//
// Counting is per-site and process-global, so an injection schedule plus
// a deterministic workload yields the same failure sequence every run,
// including under TSan. Fired faults surface as Status::IoError with an
// `injected fault at <site>` message; layers above map that to their own
// typed error exactly as they would a real EIO.
#ifndef RWDOM_UTIL_FAULT_H_
#define RWDOM_UTIL_FAULT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace rwdom {

/// Registered fault sites. Arming an unknown site is an error — the
/// catalog doubles as documentation and keeps specs typo-proof.
/// (See DESIGN.md §6 for what each site guards.)
inline constexpr std::string_view kFaultSites[] = {
    "persist.open",    // snapshot tmp-file creation
    "persist.write",   // snapshot body write/flush/close
    "persist.rename",  // atomic publish of a finished snapshot
    "socket.send",     // any SendAll, and each event-loop response
    "index.build",     // index construction inside QueryContext::GetIndex
};

struct FaultSpec {
  /// If `every > 0`: fire on every `every`-th hit. Otherwise fire once,
  /// on hit number `nth` (1-based).
  int64_t nth = 1;
  int64_t every = 0;
  int error = 5 /*EIO*/;
  /// Sleep ~30s instead of failing (crash-test race widener).
  bool stall = false;
};

/// True while any site is armed (single relaxed load).
inline std::atomic<bool>& FaultsArmedFlag() {
  static std::atomic<bool> armed{false};
  return armed;
}

namespace fault_internal {
/// Slow path: count the hit and fail/stall if the spec says so.
Status Fire(std::string_view site);
}  // namespace fault_internal

/// The per-site hook. Returns OK unless `site` is armed and due.
inline Status FaultPoint(std::string_view site) {
  if (!FaultsArmedFlag().load(std::memory_order_relaxed)) return Status::OK();
  return fault_internal::Fire(site);
}

/// Arm `site` with `spec`. Replaces any existing spec and resets the hit
/// counter. Fails on unknown site names.
Status ArmFault(std::string_view site, const FaultSpec& spec);

/// Disarm one site (keeps its hit counter) / all sites (resets all).
void DisarmFault(std::string_view site);
void ClearFaults();

/// Parse and arm a full schedule: `site:trigger[:errno][,site:...]`.
/// All-or-nothing — on parse failure nothing is armed.
Status ArmFaultsFromSpec(std::string_view spec);

/// Arm from $RWDOM_FAULTS if set. Called once at process start (from
/// main); safe to call again. Returns what ArmFaultsFromSpec returned,
/// or OK when the variable is unset/empty.
Status ArmFaultsFromEnv();

/// How many times `site` has been hit (armed or not since last arm).
int64_t FaultHitCount(std::string_view site);

/// How many times `site` actually fired (failed or stalled).
int64_t FaultFireCount(std::string_view site);

}  // namespace rwdom

#endif  // RWDOM_UTIL_FAULT_H_
