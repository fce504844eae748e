// ArtifactKey: the one canonical identity of a cached walk-index
// artifact, from the in-memory cache map to the on-disk snapshot header.
//
// The inverted walk index is a pure function of (substrate, L, R, seed).
// Before this type existed that fact was scattered: QueryContext keyed
// its map on an ad-hoc (L, R, seed) tuple, the serialized index stored no
// key at all, and the JSONL protocol repeated the three fields per
// request. ArtifactKey names the function's full domain explicitly —
// including the substrate, as a 64-bit content fingerprint — so every
// layer (cache map, snapshot header, `server_stats`, the `rwdom cache`
// admin command) speaks the same identity and a snapshot built against a
// different graph can be rejected instead of trusted.
//
// CanonicalString()/Parse() round-trip exactly; the canonical form is the
// wire/UI spelling ("L=6,R=100,seed=42,substrate=0123456789abcdef") and
// FileStem() is the filesystem-safe spelling used for snapshot names.
#ifndef RWDOM_SERVICE_ARTIFACT_KEY_H_
#define RWDOM_SERVICE_ARTIFACT_KEY_H_

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace rwdom {

/// Identity of one inverted-walk-index artifact. Ordered (map key) and
/// equality-comparable; two keys are equal iff the artifacts they name
/// are bit-identical.
struct ArtifactKey {
  int32_t length = 6;         ///< L, the walk budget.
  int32_t num_samples = 100;  ///< R, replicates per node.
  uint64_t seed = 42;         ///< Master walk seed.
  /// Content fingerprint of the substrate the index was built over
  /// (SubstrateFingerprint); 0 when unset.
  uint64_t substrate_fingerprint = 0;

  friend auto operator<=>(const ArtifactKey&, const ArtifactKey&) = default;

  /// "L=6,R=100,seed=42,substrate=0123456789abcdef" — the spelling used
  /// by server_stats, `rwdom cache ls` and error messages.
  std::string CanonicalString() const;

  /// Filesystem-safe stem for snapshot files:
  /// "idx-L6-R100-s42-0123456789abcdef".
  std::string FileStem() const;

  /// Inverse of CanonicalString(); strict (all four fields, in order).
  static Result<ArtifactKey> Parse(std::string_view text);
};

}  // namespace rwdom

#endif  // RWDOM_SERVICE_ARTIFACT_KEY_H_
