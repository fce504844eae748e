// Delta + varint codec for inverted-walk-index posting lists.
//
// A posting list for (replicate i, target v) holds entries <walk source w,
// first-visit hop j> in strictly ascending source order (each replicate
// draws exactly one walk per node, and only first visits are indexed), so
// the sources delta-encode with every gap >= 1. The hop weight j lies in
// [1, L], so it packs into the low bits of the same varint:
//
//   value_k = (delta_k << weight_bits) | (j_k - 1)
//   delta_k = w_k - w_{k-1}            (w_{-1} = -1, so delta_k >= 1)
//   weight_bits = bit_width(L - 1)     (0 when L <= 1)
//
// One LEB128 varint per posting; typical graphs land at 1-2 bytes per
// 8-byte raw entry. Decoding proceeds block-at-a-time (kPostingBlockEntries
// per step) into stack buffers, which is where the gain tally loops
// (index/gain_state.cc) pick the entries up.
//
// Two decoders: the unchecked fast path (trusted, post-validation data —
// the in-memory index) and a checked variant for the persist layer, which
// must treat every byte as hostile.
#ifndef RWDOM_INDEX_POSTINGS_CODEC_H_
#define RWDOM_INDEX_POSTINGS_CODEC_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/logging.h"

namespace rwdom {

/// One posting: walk started at `id` and first reached the list's target
/// node at hop `weight`.
struct PostingEntry {
  NodeId id;
  int32_t weight;
};

inline bool operator==(const PostingEntry& a, const PostingEntry& b) {
  return a.id == b.id && a.weight == b.weight;
}

/// Entries decoded per cursor step; sized so the block's id/weight buffers
/// live comfortably on the stack while amortizing per-block overhead.
inline constexpr int32_t kPostingBlockEntries = 128;

/// Bits needed to store (weight - 1) for weights in [1, max(1, length)].
inline int32_t PostingWeightBits(int32_t length) {
  if (length <= 1) return 0;
  return static_cast<int32_t>(
      std::bit_width(static_cast<uint32_t>(length - 1)));
}

/// LEB128 length of `v` (1..10 bytes).
inline int32_t Varint64Length(uint64_t v) {
  return static_cast<int32_t>((std::bit_width(v | 1) + 6) / 7);
}

inline void AppendVarint64(uint64_t v, std::vector<uint8_t>* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

/// Unchecked decode: `p` must point at a varint produced by AppendVarint64
/// within a buffer whose integrity was validated up front.
inline const uint8_t* DecodeVarint64(const uint8_t* p, uint64_t* out) {
  uint64_t result = 0;
  int shift = 0;
  uint8_t byte;
  do {
    byte = *p++;
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    shift += 7;
  } while (byte & 0x80);
  *out = result;
  return p;
}

/// Bounds-checked decode for untrusted bytes; returns nullptr on
/// truncation or a varint running past 10 bytes.
inline const uint8_t* DecodeVarint64Checked(const uint8_t* p,
                                            const uint8_t* end,
                                            uint64_t* out) {
  uint64_t result = 0;
  for (int shift = 0; shift < 70; shift += 7) {
    if (p == end) return nullptr;
    const uint8_t byte = *p++;
    if (shift < 64) {
      result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    }
    if (!(byte & 0x80)) {
      *out = result;
      return p;
    }
  }
  return nullptr;
}

/// Appends the delta+varint encoding of `entries` (strictly ascending ids,
/// weights in [1, max(1, length)]) to `out`.
inline void EncodePostingList(const PostingEntry* entries, size_t count,
                              int32_t weight_bits,
                              std::vector<uint8_t>* out) {
  NodeId prev = -1;
  for (size_t k = 0; k < count; ++k) {
    const int64_t delta =
        static_cast<int64_t>(entries[k].id) - static_cast<int64_t>(prev);
    RWDOM_DCHECK(delta >= 1) << "posting ids must strictly ascend";
    RWDOM_DCHECK(entries[k].weight >= 1 &&
                 entries[k].weight <= (1 << weight_bits))
        << "weight out of range for weight_bits";
    AppendVarint64((static_cast<uint64_t>(delta) << weight_bits) |
                       static_cast<uint64_t>(entries[k].weight - 1),
                   out);
    prev = entries[k].id;
  }
}

/// Decodes and validates one list from untrusted bytes: exactly `count`
/// entries consuming exactly [begin, end), ids strictly ascending in
/// [0, num_nodes), weights in [1, max(1, length)]. Returns false on any
/// violation; `out` may hold partial garbage then.
inline bool DecodePostingListChecked(const uint8_t* begin, const uint8_t* end,
                                     int64_t count, int32_t weight_bits,
                                     NodeId num_nodes, int32_t length,
                                     std::vector<PostingEntry>* out) {
  out->clear();
  out->reserve(static_cast<size_t>(count));
  const uint32_t mask = (1u << weight_bits) - 1u;
  const int32_t max_weight = length < 1 ? 1 : length;
  int64_t prev = -1;
  const uint8_t* p = begin;
  for (int64_t k = 0; k < count; ++k) {
    uint64_t v = 0;
    p = DecodeVarint64Checked(p, end, &v);
    if (p == nullptr) return false;
    const uint64_t delta = v >> weight_bits;
    const int32_t weight = static_cast<int32_t>(v & mask) + 1;
    if (delta < 1 || delta > static_cast<uint64_t>(num_nodes)) return false;
    const int64_t id = prev + static_cast<int64_t>(delta);
    if (id >= num_nodes || weight > max_weight) return false;
    out->push_back({static_cast<NodeId>(id), weight});
    prev = id;
  }
  return p == end;
}

}  // namespace rwdom

#endif  // RWDOM_INDEX_POSTINGS_CODEC_H_
