// Algorithm 3 of the paper: the inverted walk index.
//
// For each of R replicates, one L-length random walk is drawn from every
// node w. The index is the "inverse" of those walks: for replicate i and
// node v, List(i, v) holds an entry <w, j> for every walk source w whose
// i-th walk first visits v at hop j (1 <= j <= L). Repeat visits within a
// walk are not indexed (only the first visit matters for hitting time), and
// a walk never indexes its own start node.
//
// Storage is a compressed CSR per replicate: two u32 offset arrays (entry
// starts and byte starts, both size n + 1) over one delta + varint byte
// stream (index/postings_codec.h) — roughly 1-2 bytes per posting against
// the 8 bytes of the former raw layout. List() hands back a block-decoding
// cursor that expands kPostingBlockEntries postings at a time into stack
// buffers, which the tally loops in GainState consume; DecodeList
// materializes a whole list for tests and tools.
#ifndef RWDOM_INDEX_INVERTED_WALK_INDEX_H_
#define RWDOM_INDEX_INVERTED_WALK_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "index/postings_codec.h"
#include "walk/walk_source.h"

namespace rwdom {

/// Immutable materialized-walk index; build once, reuse across all k greedy
/// rounds (and across Problem 1 / Problem 2 — the entry weights carry the
/// hop number, which Problem 2 semantics simply ignore).
class InvertedWalkIndex {
 public:
  using Entry = PostingEntry;

  /// Runs Algorithm 3: draws `num_replicates` walks of budget `length` from
  /// every node of `source`'s universe and inverts them. Replicate i of
  /// node w is the source's stream walk (w, i).
  static InvertedWalkIndex Build(int32_t length, int32_t num_replicates,
                                 const WalkSource* source);

  /// Block-decoding cursor over one compressed posting list. Usage:
  ///
  ///   for (auto cursor = index.List(i, v); cursor.Next();) {
  ///     // cursor.ids()[0 .. cursor.count()) ascending walk sources,
  ///     // cursor.weights()[k] the matching first-visit hops.
  ///   }
  class PostingCursor {
   public:
    /// Decodes the next block; false when the list is exhausted.
    bool Next() {
      if (remaining_ == 0) return false;
      const int32_t count = static_cast<int32_t>(
          std::min<int64_t>(remaining_, kPostingBlockEntries));
      remaining_ -= count;
      const uint32_t mask = (1u << weight_bits_) - 1u;
      const uint8_t* p = p_;
      int32_t prev = prev_;
      for (int32_t k = 0; k < count; ++k) {
        uint64_t v;
        p = DecodeVarint64(p, &v);
        prev += static_cast<int32_t>(v >> weight_bits_);
        ids_[k] = prev;
        weights_[k] = static_cast<int32_t>(v & mask) + 1;
      }
      p_ = p;
      prev_ = prev;
      count_ = count;
      return true;
    }

    /// Walk sources of the current block, strictly ascending.
    const int32_t* ids() const { return ids_; }
    /// First-visit hops of the current block, aligned with ids().
    const int32_t* weights() const { return weights_; }
    /// Entries in the current block (<= kPostingBlockEntries).
    int32_t count() const { return count_; }
    /// Entries in the whole list (independent of cursor position).
    int64_t total_entries() const { return total_; }

   private:
    friend class InvertedWalkIndex;
    PostingCursor(const uint8_t* data, int64_t entries, int32_t weight_bits)
        : p_(data),
          remaining_(entries),
          total_(entries),
          weight_bits_(weight_bits) {}

    const uint8_t* p_;
    int64_t remaining_;
    int64_t total_;
    int32_t weight_bits_;
    int32_t count_ = 0;
    int32_t prev_ = -1;
    int32_t ids_[kPostingBlockEntries];
    int32_t weights_[kPostingBlockEntries];
  };

  /// Postings for target node `v` in replicate `i`, ordered by walk source.
  PostingCursor List(int32_t replicate, NodeId v) const {
    RWDOM_DCHECK(replicate >= 0 && replicate < num_replicates());
    RWDOM_DCHECK(v >= 0 && v < num_nodes_);
    const Replicate& rep = replicates_[static_cast<size_t>(replicate)];
    const size_t sv = static_cast<size_t>(v);
    return PostingCursor(rep.data.data() + rep.byte_offsets[sv],
                         static_cast<int64_t>(rep.entry_offsets[sv + 1]) -
                             static_cast<int64_t>(rep.entry_offsets[sv]),
                         weight_bits_);
  }

  /// Number of postings in List(replicate, v) without decoding it.
  int64_t ListEntries(int32_t replicate, NodeId v) const {
    const Replicate& rep = replicates_[static_cast<size_t>(replicate)];
    const size_t sv = static_cast<size_t>(v);
    return static_cast<int64_t>(rep.entry_offsets[sv + 1]) -
           static_cast<int64_t>(rep.entry_offsets[sv]);
  }

  /// Fully decoded copy of one list (tests, tools, hashing — not the query
  /// hot path, which iterates block-wise via List()).
  std::vector<Entry> DecodeList(int32_t replicate, NodeId v) const;

  NodeId num_nodes() const { return num_nodes_; }
  int32_t length() const { return length_; }
  int32_t num_replicates() const {
    return static_cast<int32_t>(replicates_.size());
  }
  /// Low bits of each varint holding (hop - 1); bit_width(L - 1).
  int32_t weight_bits() const { return weight_bits_; }

  /// Total postings across all replicates.
  int64_t TotalEntries() const;

  /// Approximate heap footprint in bytes (compressed layout).
  int64_t MemoryUsageBytes() const;

  /// What the former raw CSR layout (i64 offsets + 8-byte entries) would
  /// occupy — the denominator of the compression ratio `rwdom stats`
  /// reports.
  int64_t UncompressedBytes() const;

 private:
  // Binary save/load lives in persist/snapshot.h (the persist layer owns
  // the on-disk format; the friend grant is how it reaches the storage).
  friend class WalkIndexSerializer;

  /// Uncompressed CSR of one replicate: the build paths produce this
  /// shape, then Compress() folds it away.
  struct RawReplicate {
    std::vector<int64_t> offsets;  // size n + 1
    std::vector<Entry> entries;
  };

  /// Compressed CSR of one replicate. entry_offsets[v] counts postings
  /// before node v's list; byte_offsets[v] locates it in `data`. Both u32:
  /// Compress() checks a replicate never exceeds 4G entries/bytes.
  struct Replicate {
    std::vector<uint32_t> entry_offsets;  // size n + 1
    std::vector<uint32_t> byte_offsets;   // size n + 1
    std::vector<uint8_t> data;
  };

  static Replicate Compress(NodeId num_nodes, int32_t weight_bits,
                            const RawReplicate& raw);

  InvertedWalkIndex(NodeId num_nodes, int32_t length,
                    std::vector<Replicate> replicates)
      : num_nodes_(num_nodes),
        length_(length),
        weight_bits_(PostingWeightBits(length)),
        replicates_(std::move(replicates)) {}

  NodeId num_nodes_;
  int32_t length_;
  int32_t weight_bits_;
  std::vector<Replicate> replicates_;
};

}  // namespace rwdom

#endif  // RWDOM_INDEX_INVERTED_WALK_INDEX_H_
