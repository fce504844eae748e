#include "index/inverted_walk_index.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"
#include "util/parallel.h"

namespace rwdom {
namespace {

// One raw posting before the counting sort: walk from `source` first visits
// `target` at hop `hop`.
struct RawPosting {
  NodeId target;
  NodeId source;
  int32_t hop;
};

// A walk can index at most min(length, n - 1) distinct non-start nodes, so
// this bounds the postings produced by the walks of one node range.
size_t MaxPostings(int64_t num_walks, int32_t length, NodeId n) {
  return static_cast<size_t>(num_walks) *
         static_cast<size_t>(std::min<int64_t>(length, std::max(n - 1, 0)));
}

// Inverts the walks of nodes [node_begin, node_end) for one replicate into
// `raw` (appended in node order), counting postings per target into
// `counts` (size n, zero-initialized by the caller). `visited_stamp` is
// n-sized scratch holding values < *stamp on entry: visited_stamp[v] ==
// the current walk's stamp <=> v was already seen by this walk, which
// avoids clearing an n-sized array per walk (Alg. 3's visited[]).
void InvertWalkRange(const WalkSource& source, int32_t replicate,
                     int32_t length, NodeId node_begin, NodeId node_end,
                     std::vector<int64_t>* visited_stamp, int64_t* stamp,
                     std::vector<RawPosting>* raw,
                     std::vector<int64_t>* counts) {
  std::vector<NodeId> trajectory;
  for (NodeId w = node_begin; w < node_end; ++w) {
    source.SampleWalkStream(w, static_cast<uint64_t>(replicate), length,
                            &trajectory);
    RWDOM_DCHECK(!trajectory.empty() && trajectory.front() == w);
    const int64_t my_stamp = (*stamp)++;
    (*visited_stamp)[static_cast<size_t>(w)] = my_stamp;
    for (size_t j = 1; j < trajectory.size(); ++j) {
      NodeId v = trajectory[j];
      if ((*visited_stamp)[static_cast<size_t>(v)] == my_stamp) continue;
      (*visited_stamp)[static_cast<size_t>(v)] = my_stamp;
      raw->push_back({v, w, static_cast<int32_t>(j)});
      ++(*counts)[static_cast<size_t>(v)];
    }
  }
}

}  // namespace

InvertedWalkIndex::Replicate InvertedWalkIndex::Compress(
    NodeId num_nodes, int32_t weight_bits, const RawReplicate& raw) {
  constexpr size_t kU32Max = std::numeric_limits<uint32_t>::max();
  RWDOM_CHECK_LE(raw.entries.size(), kU32Max)
      << "replicate too large for compressed u32 entry offsets";
  Replicate rep;
  rep.entry_offsets.resize(static_cast<size_t>(num_nodes) + 1);
  rep.byte_offsets.resize(static_cast<size_t>(num_nodes) + 1);
  // Typical delta+varint output runs 1-2 bytes per posting; reserving 2
  // avoids most regrowth, shrink_to_fit below returns the slack.
  rep.data.reserve(raw.entries.size() * 2);
  for (size_t v = 0; v < static_cast<size_t>(num_nodes); ++v) {
    rep.entry_offsets[v] = static_cast<uint32_t>(raw.offsets[v]);
    rep.byte_offsets[v] = static_cast<uint32_t>(rep.data.size());
    EncodePostingList(
        raw.entries.data() + raw.offsets[v],
        static_cast<size_t>(raw.offsets[v + 1] - raw.offsets[v]),
        weight_bits, &rep.data);
  }
  rep.entry_offsets[static_cast<size_t>(num_nodes)] =
      static_cast<uint32_t>(raw.entries.size());
  RWDOM_CHECK_LE(rep.data.size(), kU32Max)
      << "replicate too large for compressed u32 byte offsets";
  rep.byte_offsets[static_cast<size_t>(num_nodes)] =
      static_cast<uint32_t>(rep.data.size());
  rep.data.shrink_to_fit();
  return rep;
}

InvertedWalkIndex InvertedWalkIndex::Build(int32_t length,
                                           int32_t num_replicates,
                                           const WalkSource* source) {
  RWDOM_CHECK_GE(length, 0);
  RWDOM_CHECK_GE(num_replicates, 1);
  const NodeId n = source->num_nodes();
  const int32_t weight_bits = PostingWeightBits(length);

  std::vector<Replicate> replicates(static_cast<size_t>(num_replicates));

  if (num_replicates >= NumThreads()) {
    // Whole replicates in parallel: zero serial fraction, and walks come
    // from per-(node, replicate) streams so the result is identical for
    // any thread count or schedule. Compression is a pure per-replicate
    // function, so it parallelizes (and stays deterministic) for free.
    ParallelFor(0, num_replicates, [&](int64_t i) {
      std::vector<int64_t> visited_stamp(static_cast<size_t>(n), -1);
      int64_t stamp = 0;
      std::vector<RawPosting> raw;
      raw.reserve(MaxPostings(n, length, n));
      std::vector<int64_t> counts(static_cast<size_t>(n), 0);
      InvertWalkRange(*source, static_cast<int32_t>(i), length, 0, n,
                      &visited_stamp, &stamp, &raw, &counts);
      // Counting sort of the raw postings (in ascending-source order) into
      // a transient CSR, compressed away at once, so at most one
      // uncompressed replicate per thread is ever resident.
      RawReplicate csr;
      csr.offsets.assign(static_cast<size_t>(n) + 1, 0);
      for (size_t v = 0; v < static_cast<size_t>(n); ++v) {
        csr.offsets[v + 1] = csr.offsets[v] + counts[v];
      }
      csr.entries.resize(raw.size());
      std::vector<int64_t> cursor(csr.offsets.begin(), csr.offsets.end() - 1);
      for (const RawPosting& p : raw) {
        csr.entries[static_cast<size_t>(
            cursor[static_cast<size_t>(p.target)]++)] = {p.source, p.hop};
      }
      replicates[static_cast<size_t>(i)] = Compress(n, weight_bits, csr);
    });
    return InvertedWalkIndex(n, length, std::move(replicates));
  }

  // Fewer replicates than threads: split each replicate's node range into
  // chunks. Per-chunk raw vectors concatenate in chunk order, preserving
  // the ascending-source order the counting sort relies on; the CSR fill
  // is parallel too, each chunk writing through its own pre-computed
  // per-target cursors. Compression then runs serially per replicate (its
  // byte offsets are a prefix scan), still bit-identical by construction.
  const int max_chunks = std::max(MaxChunks(n), 1);
  std::vector<std::vector<RawPosting>> raw(static_cast<size_t>(max_chunks));
  std::vector<std::vector<int64_t>> counts(static_cast<size_t>(max_chunks));
  for (int32_t i = 0; i < num_replicates; ++i) {
    ParallelForChunks(0, n, [&](int chunk, int64_t b, int64_t e) {
      auto& my_raw = raw[static_cast<size_t>(chunk)];
      auto& my_counts = counts[static_cast<size_t>(chunk)];
      my_raw.clear();
      my_raw.reserve(MaxPostings(e - b, length, n));
      my_counts.assign(static_cast<size_t>(n), 0);
      std::vector<int64_t> visited_stamp(static_cast<size_t>(n), -1);
      int64_t stamp = 0;
      InvertWalkRange(*source, i, length, static_cast<NodeId>(b),
                      static_cast<NodeId>(e), &visited_stamp, &stamp,
                      &my_raw, &my_counts);
    });

    RawReplicate csr;
    csr.offsets.assign(static_cast<size_t>(n) + 1, 0);
    size_t total = 0;
    for (int c = 0; c < max_chunks; ++c) {
      if (counts[static_cast<size_t>(c)].empty()) continue;
      total += raw[static_cast<size_t>(c)].size();
      for (size_t v = 0; v < static_cast<size_t>(n); ++v) {
        csr.offsets[v + 1] += counts[static_cast<size_t>(c)][v];
      }
    }
    for (size_t v = 1; v <= static_cast<size_t>(n); ++v) {
      csr.offsets[v] += csr.offsets[v - 1];
    }
    csr.entries.resize(total);

    // chunk_cursor[c][v]: where chunk c's postings for target v start —
    // offsets[v] plus everything earlier chunks contribute to v.
    std::vector<std::vector<int64_t>> chunk_cursor(
        static_cast<size_t>(max_chunks));
    std::vector<int64_t> running(csr.offsets.begin(),
                                 csr.offsets.end() - 1);
    for (int c = 0; c < max_chunks; ++c) {
      if (counts[static_cast<size_t>(c)].empty()) continue;
      chunk_cursor[static_cast<size_t>(c)] = running;
      for (size_t v = 0; v < static_cast<size_t>(n); ++v) {
        running[v] += counts[static_cast<size_t>(c)][v];
      }
    }
    ParallelFor(0, max_chunks, [&](int64_t c) {
      auto& cursor = chunk_cursor[static_cast<size_t>(c)];
      if (cursor.empty()) return;
      for (const RawPosting& p : raw[static_cast<size_t>(c)]) {
        csr.entries[static_cast<size_t>(
            cursor[static_cast<size_t>(p.target)]++)] = {p.source, p.hop};
      }
    });
    replicates[static_cast<size_t>(i)] = Compress(n, weight_bits, csr);
  }
  return InvertedWalkIndex(n, length, std::move(replicates));
}

std::vector<InvertedWalkIndex::Entry> InvertedWalkIndex::DecodeList(
    int32_t replicate, NodeId v) const {
  std::vector<Entry> entries;
  PostingCursor cursor = List(replicate, v);
  entries.reserve(static_cast<size_t>(cursor.total_entries()));
  while (cursor.Next()) {
    for (int32_t k = 0; k < cursor.count(); ++k) {
      entries.push_back({cursor.ids()[k], cursor.weights()[k]});
    }
  }
  return entries;
}

int64_t InvertedWalkIndex::TotalEntries() const {
  int64_t total = 0;
  for (const Replicate& rep : replicates_) {
    total += static_cast<int64_t>(rep.entry_offsets.back());
  }
  return total;
}

int64_t InvertedWalkIndex::MemoryUsageBytes() const {
  int64_t total = 0;
  for (const Replicate& rep : replicates_) {
    total += static_cast<int64_t>(
        rep.entry_offsets.capacity() * sizeof(uint32_t) +
        rep.byte_offsets.capacity() * sizeof(uint32_t) +
        rep.data.capacity());
  }
  return total;
}

int64_t InvertedWalkIndex::UncompressedBytes() const {
  const int64_t offsets_bytes =
      (static_cast<int64_t>(num_nodes_) + 1) *
      static_cast<int64_t>(sizeof(int64_t));
  return static_cast<int64_t>(replicates_.size()) * offsets_bytes +
         TotalEntries() * static_cast<int64_t>(sizeof(Entry));
}

}  // namespace rwdom
