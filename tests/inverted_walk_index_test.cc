#include "index/inverted_walk_index.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "graph/generators.h"
#include "util/parallel.h"
#include "walk/walk_source.h"

namespace rwdom {
namespace {

// Registers the paper's Example 3.1 walks (R = 1, L = 2) on the Fig. 1
// graph, 0-based: v_i -> i-1.
void AddPaperWalks(FixedWalkSource* source) {
  source->AddWalk({0, 1, 2}, 2);  // (v1, v2, v3)
  source->AddWalk({1, 2, 4}, 2);  // (v2, v3, v5)
  source->AddWalk({2, 1, 4}, 2);  // (v3, v2, v5)
  source->AddWalk({3, 6, 4}, 2);  // (v4, v7, v5)
  source->AddWalk({4, 1, 5}, 2);  // (v5, v2, v6)
  source->AddWalk({5, 6, 4}, 2);  // (v6, v7, v5)
  source->AddWalk({6, 4, 6}, 2);  // (v7, v5, v7) — repeat of v7.
  source->AddWalk({7, 6, 3}, 2);  // (v8, v7, v4)
}

using Entry = InvertedWalkIndex::Entry;

std::vector<std::pair<NodeId, int32_t>> ListOf(const InvertedWalkIndex& index,
                                               int32_t replicate, NodeId v) {
  std::vector<std::pair<NodeId, int32_t>> out;
  for (const Entry& e : index.DecodeList(replicate, v)) {
    out.emplace_back(e.id, e.weight);
  }
  return out;
}

TEST(InvertedWalkIndexTest, ReproducesPaperTable1) {
  Graph g = GeneratePaperFigure1();
  FixedWalkSource source(&g);
  AddPaperWalks(&source);
  InvertedWalkIndex index = InvertedWalkIndex::Build(2, 1, &source);

  EXPECT_EQ(index.num_nodes(), 8);
  EXPECT_EQ(index.length(), 2);
  EXPECT_EQ(index.num_replicates(), 1);

  using Pairs = std::vector<std::pair<NodeId, int32_t>>;
  // Table 1 of the paper (v1..v8 -> 0..7).
  EXPECT_EQ(ListOf(index, 0, 0), Pairs{});                          // v1.
  EXPECT_EQ(ListOf(index, 0, 1), (Pairs{{0, 1}, {2, 1}, {4, 1}}));  // v2.
  EXPECT_EQ(ListOf(index, 0, 2), (Pairs{{0, 2}, {1, 1}}));          // v3.
  EXPECT_EQ(ListOf(index, 0, 3), (Pairs{{7, 2}}));                  // v4.
  EXPECT_EQ(ListOf(index, 0, 4),
            (Pairs{{1, 2}, {2, 2}, {3, 2}, {5, 2}, {6, 1}}));       // v5.
  EXPECT_EQ(ListOf(index, 0, 5), (Pairs{{4, 2}}));                  // v6.
  EXPECT_EQ(ListOf(index, 0, 6), (Pairs{{3, 1}, {5, 1}, {7, 1}}));  // v7.
  EXPECT_EQ(ListOf(index, 0, 7), Pairs{});                          // v8.

  // 15 postings total; the repeated v7 in (v7, v5, v7) is not indexed.
  EXPECT_EQ(index.TotalEntries(), 15);
}

TEST(InvertedWalkIndexTest, RepeatVisitsIndexedOnce) {
  // Walk 0 -> 1 -> 0 -> 1: node 1 first visited at hop 1; the second visit
  // must not create another posting, and the start 0 is never indexed.
  Graph g = GeneratePath(3);
  FixedWalkSource source(&g);
  source.AddWalk({0, 1, 0, 1}, 3);
  source.AddWalk({1, 0, 1, 2}, 3);
  source.AddWalk({2, 1, 2, 1}, 3);
  InvertedWalkIndex index = InvertedWalkIndex::Build(3, 1, &source);

  using Pairs = std::vector<std::pair<NodeId, int32_t>>;
  EXPECT_EQ(ListOf(index, 0, 1), (Pairs{{0, 1}, {2, 1}}));
  EXPECT_EQ(ListOf(index, 0, 0), (Pairs{{1, 1}}));
  EXPECT_EQ(ListOf(index, 0, 2), (Pairs{{1, 3}}));
}

TEST(InvertedWalkIndexTest, MatchesBruteForceInversionOfRecordedWalks) {
  // Replicate i of node w is the source's stream walk (w, i); invert those
  // walks by hand and compare every list. 1 thread and R = 5 at 4 threads
  // run the whole-replicate path, R = 3 at 4 threads the node-chunk path.
  auto graph = GenerateBarabasiAlbert(40, 3, 61);
  ASSERT_TRUE(graph.ok());
  const int32_t length = 4;
  RandomWalkSource source(&*graph, 123);
  for (int threads : {1, 4}) {
    for (int32_t replicates : {3, 5}) {
      SetNumThreads(threads);
      InvertedWalkIndex index =
          InvertedWalkIndex::Build(length, replicates, &source);
      SetNumThreads(0);
      ASSERT_EQ(index.num_replicates(), replicates);
      std::vector<NodeId> walk;
      for (int32_t i = 0; i < replicates; ++i) {
        // expected[v] = list of (source, first-visit hop).
        std::map<NodeId, std::vector<std::pair<NodeId, int32_t>>> expected;
        for (NodeId w = 0; w < 40; ++w) {
          source.SampleWalkStream(w, static_cast<uint64_t>(i), length, &walk);
          std::vector<bool> visited(40, false);
          visited[static_cast<size_t>(walk[0])] = true;
          for (size_t j = 1; j < walk.size(); ++j) {
            if (visited[static_cast<size_t>(walk[j])]) continue;
            visited[static_cast<size_t>(walk[j])] = true;
            expected[walk[j]].emplace_back(w, static_cast<int32_t>(j));
          }
        }
        for (NodeId v = 0; v < 40; ++v) {
          EXPECT_EQ(ListOf(index, i, v), expected[v])
              << "threads " << threads << " R " << replicates
              << " replicate " << i << " node " << v;
        }
      }
    }
  }
}

TEST(InvertedWalkIndexTest, EntryBoundAndMemoryAccounting) {
  auto graph = GenerateBarabasiAlbert(50, 2, 63);
  ASSERT_TRUE(graph.ok());
  InvertedWalkIndex index = [&] {
    RandomWalkSource source(&*graph, 9);
    return InvertedWalkIndex::Build(5, 4, &source);
  }();
  // At most n * R * L postings, at least one per walk on a connected graph.
  EXPECT_LE(index.TotalEntries(), 50 * 4 * 5);
  EXPECT_GE(index.TotalEntries(), 50 * 4);
  // The compressed layout has to beat the raw one by at least 2x: raw
  // spends 8 bytes per posting, the codec 1-2 plus two u32 offset arrays.
  EXPECT_GT(index.MemoryUsageBytes(), 0);
  EXPECT_EQ(index.UncompressedBytes(),
            4 * (50 + 1) * 8 + index.TotalEntries() * 8);
  EXPECT_GE(index.UncompressedBytes(), 2 * index.MemoryUsageBytes());
}

TEST(InvertedWalkIndexTest, CursorBlocksConcatenateToDecodeList) {
  // On a star every leaf walk hits the hub at hop 1, so the hub's list
  // holds n - 1 = 299 postings — guaranteed past kPostingBlockEntries,
  // forcing the cursor to take multiple steps.
  Graph graph = GenerateStar(300);
  RandomWalkSource source(&graph, 17);
  InvertedWalkIndex index = InvertedWalkIndex::Build(4, 1, &source);
  int64_t multi_block_lists = 0;
  for (NodeId v = 0; v < index.num_nodes(); ++v) {
    const std::vector<Entry> whole = index.DecodeList(0, v);
    std::vector<Entry> stitched;
    for (auto cursor = index.List(0, v); cursor.Next();) {
      for (int32_t k = 0; k < cursor.count(); ++k) {
        stitched.push_back({cursor.ids()[k], cursor.weights()[k]});
      }
    }
    ASSERT_EQ(stitched.size(), whole.size()) << "node " << v;
    for (size_t k = 0; k < whole.size(); ++k) {
      EXPECT_EQ(stitched[k], whole[k]) << "node " << v << " entry " << k;
    }
    EXPECT_EQ(index.ListEntries(0, v),
              static_cast<int64_t>(whole.size()));
    if (whole.size() > static_cast<size_t>(kPostingBlockEntries)) {
      ++multi_block_lists;
    }
  }
  EXPECT_GT(multi_block_lists, 0)
      << "substrate too small to exercise multi-block cursors";
}

TEST(InvertedWalkIndexTest, WeightsAreWithinBudget) {
  auto graph = GenerateBarabasiAlbert(30, 2, 65);
  ASSERT_TRUE(graph.ok());
  RandomWalkSource source(&*graph, 11);
  const int32_t length = 6;
  InvertedWalkIndex index = InvertedWalkIndex::Build(length, 2, &source);
  for (int32_t i = 0; i < index.num_replicates(); ++i) {
    for (NodeId v = 0; v < index.num_nodes(); ++v) {
      for (const Entry& e : index.DecodeList(i, v)) {
        EXPECT_GE(e.weight, 1);
        EXPECT_LE(e.weight, length);
        EXPECT_NE(e.id, v);  // A walk never indexes its own start.
      }
    }
  }
}

TEST(InvertedWalkIndexTest, ZeroLengthWalksYieldEmptyIndex) {
  Graph g = GenerateCycle(5);
  RandomWalkSource source(&g, 13);
  InvertedWalkIndex index = InvertedWalkIndex::Build(0, 2, &source);
  EXPECT_EQ(index.TotalEntries(), 0);
}

}  // namespace
}  // namespace rwdom
