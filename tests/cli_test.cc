#include "cli/cli.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "util/json.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace rwdom {
namespace {

Result<CliInvocation> Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "rwdom");
  return ParseCliArgs(static_cast<int>(args.size()), args.data());
}

std::pair<Status, std::string> RunCli(std::vector<const char*> args) {
  auto invocation = Parse(std::move(args));
  if (!invocation.ok()) return {invocation.status(), ""};
  std::ostringstream out;
  Status status = RunCliCommand(*invocation, out);
  return {status, out.str()};
}

TEST(CliParseTest, CommandAndFlags) {
  auto invocation = Parse({"select", "--k=5", "--algorithm=Degree"});
  ASSERT_TRUE(invocation.ok());
  EXPECT_EQ(invocation->command, "select");
  EXPECT_EQ(invocation->flags.at("k"), "5");
  EXPECT_EQ(invocation->flags.at("algorithm"), "Degree");
}

TEST(CliParseTest, RejectsMalformedInput) {
  const char* no_command[] = {"rwdom"};
  EXPECT_FALSE(ParseCliArgs(1, no_command).ok());
  EXPECT_FALSE(Parse({"stats", "--flagwithoutvalue"}).ok());
  // Positionals parse (help/batch take them); commands that take none
  // reject them at validation time.
  auto positional = Parse({"stats", "positional"});
  ASSERT_TRUE(positional.ok());
  EXPECT_EQ(positional->positionals, std::vector<std::string>{"positional"});
  EXPECT_EQ(RunCli({"stats", "positional"}).first.code(),
            StatusCode::kInvalidArgument);
}

TEST(CliTest, HelpListsEveryCommand) {
  auto [status, out] = RunCli({"help"});
  ASSERT_TRUE(status.ok());
  for (const char* command : {"datasets", "stats", "generate", "select",
                              "evaluate", "cover", "knn", "batch"}) {
    EXPECT_NE(out.find(command), std::string::npos) << command;
  }
}

TEST(CliTest, UnknownCommandFails) {
  auto [status, out] = RunCli({"frobnicate"});
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST(CliTest, DatasetsListsTable2) {
  auto [status, out] = RunCli({"datasets"});
  ASSERT_TRUE(status.ok());
  EXPECT_NE(out.find("CAGrQc"), std::string::npos);
  EXPECT_NE(out.find("75,872"), std::string::npos);  // Epinions nodes.
}

class CliFileTest : public testing::Test {
 protected:
  void SetUp() override {
    // Unique per test case: ctest runs each case as its own process, so a
    // shared fixed path races SetUp's write against another case's
    // TearDown delete under `ctest -j`.
    graph_path_ =
        testing::TempDir() + "/rwdom_cli_graph_" +
        testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".txt";
    // Star with hub 0 plus a tail: easy to predict selections.
    FILE* file = fopen(graph_path_.c_str(), "w");
    ASSERT_NE(file, nullptr);
    fputs("0 1\n0 2\n0 3\n0 4\n4 5\n", file);
    fclose(file);
  }
  void TearDown() override { std::remove(graph_path_.c_str()); }

  std::string GraphFlag() const { return "--graph=" + graph_path_; }
  std::string graph_path_;
};

TEST_F(CliFileTest, StatsReportsGraphShape) {
  std::string flag = GraphFlag();
  auto [status, out] = RunCli({"stats", flag.c_str()});
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(out.find("n=6"), std::string::npos);
  EXPECT_NE(out.find("m=5"), std::string::npos);
  EXPECT_NE(out.find("triangles=0"), std::string::npos);
}

TEST_F(CliFileTest, SelectPicksHubWithDegree) {
  std::string flag = GraphFlag();
  auto [status, out] = RunCli(
      {"select", flag.c_str(), "--algorithm=Degree", "--k=1", "--L=3"});
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(out.find("seeds: 0"), std::string::npos);
  EXPECT_NE(out.find("AHT="), std::string::npos);
}

TEST_F(CliFileTest, SelectRejectsUnknownAlgorithm) {
  std::string flag = GraphFlag();
  auto [status, out] =
      RunCli({"select", flag.c_str(), "--algorithm=Quantum", "--k=1"});
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(CliFileTest, EvaluateScoresSeedList) {
  std::string flag = GraphFlag();
  auto [status, out] =
      RunCli({"evaluate", flag.c_str(), "--seeds=0", "--L=3", "--R=200"});
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(out.find("AHT="), std::string::npos);
  EXPECT_NE(out.find("EHN="), std::string::npos);
}

TEST_F(CliFileTest, EvaluateRejectsOutOfRangeSeeds) {
  std::string flag = GraphFlag();
  auto [status, out] = RunCli({"evaluate", flag.c_str(), "--seeds=0,99"});
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
}

TEST_F(CliFileTest, CoverReachesTarget) {
  std::string flag = GraphFlag();
  auto [status, out] =
      RunCli({"cover", flag.c_str(), "--alpha=0.8", "--L=3", "--R=50"});
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(out.find("reached"), std::string::npos);
}

TEST_F(CliFileTest, SaveIndexWritesLoadableFile) {
  std::string flag = GraphFlag();
  std::string index_path = testing::TempDir() + "/rwdom_cli_index.bin";
  std::string save_flag = "--save_index=" + index_path;
  auto [status, out] = RunCli({"select", flag.c_str(), "--algorithm=ApproxF2",
                            "--k=1", "--L=3", "--R=10",
                            save_flag.c_str()});
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(out.find("index saved"), std::string::npos);
  std::ifstream file(index_path, std::ios::binary);
  EXPECT_TRUE(file.good());
  std::remove(index_path.c_str());
}

TEST_F(CliFileTest, SaveIndexRejectsNonIndexAlgorithms) {
  std::string flag = GraphFlag();
  std::string save_flag =
      "--save_index=" + testing::TempDir() + "/rwdom_cli_never.rwidx";
  auto [status, out] = RunCli({"select", flag.c_str(), "--algorithm=Degree",
                               "--k=1", save_flag.c_str()});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("Approx"), std::string::npos) << status;
}

TEST_F(CliFileTest, CacheCommandListsVerifiesAndRemovesSnapshots) {
  std::string flag = GraphFlag();
  const std::string dir = testing::TempDir() + "/rwdom_cli_cache";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::string save_flag = "--save_index=" + dir + "/manual.rwidx";
  std::string dir_flag = "--cache_dir=" + dir;
  ASSERT_TRUE(RunCli({"select", flag.c_str(), "--algorithm=ApproxF2",
                      "--k=1", "--L=3", "--R=10", save_flag.c_str()})
                  .first.ok());

  auto [ls_status, ls_out] = RunCli({"cache", "ls", dir_flag.c_str()});
  ASSERT_TRUE(ls_status.ok()) << ls_status;
  EXPECT_NE(ls_out.find("manual.rwidx"), std::string::npos) << ls_out;
  EXPECT_NE(ls_out.find("v3"), std::string::npos) << ls_out;
  EXPECT_NE(ls_out.find("L=3,R=10,seed=42,substrate="), std::string::npos)
      << ls_out;

  auto [verify_status, verify_out] =
      RunCli({"cache", "verify", dir_flag.c_str()});
  ASSERT_TRUE(verify_status.ok()) << verify_status;
  EXPECT_NE(verify_out.find("0 failed"), std::string::npos) << verify_out;

  // rm needs exactly one of --key / --all.
  EXPECT_EQ(RunCli({"cache", "rm", dir_flag.c_str()}).first.code(),
            StatusCode::kInvalidArgument);
  auto [rm_status, rm_out] =
      RunCli({"cache", "rm", dir_flag.c_str(), "--all=1"});
  ASSERT_TRUE(rm_status.ok()) << rm_status;
  EXPECT_NE(rm_out.find("removed 1 snapshot(s)"), std::string::npos)
      << rm_out;
  auto [empty_status, empty_out] = RunCli({"cache", "ls", dir_flag.c_str()});
  ASSERT_TRUE(empty_status.ok()) << empty_status;
  EXPECT_NE(empty_out.find("0 snapshot(s)"), std::string::npos) << empty_out;
  std::filesystem::remove_all(dir);
}

TEST_F(CliFileTest, CacheVerifyFailsOnAFlippedByte) {
  std::string flag = GraphFlag();
  const std::string dir = testing::TempDir() + "/rwdom_cli_cache_bad";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/manual.rwidx";
  std::string save_flag = "--save_index=" + path;
  std::string dir_flag = "--cache_dir=" + dir;
  ASSERT_TRUE(RunCli({"select", flag.c_str(), "--algorithm=ApproxF2",
                      "--k=1", "--L=3", "--R=10", save_flag.c_str()})
                  .first.ok());
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(-5, std::ios::end);
    char byte = 0;
    file.read(&byte, 1);
    byte ^= 0x40;
    file.seekp(-5, std::ios::end);
    file.write(&byte, 1);
  }
  auto [status, out] = RunCli({"cache", "verify", dir_flag.c_str()});
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(out.find("FAIL"), std::string::npos) << out;
  std::filesystem::remove_all(dir);
}

TEST_F(CliFileTest, CacheLsAndVerifyFlagLegacyAndTruncatedSnapshots) {
  std::string flag = GraphFlag();
  const std::string dir = testing::TempDir() + "/rwdom_cli_cache_legacy";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::string save_flag = "--save_index=" + dir + "/good.rwidx";
  std::string dir_flag = "--cache_dir=" + dir;
  ASSERT_TRUE(RunCli({"select", flag.c_str(), "--algorithm=ApproxF2",
                      "--k=1", "--L=3", "--R=10", save_flag.c_str()})
                  .first.ok());
  {
    // The good snapshot minus its last byte: the cut falls inside the
    // final replicate, which the cheap `ls` skim seeks over.
    std::ifstream in(dir + "/good.rwidx", std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(dir + "/cut.rwidx", std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 1));
  }
  // Earlier releases' v1/v2 formats: the version field alone rejects them.
  for (uint32_t version : {1u, 2u}) {
    std::ofstream out(dir + "/old-v" + std::to_string(version) + ".rwidx",
                      std::ios::binary);
    out.write("RWDX", 4);
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    const std::string body(40, '\0');
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
  }

  auto [ls_status, ls_out] = RunCli({"cache", "ls", dir_flag.c_str()});
  ASSERT_TRUE(ls_status.ok()) << ls_status;
  EXPECT_NE(ls_out.find("good.rwidx  v3  L=3,R=10"), std::string::npos)
      << ls_out;
  EXPECT_NE(ls_out.find("cut.rwidx  UNREADABLE: truncated"),
            std::string::npos)
      << ls_out;
  EXPECT_NE(ls_out.find("old-v1.rwidx  UNREADABLE: unsupported snapshot "
                        "version 1"),
            std::string::npos)
      << ls_out;
  EXPECT_NE(ls_out.find("old-v2.rwidx  UNREADABLE: unsupported snapshot "
                        "version 2"),
            std::string::npos)
      << ls_out;

  auto [verify_status, verify_out] =
      RunCli({"cache", "verify", dir_flag.c_str()});
  EXPECT_EQ(verify_status.code(), StatusCode::kCorruption);
  EXPECT_NE(verify_out.find("good.rwidx  OK"), std::string::npos)
      << verify_out;
  EXPECT_NE(verify_out.find("old-v1.rwidx  FAIL: unsupported snapshot "
                            "version 1"),
            std::string::npos)
      << verify_out;
  EXPECT_NE(verify_out.find("verified 4 snapshot(s), 3 failed"),
            std::string::npos)
      << verify_out;
  std::filesystem::remove_all(dir);
}

TEST_F(CliFileTest, KnnExactRanksByHittingTime) {
  std::string flag = GraphFlag();
  auto [status, out] =
      RunCli({"knn", flag.c_str(), "--query=0", "--k=3", "--L=4"});
  ASSERT_TRUE(status.ok()) << status;
  // Direct leaves 1/2/3 reach the hub in one forced hop; they must fill
  // the top ranks before node 4 (which sometimes wanders to 5 first).
  EXPECT_NE(out.find("1"), std::string::npos);
  EXPECT_NE(out.find("h^L"), std::string::npos);
}

TEST_F(CliFileTest, KnnSampledModeWorks) {
  std::string flag = GraphFlag();
  auto [status, out] = RunCli({"knn", flag.c_str(), "--query=0", "--k=2",
                               "--L=4", "--mode=sampled", "--R=50"});
  ASSERT_TRUE(status.ok()) << status;
}

TEST_F(CliFileTest, KnnValidatesFlags) {
  std::string flag = GraphFlag();
  EXPECT_EQ(RunCli({"knn", flag.c_str(), "--query=99"}).first.code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(RunCli({"knn", flag.c_str(), "--query=0", "--mode=psychic"})
                .first.code(),
            StatusCode::kInvalidArgument);
}

TEST(CliTest, GenerateWritesEdgeList) {
  std::string out_path = testing::TempDir() + "/rwdom_cli_gen.txt";
  std::string out_flag = "--out=" + out_path;
  auto [status, out] = RunCli({"generate", "--model=er", "--n=50", "--m=100",
                            out_flag.c_str()});
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(out.find("n=50 m=100"), std::string::npos);

  // The written file must itself be loadable through the CLI.
  std::string graph_flag = "--graph=" + out_path;
  auto [stats_status, stats_out] = RunCli({"stats", graph_flag.c_str()});
  ASSERT_TRUE(stats_status.ok());
  EXPECT_NE(stats_out.find("m=100"), std::string::npos);
  std::remove(out_path.c_str());
}

TEST(CliTest, GenerateValidatesFlags) {
  EXPECT_FALSE(RunCli({"generate", "--model=er", "--n=50"}).first.ok());
  std::string out_flag = "--out=" + testing::TempDir() + "/x.txt";
  EXPECT_FALSE(
      RunCli({"generate", "--model=warp", "--n=5", out_flag.c_str()})
          .first.ok());
  // A non-finite double flag is rejected by name before it reaches a
  // generator, whose edge count it would otherwise overflow.
  const Status inf_degree = RunCli({"generate", "--model=cl", "--n=100",
                                    "--avg_degree=inf", out_flag.c_str()})
                                .first;
  EXPECT_EQ(inf_degree.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(inf_degree.ToString().find("--avg_degree"), std::string::npos)
      << inf_degree;
}

TEST(CliTest, RejectsUnknownFlagsPerCommand) {
  // The PR-1 follow-up: `generate --model=er --p=...` used to be silently
  // ignored (ER is G(n,m) and wants --m); now every command validates.
  std::string out_flag = "--out=" + testing::TempDir() + "/x.txt";
  auto [status, out] = RunCli(
      {"generate", "--model=er", "--n=50", "--p=0.5", out_flag.c_str()});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("--p"), std::string::npos);
  EXPECT_NE(status.ToString().find("--m"), std::string::npos);  // The hint.

  EXPECT_EQ(RunCli({"datasets", "--bogus=1"}).first.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunCli({"select", "--graph=x", "--alpha=0.5"}).first.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunCli({"evaluate", "--graph=x", "--query=3"}).first.code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CliFileTest, ThreadsFlagAcceptedEverywhereAndValidated) {
  std::string flag = GraphFlag();
  auto [status, out] =
      RunCli({"stats", flag.c_str(), "--threads=2"});
  EXPECT_TRUE(status.ok()) << status;
  auto select = RunCli({"select", flag.c_str(), "--algorithm=ApproxF2",
                        "--k=1", "--L=3", "--R=10", "--threads=3"});
  EXPECT_TRUE(select.first.ok()) << select.first;
  EXPECT_EQ(RunCli({"stats", flag.c_str(), "--threads=-1"}).first.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunCli({"stats", flag.c_str(), "--threads=0"}).first.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunCli({"stats", flag.c_str(), "--threads=9999"}).first.code(),
            StatusCode::kInvalidArgument);
  SetNumThreads(0);  // Restore the ambient default for other tests.
}

TEST_F(CliFileTest, SelectIsThreadCountInvariant) {
  std::string flag = GraphFlag();
  auto run = [&](const char* threads) {
    return RunCli({"select", flag.c_str(), "--algorithm=ApproxF2", "--k=2",
                   "--L=3", "--R=20", threads});
  };
  auto one = run("--threads=1");
  auto four = run("--threads=4");
  ASSERT_TRUE(one.first.ok()) << one.first;
  ASSERT_TRUE(four.first.ok()) << four.first;
  // Identical seed sets and metrics; only the timing line may differ.
  auto seeds_of = [](const std::string& text) {
    size_t at = text.find("seeds:");
    return text.substr(at, text.find('\n', at) - at);
  };
  EXPECT_EQ(seeds_of(one.second), seeds_of(four.second));
  SetNumThreads(0);
}

// Weighted directed end-to-end: a hub (node 0) that every other node's
// heavy arcs point at, so F1/F2 selections are predictable, pinned as
// goldens from the dense first-seen remapping (node 0 appears first).
class CliWeightedFileTest : public testing::Test {
 protected:
  void SetUp() override {
    graph_path_ =
        testing::TempDir() + "/rwdom_cli_wgraph_" +
        testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".txt";
    FILE* file = fopen(graph_path_.c_str(), "w");
    ASSERT_NE(file, nullptr);
    fputs("0 1 1.0\n1 0 8.0\n2 0 8.0\n3 0 8.0\n4 0 8.0\n0 2 1.0\n", file);
    fclose(file);
  }
  void TearDown() override { std::remove(graph_path_.c_str()); }

  std::string GraphFlag() const { return "--graph=" + graph_path_; }
  std::string graph_path_;
};

TEST_F(CliWeightedFileTest, StatsReportsWeightedShapeAndMemory) {
  std::string flag = GraphFlag();
  auto [status, out] = RunCli({"stats", flag.c_str(), "--directed=1"});
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(out.find("n=5 arcs=6 (weighted-directed)"), std::string::npos)
      << out;
  EXPECT_NE(out.find("memory: graph="), std::string::npos);
  EXPECT_NE(out.find("bytes/arc"), std::string::npos);
}

TEST_F(CliWeightedFileTest, StatsWithIndexReportsIndexFootprint) {
  std::string flag = GraphFlag();
  auto [status, out] = RunCli({"stats", flag.c_str(), "--directed=1",
                               "--with_index=1", "--L=3", "--R=10"});
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(out.find("memory: index="), std::string::npos) << out;
  EXPECT_NE(out.find("bytes/entry"), std::string::npos);
}

TEST_F(CliWeightedFileTest, SelectProblemMethodGolden) {
  // The acceptance-criteria spelling: --problem=F1 --method=index-celf on
  // a weighted directed edge list. The heavy-in-degree hub (dense node 0)
  // must be the first pick, deterministically.
  std::string flag = GraphFlag();
  auto [status, out] =
      RunCli({"select", flag.c_str(), "--directed=1", "--problem=F1",
              "--method=index-celf", "--k=1", "--L=4", "--R=50"});
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(out.find("ApproxF1 selected 1 seeds"), std::string::npos) << out;
  EXPECT_NE(out.find("weighted-directed substrate"), std::string::npos);
  EXPECT_NE(out.find("seeds: 0"), std::string::npos) << out;
  EXPECT_NE(out.find("AHT="), std::string::npos);

  // Same spelling with the exact DP: identical pick on this graph.
  auto [dp_status, dp_out] =
      RunCli({"select", flag.c_str(), "--directed=1", "--problem=F1",
              "--method=dp", "--k=1", "--L=4"});
  ASSERT_TRUE(dp_status.ok()) << dp_status;
  EXPECT_NE(dp_out.find("seeds: 0"), std::string::npos) << dp_out;
}

TEST_F(CliWeightedFileTest, SelectIsDeterministicAcrossRuns) {
  std::string flag = GraphFlag();
  auto run = [&] {
    return RunCli({"select", flag.c_str(), "--directed=1", "--problem=F2",
                   "--method=index-celf", "--k=2", "--L=3", "--R=40"});
  };
  auto first = run();
  auto second = run();
  ASSERT_TRUE(first.first.ok()) << first.first;
  // Everything after the timing header (seeds + metrics) must be
  // bit-identical; only the wall-clock line may differ.
  auto from_seeds = [](const std::string& text) {
    size_t at = text.find("seeds:");
    return at == std::string::npos ? text : text.substr(at);
  };
  EXPECT_EQ(from_seeds(first.second), from_seeds(second.second));
}

TEST_F(CliWeightedFileTest, SelectIsThreadCountInvariant) {
  std::string flag = GraphFlag();
  auto run = [&](const char* threads) {
    return RunCli({"select", flag.c_str(), "--directed=1", "--problem=F2",
                   "--method=index-celf", "--k=2", "--L=3", "--R=30",
                   threads});
  };
  auto one = run("--threads=1");
  auto four = run("--threads=4");
  ASSERT_TRUE(one.first.ok()) << one.first;
  ASSERT_TRUE(four.first.ok()) << four.first;
  auto seeds_of = [](const std::string& text) {
    size_t at = text.find("seeds:");
    return text.substr(at, text.find('\n', at) - at);
  };
  EXPECT_EQ(seeds_of(one.second), seeds_of(four.second));
  SetNumThreads(0);
}

TEST_F(CliWeightedFileTest, EvaluateGolden) {
  // evaluate on the weighted directed list: with S = {0} every non-seed
  // node's heavy arc hits immediately, so AHT is near 1 and EHN counts all
  // five nodes; both are deterministic in the seed.
  std::string flag = GraphFlag();
  auto [status, out] = RunCli({"evaluate", flag.c_str(), "--directed=1",
                               "--seeds=0", "--L=4", "--R=400"});
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(out.find("k=1 L=4 R=400"), std::string::npos) << out;
  EXPECT_NE(out.find("AHT=1."), std::string::npos) << out;
  EXPECT_NE(out.find("EHN="), std::string::npos);
  auto again = RunCli({"evaluate", flag.c_str(), "--directed=1",
                       "--seeds=0", "--L=4", "--R=400"});
  EXPECT_EQ(out, again.second);
}

TEST_F(CliWeightedFileTest, CoverAndKnnRunOnWeightedInputs) {
  std::string flag = GraphFlag();
  auto cover = RunCli({"cover", flag.c_str(), "--directed=1", "--alpha=0.6",
                       "--L=3", "--R=30"});
  ASSERT_TRUE(cover.first.ok()) << cover.first;
  EXPECT_NE(cover.second.find("reached"), std::string::npos);
  auto knn = RunCli({"knn", flag.c_str(), "--directed=1", "--query=0",
                     "--k=3", "--L=4"});
  ASSERT_TRUE(knn.first.ok()) << knn.first;
  EXPECT_NE(knn.second.find("h^L"), std::string::npos);
}

TEST_F(CliWeightedFileTest, AutodetectsWeightsWithoutDirectedFlag) {
  std::string flag = GraphFlag();
  auto [status, out] = RunCli({"stats", flag.c_str()});
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(out.find("(weighted)"), std::string::npos) << out;
  // And the override back to uniform.
  auto [ustatus, uout] =
      RunCli({"stats", flag.c_str(), "--weighted=no"});
  ASSERT_TRUE(ustatus.ok()) << ustatus;
  EXPECT_NE(uout.find("triangles="), std::string::npos) << uout;
}

TEST_F(CliWeightedFileTest, ValidatesSubstrateFlags) {
  std::string flag = GraphFlag();
  EXPECT_EQ(RunCli({"stats", flag.c_str(), "--weighted=maybe"})
                .first.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunCli({"stats", flag.c_str(), "--directed=1",
                    "--weighted=no"})
                .first.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunCli({"select", flag.c_str(), "--algorithm=ApproxF2",
                    "--problem=F2"})
                .first.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunCli({"select", flag.c_str(), "--problem=F3"}).first.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunCli({"select", flag.c_str(), "--method=psychic"})
                .first.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      RunCli({"stats", "--dataset=CAGrQc", "--directed=1"}).first.code(),
      StatusCode::kInvalidArgument);
  // --weighted=yes on a plain dataset name has no file to force.
  EXPECT_EQ(
      RunCli({"stats", "--dataset=CAGrQc", "--weighted=yes"}).first.code(),
      StatusCode::kInvalidArgument);
  // --weighted=no contradicts a weighted variant name.
  EXPECT_EQ(
      RunCli({"stats", "--dataset=CAGrQc-w", "--weighted=no"}).first.code(),
      StatusCode::kInvalidArgument);
  // Spelling out the defaults stays legal with --dataset, and
  // --weighted=no on a plain name is the documented timestamp defense.
  EXPECT_TRUE(RunCli({"stats", "--dataset=CAGrQc", "--weighted=auto",
                      "--directed=0"})
                  .first.ok());
  EXPECT_TRUE(
      RunCli({"stats", "--dataset=CAGrQc", "--weighted=no"}).first.ok());
}

TEST(CliTest, GenerateWeightedWritesLoadableArcList) {
  std::string out_path = testing::TempDir() + "/rwdom_cli_gen_w.txt";
  std::string out_flag = "--out=" + out_path;
  auto [status, out] =
      RunCli({"generate", "--model=er", "--n=30", "--m=60", "--weighted=1",
              "--directed=1", out_flag.c_str()});
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(out.find("weighted directed"), std::string::npos) << out;

  std::string graph_flag = "--graph=" + out_path;
  auto [stats_status, stats_out] =
      RunCli({"stats", graph_flag.c_str(), "--directed=1"});
  ASSERT_TRUE(stats_status.ok()) << stats_status;
  EXPECT_NE(stats_out.find("weighted-directed"), std::string::npos);
  // Directed generate needs the arc-list format.
  EXPECT_EQ(RunCli({"generate", "--model=er", "--n=10", "--m=20",
                    "--directed=1", out_flag.c_str()})
                .first.code(),
            StatusCode::kInvalidArgument);
  std::remove(out_path.c_str());
}

TEST(CliTest, DatasetsMentionsWeightedVariants) {
  auto [status, out] = RunCli({"datasets"});
  ASSERT_TRUE(status.ok());
  EXPECT_NE(out.find("-wd"), std::string::npos);
}

TEST(CliTest, GraphAndDatasetFlagsAreExclusive) {
  auto [status, out] = RunCli({"stats"});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  auto both = RunCli({"stats", "--graph=x", "--dataset=CAGrQc"});
  EXPECT_EQ(both.first.code(), StatusCode::kInvalidArgument);
}

TEST_F(CliFileTest, RejectsOutOfInt32RangeNumericFlags) {
  // Values past 2^31 used to wrap through the int32 narrowing (e.g.
  // --k=2^32 silently selected zero seeds); now they error up front.
  std::string flag = GraphFlag();
  for (const char* bad :
       {"--L=2147483648", "--R=4294967296", "--k=4294967296"}) {
    auto [status, out] =
        RunCli({"select", flag.c_str(), "--algorithm=Degree", bad});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
  }
  EXPECT_EQ(RunCli({"evaluate", flag.c_str(), "--seeds=0",
                    "--R=4294967296"})
                .first.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunCli({"knn", flag.c_str(), "--query=0", "--k=4294967296"})
                .first.code(),
            StatusCode::kInvalidArgument);
}

TEST(CliTest, FormatFlagValidated) {
  EXPECT_EQ(RunCli({"datasets", "--format=xml"}).first.code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(RunCli({"datasets", "--format=json"}).first.ok());
  EXPECT_TRUE(RunCli({"datasets", "--format=text"}).first.ok());
}

// --- Text/JSON golden parity ---------------------------------------------
//
// `--format=json` and the legacy text output must report identical
// numbers for select / evaluate / knn, on an unweighted and a
// weighted-directed input. Text rounds with printf (%.4f / %.1f), so the
// pin is: the JSON value rounded to the text precision equals the text
// value, and discrete outputs (seeds, ranks) match exactly.

double TextNumber(const std::string& text, const std::string& prefix) {
  size_t at = text.find(prefix);
  EXPECT_NE(at, std::string::npos) << prefix << " missing in:\n" << text;
  return std::strtod(text.c_str() + at + prefix.size(), nullptr);
}

class FormatGoldenTest : public testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    // Parameterized test names contain '/', which cannot appear in the
    // temp file name.
    std::string name =
        testing::UnitTest::GetInstance()->current_test_info()->name();
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    graph_path_ = testing::TempDir() + "/rwdom_fmt_" + name +
                  (GetParam() ? "_wd" : "_uw") + ".txt";
    FILE* file = fopen(graph_path_.c_str(), "w");
    ASSERT_NE(file, nullptr);
    if (GetParam()) {
      fputs("0 1 1.0\n1 0 8.0\n2 0 8.0\n3 0 8.0\n4 0 8.0\n0 2 1.0\n",
            file);
    } else {
      fputs("0 1\n0 2\n0 3\n0 4\n4 5\n", file);
    }
    fclose(file);
  }
  void TearDown() override { std::remove(graph_path_.c_str()); }

  std::vector<const char*> WithSubstrate(std::vector<const char*> args) {
    graph_flag_ = "--graph=" + graph_path_;
    args.push_back(graph_flag_.c_str());
    if (GetParam()) args.push_back("--directed=1");
    return args;
  }

  // Runs the same invocation in both formats; returns (text, parsed json).
  std::pair<std::string, JsonValue> BothFormats(
      std::vector<const char*> args) {
    auto [text_status, text] = RunCli(WithSubstrate(args));
    EXPECT_TRUE(text_status.ok()) << text_status;
    args.push_back("--format=json");
    auto [json_status, json_text] = RunCli(WithSubstrate(args));
    EXPECT_TRUE(json_status.ok()) << json_status;
    auto json = ParseJson(json_text);
    EXPECT_TRUE(json.ok()) << json.status();
    return {text, *json};
  }

  std::string graph_path_;
  std::string graph_flag_;
};

TEST_P(FormatGoldenTest, SelectReportsIdenticalNumbers) {
  auto [text, json] = BothFormats({"select", "--problem=F2",
                                   "--method=index-celf", "--k=2", "--L=3",
                                   "--R=40"});
  // Seeds: exact match between the text "seeds:" line and the JSON array.
  std::string expected_seeds = "seeds:";
  for (const JsonValue& seed : json.Find("seeds")->array()) {
    expected_seeds += ' ';
    expected_seeds += std::to_string(static_cast<int64_t>(seed.number_value()));
  }
  EXPECT_NE(text.find(expected_seeds + "\n"), std::string::npos)
      << expected_seeds << " missing in:\n" << text;
  // Metrics: JSON carries full precision; text rounds to 4 / 1 decimals.
  const JsonValue* metrics = json.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_NEAR(TextNumber(text, "AHT="), metrics->Find("aht")->number_value(),
              5e-5);
  EXPECT_NEAR(TextNumber(text, "EHN="), metrics->Find("ehn")->number_value(),
              5e-2);
  EXPECT_EQ(json.Find("k")->number_value(), 2.0);
}

TEST_P(FormatGoldenTest, EvaluateReportsIdenticalNumbers) {
  auto [text, json] =
      BothFormats({"evaluate", "--seeds=0,4", "--L=3", "--R=200"});
  EXPECT_NEAR(TextNumber(text, "AHT="), json.Find("aht")->number_value(),
              5e-5);
  EXPECT_NEAR(TextNumber(text, "EHN="), json.Find("ehn")->number_value(),
              5e-2);
  EXPECT_EQ(json.Find("k")->number_value(), 2.0);
  EXPECT_EQ(json.Find("L")->number_value(), 3.0);
  EXPECT_EQ(json.Find("R")->number_value(), 200.0);
}

TEST_P(FormatGoldenTest, KnnReportsIdenticalNumbers) {
  auto [text, json] = BothFormats({"knn", "--query=0", "--k=3", "--L=4"});
  const auto& neighbors = json.Find("neighbors")->array();
  ASSERT_EQ(neighbors.size(), 3u);
  for (const JsonValue& neighbor : neighbors) {
    // Each JSON row appears in the text table: same node, same rounded
    // hitting time, same rank order.
    std::string row = StrFormat(
        "%lld     %lld     %.4f",
        static_cast<long long>(neighbor.Find("rank")->number_value()),
        static_cast<long long>(neighbor.Find("node")->number_value()),
        neighbor.Find("hitting_time")->number_value());
    EXPECT_NE(text.find(row), std::string::npos)
        << row << " missing in:\n" << text;
  }
}

INSTANTIATE_TEST_SUITE_P(UnweightedAndWeightedDirected, FormatGoldenTest,
                         testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "WeightedDirected"
                                             : "Unweighted";
                         });

}  // namespace
}  // namespace rwdom
