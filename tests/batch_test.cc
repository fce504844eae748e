// End-to-end tests of `rwdom batch`: the acceptance pin that a JSONL
// batch against one warm QueryContext loads the graph once, builds the
// walk index exactly once, and produces per-query output bit-identical
// to separate cold invocations with the same flags — on unweighted and
// weighted-directed substrates, at multiple thread counts.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "util/parallel.h"

namespace rwdom {
namespace {

std::pair<Status, std::string> RunCli(std::vector<std::string> args) {
  std::vector<const char*> argv = {"rwdom"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  auto invocation =
      ParseCliArgs(static_cast<int>(argv.size()), argv.data());
  if (!invocation.ok()) return {invocation.status(), ""};
  std::ostringstream out;
  Status status = RunCliCommand(*invocation, out);
  return {status, out.str()};
}

// Wall-clock timings legitimately differ between cold and warm runs;
// everything else must be bit-identical.
std::string NormalizeSeconds(std::string text) {
  text = std::regex_replace(text,
                            std::regex(R"(in [0-9]+\.[0-9]+ s)"), "in <T> s");
  return std::regex_replace(
      text, std::regex(R"("seconds":[-+0-9.eE]+)"), "\"seconds\":<T>");
}

class BatchTest : public testing::Test {
 protected:
  void SetUp() override {
    // The pid keeps concurrent runs of this binary (per-case discovery
    // plus the *_suite alias under `ctest -j`) off each other's files.
    const std::string stem =
        testing::TempDir() + "/rwdom_batch_" + std::to_string(::getpid()) +
        "_" + testing::UnitTest::GetInstance()->current_test_info()->name();
    graph_path_ = stem + "_graph.txt";
    wgraph_path_ = stem + "_wgraph.txt";
    script_path_ = stem + "_script.jsonl";
    WriteFile(graph_path_, "0 1\n0 2\n0 3\n0 4\n4 5\n");
    WriteFile(wgraph_path_,
              "0 1 1.0\n1 0 8.0\n2 0 8.0\n3 0 8.0\n4 0 8.0\n0 2 1.0\n");
  }

  void TearDown() override {
    std::remove(graph_path_.c_str());
    std::remove(wgraph_path_.c_str());
    std::remove(script_path_.c_str());
    SetNumThreads(0);  // Restore the ambient default for other tests.
  }

  static void WriteFile(const std::string& path, const std::string& text) {
    std::ofstream file(path, std::ios::trunc);
    ASSERT_TRUE(file.good()) << path;
    file << text;
  }

  // The acceptance workload: select + evaluate + knn, same (L, R, seed).
  void WriteAcceptanceScript() {
    WriteFile(script_path_,
              "# acceptance: 3 queries, one index build\n"
              "{\"command\": \"select\", \"flags\": {\"problem\": \"F2\", "
              "\"method\": \"index-celf\", \"k\": 2, \"L\": 3, \"R\": 40, "
              "\"seed\": 42}}\n"
              "{\"command\": \"evaluate\", \"flags\": {\"seeds\": \"0,4\", "
              "\"L\": 3, \"R\": 200, \"seed\": 42}}\n"
              "{\"command\": \"knn\", \"flags\": {\"query\": 0, \"k\": 3, "
              "\"L\": 3, \"R\": 40, \"seed\": 42, \"mode\": "
              "\"sampled\"}}\n");
  }

  // The same three queries as separate cold invocations.
  std::vector<std::vector<std::string>> AcceptanceColdInvocations(
      const std::vector<std::string>& substrate_flags,
      const std::string& threads_flag) {
    std::vector<std::vector<std::string>> runs = {
        {"select", "--problem=F2", "--method=index-celf", "--k=2", "--L=3",
         "--R=40", "--seed=42"},
        {"evaluate", "--seeds=0,4", "--L=3", "--R=200", "--seed=42"},
        {"knn", "--query=0", "--k=3", "--L=3", "--R=40", "--seed=42",
         "--mode=sampled"},
    };
    for (auto& run : runs) {
      run.insert(run.end(), substrate_flags.begin(), substrate_flags.end());
      run.push_back(threads_flag);
    }
    return runs;
  }

  // Splits batch text output into per-query segments and the summary.
  static std::vector<std::string> SplitBatchText(const std::string& text,
                                                 std::string* summary) {
    std::vector<std::string> segments;
    std::istringstream stream(text);
    std::string line;
    std::string current;
    bool in_query = false;
    while (std::getline(stream, line)) {
      if (line.rfind("=== query ", 0) == 0) {
        if (in_query) segments.push_back(current);
        current.clear();
        in_query = true;
        continue;
      }
      if (line.rfind("batch: ", 0) == 0) {
        if (in_query) segments.push_back(current);
        in_query = false;
        *summary = line;
        continue;
      }
      current += line + "\n";
    }
    if (in_query) segments.push_back(current);
    return segments;
  }

  std::string graph_path_;
  std::string wgraph_path_;
  std::string script_path_;
};

TEST_F(BatchTest, AcceptanceWarmBatchMatchesColdRunsBitIdentically) {
  WriteAcceptanceScript();
  struct Substrate {
    std::string name;
    std::vector<std::string> flags;
  };
  const std::vector<Substrate> substrates = {
      {"unweighted", {"--graph=" + graph_path_}},
      {"weighted-directed", {"--graph=" + wgraph_path_, "--directed=1"}},
  };
  for (const Substrate& substrate : substrates) {
    for (const std::string& threads : {std::string("--threads=1"),
                                       std::string("--threads=4")}) {
      SCOPED_TRACE(substrate.name + " " + threads);

      std::vector<std::string> cold_outputs;
      for (auto& run :
           AcceptanceColdInvocations(substrate.flags, threads)) {
        auto [status, out] = RunCli(run);
        ASSERT_TRUE(status.ok()) << status;
        cold_outputs.push_back(NormalizeSeconds(out));
      }

      std::vector<std::string> batch_args = {"batch", script_path_};
      batch_args.insert(batch_args.end(), substrate.flags.begin(),
                        substrate.flags.end());
      batch_args.push_back(threads);
      auto [status, out] = RunCli(batch_args);
      ASSERT_TRUE(status.ok()) << status;

      std::string summary;
      std::vector<std::string> segments = SplitBatchText(out, &summary);
      ASSERT_EQ(segments.size(), cold_outputs.size());
      for (size_t i = 0; i < segments.size(); ++i) {
        // The acceptance pin: warm per-query output == cold output,
        // modulo wall-clock.
        EXPECT_EQ(NormalizeSeconds(segments[i]), cold_outputs[i])
            << "query " << i;
      }
      // One graph load, exactly one index build for all three queries.
      EXPECT_NE(summary.find("graph loads=1"), std::string::npos)
          << summary;
      EXPECT_NE(summary.find("index builds=1"), std::string::npos)
          << summary;
    }
  }
}

TEST_F(BatchTest, JsonBatchLinesMatchColdJsonRuns) {
  WriteAcceptanceScript();
  const std::vector<std::string> substrate_flags = {"--graph=" +
                                                    graph_path_};
  std::vector<std::string> cold_outputs;
  for (auto& run :
       AcceptanceColdInvocations(substrate_flags, "--threads=1")) {
    run.push_back("--format=json");
    auto [status, out] = RunCli(run);
    ASSERT_TRUE(status.ok()) << status;
    cold_outputs.push_back(NormalizeSeconds(out));
  }

  auto [status, out] =
      RunCli({"batch", script_path_, "--graph=" + graph_path_,
              "--threads=1", "--format=json"});
  ASSERT_TRUE(status.ok()) << status;
  std::istringstream stream(out);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(stream, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);  // 3 responses + summary.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(NormalizeSeconds(lines[i] + "\n"), cold_outputs[i])
        << "query " << i;
  }
  EXPECT_NE(lines[3].find("\"batch_summary\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"index_builds\":1"), std::string::npos);
  EXPECT_NE(lines[3].find("\"graph_loads\":1"), std::string::npos);
}

TEST_F(BatchTest, NumericAndBoolJsonFlagValuesWork) {
  WriteFile(script_path_,
            "{\"command\": \"stats\", \"flags\": {\"with_index\": true, "
            "\"L\": 3, \"R\": 20}}\n");
  auto [status, out] =
      RunCli({"batch", script_path_, "--graph=" + graph_path_});
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(out.find("memory: index="), std::string::npos) << out;
}

TEST_F(BatchTest, ScriptErrorsCarryLineNumbers) {
  WriteFile(script_path_, "\n# comment\n{\"command\": \"selct\"}\n");
  auto [status, out] =
      RunCli({"batch", script_path_, "--graph=" + graph_path_});
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_NE(status.message().find(":3:"), std::string::npos) << status;
  EXPECT_NE(status.message().find("did you mean `select`?"),
            std::string::npos)
      << status;
}

TEST_F(BatchTest, RejectsNonQueryCommandsInScripts) {
  WriteFile(script_path_, "{\"command\": \"generate\"}\n");
  auto [status, out] =
      RunCli({"batch", script_path_, "--graph=" + graph_path_});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("cannot run in a batch"),
            std::string::npos)
      << status;
}

TEST_F(BatchTest, RejectsSubstrateAndGlobalFlagsInScriptLines) {
  WriteFile(script_path_,
            "{\"command\": \"stats\", \"flags\": {\"graph\": \"x\"}}\n");
  auto [status, out] =
      RunCli({"batch", script_path_, "--graph=" + graph_path_});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("fixed by the batch invocation"),
            std::string::npos)
      << status;

  WriteFile(script_path_,
            "{\"command\": \"stats\", \"flags\": {\"threads\": 2}}\n");
  auto [threads_status, threads_out] =
      RunCli({"batch", script_path_, "--graph=" + graph_path_});
  EXPECT_EQ(threads_status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(threads_status.message().find("batch invocation itself"),
            std::string::npos)
      << threads_status;
}

TEST_F(BatchTest, RejectsMalformedScripts) {
  WriteFile(script_path_, "{\"command\": \"stats\"\n");
  EXPECT_EQ(RunCli({"batch", script_path_, "--graph=" + graph_path_})
                .first.code(),
            StatusCode::kInvalidArgument);

  WriteFile(script_path_, "[1, 2, 3]\n");
  EXPECT_EQ(RunCli({"batch", script_path_, "--graph=" + graph_path_})
                .first.code(),
            StatusCode::kInvalidArgument);

  WriteFile(script_path_,
            "{\"command\": \"stats\", \"bogus\": 1}\n");
  EXPECT_EQ(RunCli({"batch", script_path_, "--graph=" + graph_path_})
                .first.code(),
            StatusCode::kInvalidArgument);
}

TEST_F(BatchTest, RejectsMissingScriptOrSubstrate) {
  EXPECT_EQ(RunCli({"batch", "--graph=" + graph_path_}).first.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      RunCli({"batch", "/nonexistent.jsonl", "--graph=" + graph_path_})
          .first.code(),
      StatusCode::kIoError);
  WriteAcceptanceScript();
  EXPECT_EQ(RunCli({"batch", script_path_}).first.code(),
            StatusCode::kInvalidArgument);
}

TEST_F(BatchTest, UnknownFlagInScriptLineGetsSuggestion) {
  WriteFile(script_path_,
            "{\"command\": \"knn\", \"flags\": {\"qury\": 0}}\n");
  auto [status, out] =
      RunCli({"batch", script_path_, "--graph=" + graph_path_});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("did you mean --query?"),
            std::string::npos)
      << status;
}

}  // namespace
}  // namespace rwdom
