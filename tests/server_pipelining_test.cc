// Pipelining + backpressure pins for the serving core. A client that
// writes a whole burst of JSONL requests before reading anything must
// get every response back, in request order, byte-identical to
// sequential cold runs. A peer that stops draining its responses gets
// paused (bounded write buffer, reads off) without stalling other
// connections on the same shard, then served to completion once it
// drains — unless it stays stalled past --write_timeout_ms, in which
// case it is dropped and counted while the shard keeps serving.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/query_line.h"
#include "server/server.h"
#include "service/graph_registry.h"
#include "util/strings.h"
#include "wgraph/substrate.h"

namespace rwdom {
namespace {

std::string NormalizeSeconds(std::string text) {
  return std::regex_replace(
      std::move(text), std::regex(R"("seconds":[-+0-9.eE]+)"),
      "\"seconds\":<T>");
}

// A burst with pairwise-distinct responses, so any reordering or
// duplication by the server is visible as a byte mismatch.
std::vector<std::string> BurstLines() {
  std::vector<std::string> lines;
  for (int round = 0; round < 3; ++round) {
    lines.push_back(StrFormat(
        "{\"command\": \"select\", \"flags\": {\"problem\": \"F2\", "
        "\"method\": \"index-celf\", \"k\": %d, \"L\": 3, \"R\": 40, "
        "\"seed\": 42}}",
        1 + round));
    lines.push_back(StrFormat(
        "{\"command\": \"knn\", \"flags\": {\"query\": %d, \"k\": 3, "
        "\"L\": 3, \"R\": 40, \"seed\": 42, \"mode\": \"sampled\"}}",
        round));
    lines.push_back(StrFormat(
        "{\"command\": \"evaluate\", \"flags\": {\"seeds\": \"0,%d\", "
        "\"L\": 3, \"R\": 200, \"seed\": 42}}",
        3 + round));
  }
  return lines;
}

class ServerPipeliningTest : public testing::Test {
 protected:
  void SetUp() override {
    // The pid keeps concurrent runs of this binary (per-case discovery
    // plus the *_suite alias under `ctest -j`) off each other's files.
    graph_path_ =
        testing::TempDir() + "/rwdom_pipelining_" +
        std::to_string(::getpid()) + "_" +
        testing::UnitTest::GetInstance()->current_test_info()->name() +
        "_graph.txt";
    std::ofstream file(graph_path_, std::ios::trunc);
    file << "0 1\n0 2\n0 3\n0 4\n4 5\n";
    ASSERT_TRUE(file.good());
  }

  void TearDown() override { std::remove(graph_path_.c_str()); }

  struct TestServer {
    std::unique_ptr<GraphRegistry> registry;
    std::unique_ptr<QueryServer> server;
  };

  TestServer StartServer(ServerOptions options) {
    TestServer result;
    auto loaded = LoadSubstrate(graph_path_, {});
    RWDOM_CHECK(loaded.ok()) << loaded.status();
    result.registry = std::make_unique<GraphRegistry>();
    Status added = result.registry->Add(
        kDefaultGraphName,
        std::make_unique<QueryContext>(std::move(*loaded)));
    RWDOM_CHECK(added.ok()) << added;
    options.port = 0;
    result.server = std::make_unique<QueryServer>(
        result.registry.get(), ExecuteRequestToJsonLine, options);
    Status started = result.server->Start();
    RWDOM_CHECK(started.ok()) << started;
    return result;
  }

  // Sequential cold reference: each line against its own fresh context,
  // exactly what a one-shot `rwdom <cmd> --format=json` run prints.
  std::string ColdReference(const std::string& line) {
    auto loaded = LoadSubstrate(graph_path_, {});
    RWDOM_CHECK(loaded.ok()) << loaded.status();
    QueryContext context(std::move(*loaded));
    std::ostringstream out;
    Status status = ExecuteQueryLine(line, context, OutputFormat::kJson, out);
    RWDOM_CHECK(status.ok()) << status;
    std::string response = out.str();
    while (!response.empty() && response.back() == '\n') response.pop_back();
    return NormalizeSeconds(response);
  }

  std::string graph_path_;
};

// A client whose TCP receive buffer is pinned tiny *before* connect
// (which also opts out of kernel receive autotuning), so a few
// kilobytes of unread responses close its flow-control window — the
// deterministic way to make "peer stopped draining" visible to the
// server without megabytes of traffic.
Result<UniqueFd> ConnectWithTinyReceiveBuffer(int port) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Status::IoError("socket");
  int rcvbuf = 4096;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                   sizeof(rcvbuf)) != 0) {
    return Status::IoError("setsockopt(SO_RCVBUF)");
  }
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<uint16_t>(port));
  RWDOM_CHECK(::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr) == 1);
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) !=
      0) {
    return Status::IoError("connect");
  }
  return fd;
}

void RunBurstAgainst(int port, const std::vector<std::string>& lines,
                     const std::vector<std::string>& expected) {
  auto connection = TcpConnect("127.0.0.1", port);
  ASSERT_TRUE(connection.ok()) << connection.status();
  LineReader reader(connection->get());
  std::string greeting;
  ASSERT_EQ(*reader.ReadLine(&greeting), LineReader::Outcome::kLine);
  EXPECT_NE(greeting.find("\"protocol_version\""), std::string::npos);

  // The whole burst goes out before a single response is read.
  std::string burst;
  for (const std::string& line : lines) burst += line + "\n";
  ASSERT_TRUE(SendAll(connection->get(), burst).ok());

  for (size_t i = 0; i < expected.size(); ++i) {
    std::string response;
    ASSERT_EQ(*reader.ReadLine(&response), LineReader::Outcome::kLine)
        << "response " << i << " missing";
    EXPECT_EQ(NormalizeSeconds(response), expected[i])
        << "response " << i << " out of order or diverged";
  }
}

TEST_F(ServerPipeliningTest, BurstResponsesCompleteInOrderByteIdentical) {
  const std::vector<std::string> lines = BurstLines();
  std::vector<std::string> expected;
  for (const std::string& line : lines) expected.push_back(ColdReference(line));

  ServerOptions options;
  options.threads = 2;
  TestServer ts = StartServer(options);
  RunBurstAgainst(ts.server->port(), lines, expected);
  // A second burst on a fresh connection: the warm index must not
  // change a byte either.
  RunBurstAgainst(ts.server->port(), lines, expected);
  ts.server->Shutdown();
}

TEST_F(ServerPipeliningTest, SlowReaderIsPausedNotFatalAndOthersKeepMoving) {
  ServerOptions options;
  // One shard: the slow and the healthy connection share an event loop,
  // so any stall would be visible as the healthy client hanging.
  options.threads = 1;
  // A tiny write buffer so a handful of unread responses triggers the
  // pause, and no write timeout so the pause is the only mechanism.
  options.write_buffer_bytes = 2048;
  options.write_timeout_ms = 0;
  TestServer ts = StartServer(options);

  auto slow = ConnectWithTinyReceiveBuffer(ts.server->port());
  ASSERT_TRUE(slow.ok()) << slow.status();
  LineReader slow_reader(slow->get());
  std::string line;
  ASSERT_EQ(*slow_reader.ReadLine(&line), LineReader::Outcome::kLine);

  // Flood requests without reading any responses. server_stats answers
  // are several hundred bytes each, so the responses dwarf what the
  // slow peer's closed window plus the server's kernel send buffer can
  // absorb, and the shard's 2 KiB write buffer must overflow into a
  // pause.
  const int kFlood = 200;
  std::string flood;
  for (int i = 0; i < kFlood; ++i) {
    flood += "{\"command\": \"server_stats\"}\n";
  }
  ASSERT_TRUE(SendAll(slow->get(), flood).ok());

  // The shard must hit backpressure on the slow connection...
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ts.server->stats().backpressure_pauses == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(ts.server->stats().backpressure_pauses, 1)
      << "write-buffer cap never paused the non-draining peer";

  // ...while the same shard keeps serving a healthy connection.
  auto healthy = TcpConnect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  LineReader healthy_reader(healthy->get());
  ASSERT_EQ(*healthy_reader.ReadLine(&line), LineReader::Outcome::kLine);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        SendAll(healthy->get(), "{\"command\": \"server_stats\"}\n").ok());
    ASSERT_EQ(*healthy_reader.ReadLine(&line), LineReader::Outcome::kLine)
        << "healthy connection stalled behind the slow reader";
    EXPECT_NE(line.find("\"server_stats\""), std::string::npos);
  }

  // Backpressure paused the peer, it did not punish it: once the slow
  // client drains, every flooded request is answered, in order.
  for (int i = 0; i < kFlood; ++i) {
    ASSERT_EQ(*slow_reader.ReadLine(&line), LineReader::Outcome::kLine)
        << "flooded response " << i << " missing";
    EXPECT_EQ(line.rfind("{\"server_stats\":", 0), 0u) << line;
  }
  // The connection survived the episode end to end.
  ASSERT_TRUE(
      SendAll(slow->get(), "{\"command\": \"server_stats\"}\n").ok());
  ASSERT_EQ(*slow_reader.ReadLine(&line), LineReader::Outcome::kLine);
  EXPECT_EQ(ts.server->stats().write_timeouts, 0);
  ts.server->Shutdown();
}

TEST_F(ServerPipeliningTest, StalledReaderIsDroppedAfterWriteTimeout) {
  ServerOptions options;
  // One shard again: the drop must not disturb a neighbour on the same
  // event loop.
  options.threads = 1;
  options.write_buffer_bytes = 2048;
  options.write_timeout_ms = 200;
  TestServer ts = StartServer(options);

  auto stalled = ConnectWithTinyReceiveBuffer(ts.server->port());
  ASSERT_TRUE(stalled.ok()) << stalled.status();
  LineReader stalled_reader(stalled->get());
  std::string line;
  ASSERT_EQ(*stalled_reader.ReadLine(&line), LineReader::Outcome::kLine);
  auto healthy = TcpConnect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  LineReader healthy_reader(healthy->get());
  ASSERT_EQ(*healthy_reader.ReadLine(&line), LineReader::Outcome::kLine);

  // Flood without ever reading. On loopback the kernel absorbs a
  // megabyte or more of responses, so ask for several megabytes: the
  // shard's write buffer then stops making progress. The flood's tail
  // backs up once the shard pauses reads, so it is sent from its own
  // thread (unblocked when the server drops the connection).
  std::string flood;
  for (int i = 0; i < 8000; ++i) {
    flood += "{\"command\": \"server_stats\"}\n";
  }
  std::thread flooder([&] { (void)SendAll(stalled->get(), flood); });

  // The healthy neighbour keeps round-tripping until the stalled peer
  // is dropped, and afterwards.
  const auto roundtrip = [&] {
    ASSERT_TRUE(
        SendAll(healthy->get(), "{\"command\": \"server_stats\"}\n").ok());
    ASSERT_EQ(*healthy_reader.ReadLine(&line), LineReader::Outcome::kLine)
        << "healthy connection stalled behind the stalled reader";
    EXPECT_EQ(line.rfind("{\"server_stats\":", 0), 0u) << line;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ts.server->stats().write_timeouts == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    roundtrip();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const ServerStats stats = ts.server->stats();
  EXPECT_EQ(stats.write_timeouts, 1)
      << "stalled peer was never dropped past --write_timeout_ms";
  EXPECT_EQ(stats.active_connections, 1);  // Only the healthy one left.
  for (int i = 0; i < 5; ++i) roundtrip();

  // The server closed the stalled socket: after whatever responses made
  // it into the pipe, the peer reads EOF (or a reset), never a hang.
  bool closed = false;
  char buf[4096];
  const auto close_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!closed && std::chrono::steady_clock::now() < close_deadline) {
    const ssize_t got =
        ::recv(stalled->get(), buf, sizeof(buf), MSG_DONTWAIT);
    if (got == 0 || (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
      closed = true;
    } else if (got < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(closed) << "stalled connection still open";
  ::shutdown(stalled->get(), SHUT_RDWR);  // Frees the flooder either way.
  flooder.join();
  ts.server->Shutdown();
}

}  // namespace
}  // namespace rwdom
