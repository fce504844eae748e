// Transport-level hardening pins: LineReader's per-line byte cap (the
// bounded-memory guarantee against a hostile or buggy peer) and
// SendAll's socket.send fault site. Both run over AF_UNIX socketpairs —
// same recv/send semantics as TCP, no ports to leak. (The write-stall
// drop lives in the event loop; server_pipelining_test pins it.)
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "util/fault.h"
#include "util/logging.h"
#include "util/socket.h"

namespace rwdom {
namespace {

struct SocketPair {
  UniqueFd left;
  UniqueFd right;
};

SocketPair MakeSocketPair() {
  int fds[2] = {-1, -1};
  RWDOM_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
  SocketPair pair;
  pair.left.reset(fds[0]);
  pair.right.reset(fds[1]);
  return pair;
}

void WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    ssize_t sent = ::send(fd, data.data(), data.size(), 0);
    ASSERT_GT(sent, 0);
    data.remove_prefix(static_cast<size_t>(sent));
  }
}

TEST(LineReaderTest, DeliversLinesAndTheFinalUnterminatedOne) {
  SocketPair pair = MakeSocketPair();
  WriteAll(pair.left.get(), "alpha\nbeta\r\ngamma");
  pair.left.reset();  // EOF after an unterminated trailing line.

  LineReader reader(pair.right.get());
  std::string line;
  ASSERT_EQ(*reader.ReadLine(&line), LineReader::Outcome::kLine);
  EXPECT_EQ(line, "alpha");
  ASSERT_EQ(*reader.ReadLine(&line), LineReader::Outcome::kLine);
  EXPECT_EQ(line, "beta");  // '\r' stripped.
  ASSERT_EQ(*reader.ReadLine(&line), LineReader::Outcome::kLine);
  EXPECT_EQ(line, "gamma");
  EXPECT_EQ(*reader.ReadLine(&line), LineReader::Outcome::kEof);
}

TEST(LineReaderTest, LineExactlyAtTheCapStillFits) {
  SocketPair pair = MakeSocketPair();
  WriteAll(pair.left.get(), "abcd\n");
  pair.left.reset();
  LineReader reader(pair.right.get(), /*max_line_bytes=*/4);
  std::string line;
  ASSERT_EQ(*reader.ReadLine(&line), LineReader::Outcome::kLine);
  EXPECT_EQ(line, "abcd");
}

TEST(LineReaderTest, OverlongLineOverflowsOnceThenResynchronises) {
  SocketPair pair = MakeSocketPair();
  WriteAll(pair.left.get(), "this line is far too long\nnext\n");
  pair.left.reset();

  LineReader reader(pair.right.get(), /*max_line_bytes=*/8);
  std::string line = "untouched";
  ASSERT_EQ(*reader.ReadLine(&line), LineReader::Outcome::kOverflow);
  EXPECT_EQ(line, "untouched");  // Overflow never leaks partial bytes.
  // The stream resynchronised at the overlong line's newline: the next
  // call reads the following line normally.
  ASSERT_EQ(*reader.ReadLine(&line), LineReader::Outcome::kLine);
  EXPECT_EQ(line, "next");
  EXPECT_EQ(*reader.ReadLine(&line), LineReader::Outcome::kEof);
}

TEST(LineReaderTest, EndlessLineIsBoundedMemoryNotBoundlessBuffering) {
  // A peer that streams bytes with no newline must not grow the buffer
  // past the cap: the overflow is reported as soon as the budget is
  // exceeded, long before the line terminates.
  SocketPair pair = MakeSocketPair();
  WriteAll(pair.left.get(), std::string(64, 'x'));

  LineReader reader(pair.right.get(), /*max_line_bytes=*/8);
  std::string line;
  ASSERT_EQ(*reader.ReadLine(&line), LineReader::Outcome::kOverflow);

  // The line finally ends; discard-mode swallows the tail, then the
  // stream is healthy again.
  WriteAll(pair.left.get(), "tail of the monster\nok\n");
  ASSERT_EQ(*reader.ReadLine(&line), LineReader::Outcome::kLine);
  EXPECT_EQ(line, "ok");
}

TEST(LineReaderTest, EofWhileDiscardingAnUnterminatedMonsterIsEof) {
  SocketPair pair = MakeSocketPair();
  WriteAll(pair.left.get(), std::string(64, 'x'));
  pair.left.reset();  // The monster line never terminates.

  LineReader reader(pair.right.get(), /*max_line_bytes=*/8);
  std::string line;
  ASSERT_EQ(*reader.ReadLine(&line), LineReader::Outcome::kOverflow);
  EXPECT_EQ(*reader.ReadLine(&line), LineReader::Outcome::kEof);
}

TEST(SendAllTest, InjectedSocketFaultSurfacesBeforeAnyByte) {
  ClearFaults();
  ASSERT_TRUE(ArmFaultsFromSpec("socket.send:1:EPIPE").ok());
  SocketPair pair = MakeSocketPair();
  Status status = SendAll(pair.left.get(), "doomed\n");
  ClearFaults();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("injected fault at socket.send"),
            std::string::npos)
      << status;
  // The fault fired before the write: the peer saw nothing.
  char chunk[16];
  ::shutdown(pair.left.get(), SHUT_WR);
  EXPECT_EQ(::recv(pair.right.get(), chunk, sizeof(chunk), 0), 0);
}

}  // namespace
}  // namespace rwdom
