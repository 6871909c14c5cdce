// Wire layer (util/net.hpp): endpoint parsing, checksummed frame transport
// over unix and loopback TCP sockets, and the explicit failure surface —
// timeouts, torn frames, checksum damage, and the net.* failpoints the
// fault-injection tests upstack rely on. Frames really cross real sockets
// here; nothing is mocked.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>

#include "util/errors.hpp"
#include "util/failpoint.hpp"
#include "util/net.hpp"

#if !defined(_WIN32)
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace rid::util::net {
namespace {

namespace fs = std::filesystem;

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!supported()) GTEST_SKIP() << "no socket support on this platform";
    failpoint::disarm_all();
  }
  void TearDown() override { failpoint::disarm_all(); }

  std::string socket_path(const std::string& name) {
    const fs::path path = fs::path(::testing::TempDir()) / ("net_" + name);
    fs::remove(path);
    return path.string();
  }

  /// Listener + connected client/server socket pair on a unix socket.
  struct Pair {
    Listener listener;
    Socket client;
    Socket server;
  };

  Pair make_pair(const std::string& name) {
    Pair pair;
    pair.listener = Listener::listen(Endpoint::unix_path(socket_path(name)));
    pair.client = connect(pair.listener.endpoint(), 5.0);
    pair.server = pair.listener.accept(5.0);
    EXPECT_TRUE(pair.client.valid());
    EXPECT_TRUE(pair.server.valid());
    return pair;
  }
};

TEST_F(NetTest, EndpointParseRoundTrips) {
  const Endpoint unix_ep = Endpoint::parse("unix:/tmp/x.sock");
  EXPECT_EQ(unix_ep.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(unix_ep.path, "/tmp/x.sock");
  EXPECT_EQ(Endpoint::parse(unix_ep.to_string()).path, unix_ep.path);

  // A bare path is a unix endpoint: what the CLI's --connect default uses.
  EXPECT_EQ(Endpoint::parse("run/serve.sock").kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(Endpoint::parse("run/serve.sock").path, "run/serve.sock");

  const Endpoint tcp_ep = Endpoint::parse("tcp:127.0.0.1:9100");
  EXPECT_EQ(tcp_ep.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp_ep.host, "127.0.0.1");
  EXPECT_EQ(tcp_ep.port, 9100);
  EXPECT_EQ(Endpoint::parse(tcp_ep.to_string()).port, 9100);

  const Endpoint port_only = Endpoint::parse("tcp:9101");
  EXPECT_EQ(port_only.host, "127.0.0.1");
  EXPECT_EQ(port_only.port, 9101);

  EXPECT_THROW(Endpoint::parse(""), InputError);
  EXPECT_THROW(Endpoint::parse("tcp:"), InputError);
  EXPECT_THROW(Endpoint::parse("tcp:host:notaport"), InputError);
  EXPECT_THROW(Endpoint::parse("tcp:99999"), InputError);
}

TEST_F(NetTest, FramesRoundTripOverUnixSocket) {
  Pair pair = make_pair("roundtrip");
  const std::string payloads[] = {"", "x", std::string(100000, 'q'),
                                  std::string("\0\x01\xff binary", 10)};
  for (const std::string& sent : payloads) {
    ASSERT_TRUE(pair.client.write_frame(sent));
    std::string got;
    ASSERT_EQ(pair.server.read_frame(got, 5.0), FrameStatus::kOk);
    EXPECT_EQ(got, sent);
  }
  // Full duplex: the server side can write back on the same stream.
  ASSERT_TRUE(pair.server.write_frame("reply"));
  std::string got;
  ASSERT_EQ(pair.client.read_frame(got, 5.0), FrameStatus::kOk);
  EXPECT_EQ(got, "reply");
}

TEST_F(NetTest, FramesRoundTripOverLoopbackTcp) {
  // Port 0: the listener resolves an ephemeral port and reports it.
  Listener listener = Listener::listen(Endpoint::tcp(0));
  ASSERT_GT(listener.endpoint().port, 0);
  Socket client = connect(listener.endpoint(), 5.0);
  Socket server = listener.accept(5.0);
  ASSERT_TRUE(client.valid());
  ASSERT_TRUE(server.valid());
  ASSERT_TRUE(client.write_frame("over tcp"));
  std::string got;
  ASSERT_EQ(server.read_frame(got, 5.0), FrameStatus::kOk);
  EXPECT_EQ(got, "over tcp");
}

TEST_F(NetTest, ReadTimesOutWhenNothingArrives) {
  Pair pair = make_pair("timeout");
  std::string got;
  EXPECT_EQ(pair.server.read_frame(got, 0.05), FrameStatus::kTimeout);
  // The connection is still usable after a timeout.
  ASSERT_TRUE(pair.client.write_frame("late"));
  EXPECT_EQ(pair.server.read_frame(got, 5.0), FrameStatus::kOk);
  EXPECT_EQ(got, "late");
}

TEST_F(NetTest, OrderlyCloseReadsAsClosed) {
  Pair pair = make_pair("closed");
  pair.client.close();
  std::string got;
  EXPECT_EQ(pair.server.read_frame(got, 5.0), FrameStatus::kClosed);
}

#if !defined(_WIN32)
/// Writes raw bytes straight onto the socket, bypassing write_frame — how
/// a corrupt or hostile peer looks to read_frame.
void send_raw(const Socket& socket, const std::string& bytes) {
  ASSERT_EQ(::send(socket.fd(), bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
}

std::string le32(std::uint32_t v) {
  std::string out;
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
  return out;
}

TEST_F(NetTest, ChecksumDamageIsReportedAndConsumed) {
  Pair pair = make_pair("checksum");
  // A whole frame whose checksum does not match its payload...
  send_raw(pair.client, le32(4) + le32(0xdeadbeef) + "oops");
  // ...followed by a clean frame.
  ASSERT_TRUE(pair.client.write_frame("clean"));

  std::string got;
  EXPECT_EQ(pair.server.read_frame(got, 5.0), FrameStatus::kChecksumError);
  // The damaged frame was consumed whole: the stream stays aligned and the
  // next read returns the clean frame (callers choose drop-vs-continue).
  ASSERT_EQ(pair.server.read_frame(got, 5.0), FrameStatus::kOk);
  EXPECT_EQ(got, "clean");
}

TEST_F(NetTest, GarbageLengthIsDamageNotAnAllocation) {
  Pair pair = make_pair("garbage");
  // 4 GiB claimed length: must surface as damage, not an OOM attempt.
  send_raw(pair.client, le32(0xffffffffu) + le32(0) + "x");
  std::string got;
  EXPECT_EQ(pair.server.read_frame(got, 0.5), FrameStatus::kChecksumError);
}

TEST_F(NetTest, TornFrameFromDyingPeerIsLossNotData) {
  Pair pair = make_pair("torn");
  // Half a frame, then the peer vanishes — exactly what net.torn_frame's
  // abort action produces in a crashing worker.
  send_raw(pair.client, le32(100) + le32(1234) + "only part of the payload");
  pair.client.close();
  std::string got;
  EXPECT_EQ(pair.server.read_frame(got, 5.0), FrameStatus::kClosed);
  EXPECT_TRUE(got.empty() || got != "only part of the payload");
}

TEST_F(NetTest, StalledMidFrameIsATimeoutNotAHang) {
  Pair pair = make_pair("stall");
  // The whole-frame deadline covers a peer that sends the header and then
  // stops: read_frame must not block past the timeout.
  send_raw(pair.client, le32(64) + le32(0));
  std::string got;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(pair.server.read_frame(got, 0.1), FrameStatus::kTimeout);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(waited, 2.0);
}
#endif  // !_WIN32

TEST_F(NetTest, FailpointsInjectWriteAndConnectFaults) {
  Pair pair = make_pair("failpoints");
  // net.frame_write: the send fails before any byte leaves; the caller's
  // error handling (worker crash ladder) sees the exception.
  failpoint::arm("net.frame_write=throw");
  EXPECT_THROW(pair.client.write_frame("dropped"), std::exception);
  failpoint::disarm_all();
  std::string got;
  EXPECT_EQ(pair.server.read_frame(got, 0.05), FrameStatus::kTimeout)
      << "no bytes may have been sent";

  // net.torn_frame: the frame is cut mid-write — the reader sees a stalled
  // half-frame, never a valid one.
  failpoint::arm("net.torn_frame=throw");
  EXPECT_THROW(pair.client.write_frame("torn"), std::exception);
  failpoint::disarm_all();
  EXPECT_NE(pair.server.read_frame(got, 0.1), FrameStatus::kOk);

  // net.connect: connection attempts fail on demand.
  failpoint::arm("net.connect=throw");
  EXPECT_THROW(connect(pair.listener.endpoint(), 1.0), std::exception);
  failpoint::disarm_all();

  // net.accept: a freshly accepted connection is dropped.
  failpoint::arm("net.accept=throw");
  Socket client2 = connect(pair.listener.endpoint(), 5.0);
  EXPECT_THROW(pair.listener.accept(5.0), std::exception);
  failpoint::disarm_all();
}

TEST_F(NetTest, ConnectToMissingEndpointThrows) {
  EXPECT_THROW(connect(Endpoint::unix_path(socket_path("nobody")), 0.2),
               InputError);
}

TEST_F(NetTest, StaleUnixSocketFileIsReplaced) {
  // A crashed daemon leaves its socket file behind; a new listener must
  // replace it instead of failing to bind.
  const std::string path = socket_path("stale");
  { std::ofstream stale(path); stale << "stale"; }
  Listener listener = Listener::listen(Endpoint::unix_path(path));
  Socket client = connect(listener.endpoint(), 5.0);
  EXPECT_TRUE(client.valid());
}

}  // namespace
}  // namespace rid::util::net
