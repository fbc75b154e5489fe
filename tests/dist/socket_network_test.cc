#include "dist/socket_network.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/metrics.h"

namespace dqsq::dist {
namespace {

// Records deliveries; optionally echoes each message back to its sender.
class RecordingPeer : public PeerNode {
 public:
  RecordingPeer(SymbolId id, bool echo) : id_(id), echo_(echo) {}

  Status OnMessage(const Message& message, Network& network) override {
    received.push_back(message);
    if (echo_) {
      Message reply = message;
      reply.from = id_;
      reply.to = message.from;
      network.Send(std::move(reply));
    }
    return Status::Ok();
  }

  std::vector<Message> received;

 private:
  SymbolId id_;
  bool echo_;
};

/// Alternates Pump(0) on both networks until `pred` or `rounds` runs out —
/// a deterministic two-process interleaving inside one test process.
template <typename Pred>
void PumpBoth(SocketNetwork& a, SocketNetwork& b, const Pred& pred,
              int rounds = 2000) {
  for (int i = 0; i < rounds && !pred(); ++i) {
    ASSERT_TRUE(a.Pump(1).ok());
    ASSERT_TRUE(b.Pump(1).ok());
  }
  EXPECT_TRUE(pred()) << "condition not reached within pump budget";
}

// The no-supervisor loopback echo: two SocketNetworks with *separate*
// DatalogContexts (so every id differs across them), wired by address
// book only. Proves the socket transport + symbolic codec stack without
// any cluster machinery.
TEST(SocketNetworkTest, EchoAcrossTwoNetworksWithDistinctContexts) {
  DatalogContext ctx_a;  // client side
  DatalogContext ctx_b;  // echo side
  // Different interning orders on purpose.
  ctx_b.symbols().Intern("noise0");
  ctx_b.symbols().Intern("noise1");

  SocketNetwork a(ctx_a);
  SocketNetwork b(ctx_b);
  ASSERT_TRUE(a.Listen("127.0.0.1", 0).ok());
  ASSERT_TRUE(b.Listen("127.0.0.1", 0).ok());

  SymbolId client_a = ctx_a.symbols().Intern("client");
  SymbolId echo_b = ctx_b.symbols().Intern("echo");
  RecordingPeer client(client_a, /*echo=*/false);
  RecordingPeer echo(echo_b, /*echo=*/true);
  a.Register(client_a, &client);
  b.Register(echo_b, &echo);
  a.SetAddress("echo", SocketAddress{"127.0.0.1", b.listen_port()});
  b.SetAddress("client", SocketAddress{"127.0.0.1", a.listen_port()});

  Message m;
  m.kind = MessageKind::kTuples;
  m.from = client_a;
  m.to = ctx_a.symbols().Intern("echo");
  m.rel = RelId{ctx_a.InternPredicate("r", 2), ctx_a.symbols().Intern("echo")};
  m.tuples.push_back(Tuple{
      ctx_a.arena().MakeConstant(ctx_a.symbols().Intern("alpha")),
      ctx_a.arena().MakeApp(ctx_a.symbols().Intern("f"),
                            {ctx_a.arena().MakeConstant(
                                ctx_a.symbols().Intern("beta"))})});
  a.Send(m);

  PumpBoth(a, b, [&] { return !client.received.empty(); });
  ASSERT_EQ(echo.received.size(), 1u);
  ASSERT_EQ(client.received.size(), 1u);

  // The round trip crossed two re-internings; the rendered tuple must be
  // identical to what was sent.
  const Message& back = client.received[0];
  ASSERT_EQ(back.tuples.size(), 1u);
  ASSERT_EQ(back.tuples[0].size(), 2u);
  EXPECT_EQ(ctx_a.arena().ToString(back.tuples[0][0], ctx_a.symbols()),
            ctx_a.arena().ToString(m.tuples[0][0], ctx_a.symbols()));
  EXPECT_EQ(ctx_a.arena().ToString(back.tuples[0][1], ctx_a.symbols()),
            ctx_a.arena().ToString(m.tuples[0][1], ctx_a.symbols()));
  EXPECT_EQ(ctx_a.symbols().Name(back.from), "echo");

  EXPECT_EQ(a.stats().frames_sent, 1u);
  EXPECT_EQ(a.stats().frames_received, 1u);
  EXPECT_EQ(b.stats().messages_delivered, 1u);
  EXPECT_EQ(echo.received[0].tuples.size(), 1u);
  EXPECT_GT(a.stats().bytes_sent, kFrameHeaderBytes);
  EXPECT_EQ(a.stats().framing_errors, 0u);
}

TEST(SocketNetworkTest, LocalPeersLoopBackWithoutSockets) {
  DatalogContext ctx;
  SocketNetwork net(ctx);  // no Listen: purely local
  SymbolId a_id = ctx.symbols().Intern("a");
  SymbolId b_id = ctx.symbols().Intern("b");
  RecordingPeer a(a_id, false), b(b_id, false);
  net.Register(a_id, &a);
  net.Register(b_id, &b);

  Message m;
  m.kind = MessageKind::kAck;
  m.from = a_id;
  m.to = b_id;
  net.Send(m);
  ASSERT_TRUE(net.Pump(0).ok());
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(net.stats().bytes_sent, 0u);  // never touched a socket
  EXPECT_EQ(net.stats().messages_delivered, 1u);
}

TEST(SocketNetworkTest, SendToUnknownPeerSurfacesOnNextPump) {
  DatalogContext ctx;
  SocketNetwork net(ctx);
  Message m;
  m.kind = MessageKind::kAck;
  m.from = ctx.symbols().Intern("a");
  m.to = ctx.symbols().Intern("nowhere");
  net.Send(m);
  Status status = net.Pump(0);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("address book"), std::string::npos);
  EXPECT_TRUE(net.Pump(0).ok());  // the error is reported once
}

TEST(SocketNetworkTest, ControlFramesReachTheHandlerWithReplies) {
  DatalogContext ctx_a, ctx_b;
  SocketNetwork a(ctx_a), b(ctx_b);
  ASSERT_TRUE(a.Listen("127.0.0.1", 0).ok());
  ASSERT_TRUE(b.Listen("127.0.0.1", 0).ok());

  std::string got_on_b;
  b.SetControlHandler([&](const Frame& frame, uint64_t conn_id) -> Status {
    EXPECT_EQ(frame.type, FrameType::kHello);
    got_on_b = frame.payload;
    return b.SendControlOn(conn_id, FrameType::kStart, "welcome " +
                                                           frame.payload);
  });
  std::string got_on_a;
  a.SetControlHandler([&](const Frame& frame, uint64_t) -> Status {
    EXPECT_EQ(frame.type, FrameType::kStart);
    got_on_a = frame.payload;
    return Status::Ok();
  });

  ASSERT_TRUE(a.SendControl(SocketAddress{"127.0.0.1", b.listen_port()},
                            FrameType::kHello, "peer-7")
                  .ok());
  PumpBoth(a, b, [&] { return !got_on_a.empty(); });
  EXPECT_EQ(got_on_b, "peer-7");
  EXPECT_EQ(got_on_a, "welcome peer-7");
}

// A raw TCP client that writes garbage: the receiving Pump must fail,
// count a framing error, and drop only that connection.
TEST(SocketNetworkTest, GarbageBytesPoisonOnlyTheirConnection) {
  DatalogContext ctx;
  SocketNetwork net(ctx);
  ASSERT_TRUE(net.Listen("127.0.0.1", 0).ok());

  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(net.listen_port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const char junk[] = "garbage garbage garbage garbage";
  ASSERT_GT(write(fd, junk, sizeof(junk)), 0);

  Status status = Status::Ok();
  for (int i = 0; i < 100 && status.ok() && net.stats().framing_errors == 0;
       ++i) {
    status = net.Pump(10);
  }
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(net.stats().framing_errors, 1u);
  EXPECT_TRUE(net.Pump(0).ok());  // the network itself stays usable
  close(fd);
}

// A SocketStats field and the registry counter that reports it.
struct SocketCounterRow {
  const char* metric;
  size_t SocketStats::*field;
};

const SocketCounterRow kSocketCounterRows[] = {
    {"dist.net.real_frames_sent", &SocketStats::frames_sent},
    {"dist.net.real_frames_recv", &SocketStats::frames_received},
    {"dist.net.real_sent_bytes", &SocketStats::bytes_sent},
    {"dist.net.real_recv_bytes", &SocketStats::bytes_received},
    {"dist.net.real_accepts", &SocketStats::accepts},
    {"dist.net.real_messages_delivered", &SocketStats::messages_delivered},
    {"dist.net.real_framing_errors", &SocketStats::framing_errors},
};

bool Registered(const MetricsSnapshot& snapshot, const std::string& name) {
  for (const MetricSample& s : snapshot.samples) {
    if (s.name == name) return true;
  }
  return false;
}

/// Every row's registry diff equals the summed stats of `nets`; a row
/// whose event never fired was not registered by the run.
void ExpectRegistryMatchesStats(const MetricsSnapshot& before,
                                std::vector<const SocketNetwork*> nets) {
  MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  MetricsSnapshot diff = after.Diff(before);
  for (const SocketCounterRow& row : kSocketCounterRows) {
    SCOPED_TRACE(row.metric);
    size_t expected = 0;
    for (const SocketNetwork* net : nets) expected += net->stats().*row.field;
    EXPECT_EQ(diff.Value(row.metric), expected);
    if (expected == 0 && !Registered(before, row.metric)) {
      EXPECT_FALSE(Registered(after, row.metric))
          << "registered by a run that never counted it";
    }
  }
}

TEST(SocketNetworkTest, RegistryMatchesSocketStats) {
  auto& registry = MetricsRegistry::Global();
  {
    // A clean echo round trip: frames, bytes, one accept per side, no
    // framing error.
    MetricsSnapshot before = registry.Snapshot();
    DatalogContext ctx_a, ctx_b;
    SocketNetwork a(ctx_a);
    SocketNetwork b(ctx_b);
    ASSERT_TRUE(a.Listen("127.0.0.1", 0).ok());
    ASSERT_TRUE(b.Listen("127.0.0.1", 0).ok());
    SymbolId client_a = ctx_a.symbols().Intern("client");
    SymbolId echo_b = ctx_b.symbols().Intern("echo");
    RecordingPeer client(client_a, /*echo=*/false);
    RecordingPeer echo(echo_b, /*echo=*/true);
    a.Register(client_a, &client);
    b.Register(echo_b, &echo);
    a.SetAddress("echo", SocketAddress{"127.0.0.1", b.listen_port()});
    b.SetAddress("client", SocketAddress{"127.0.0.1", a.listen_port()});
    Message m;
    m.kind = MessageKind::kTuples;
    m.from = client_a;
    m.to = ctx_a.symbols().Intern("echo");
    m.rel = RelId{ctx_a.InternPredicate("r", 1), m.to};
    m.tuples.push_back(
        Tuple{ctx_a.arena().MakeConstant(ctx_a.symbols().Intern("x"))});
    a.Send(m);
    PumpBoth(a, b, [&] { return !client.received.empty(); });
    ASSERT_EQ(client.received.size(), 1u);
    EXPECT_EQ(a.stats().framing_errors + b.stats().framing_errors, 0u);
    ExpectRegistryMatchesStats(before, {&a, &b});
  }
  {
    // A poisoned stream: one accept, raw bytes in, one framing error.
    MetricsSnapshot before = registry.Snapshot();
    DatalogContext ctx;
    SocketNetwork net(ctx);
    ASSERT_TRUE(net.Listen("127.0.0.1", 0).ok());
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(net.listen_port());
    ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    const char junk[] = "garbage garbage garbage garbage";
    ASSERT_GT(write(fd, junk, sizeof(junk)), 0);
    for (int i = 0; i < 100 && net.stats().framing_errors == 0; ++i) {
      (void)net.Pump(10);
    }
    EXPECT_EQ(net.stats().framing_errors, 1u);
    ExpectRegistryMatchesStats(before, {&net});
    close(fd);
  }
}

// Regression for the FlushConnection send loop: with a tiny SO_SNDBUF the
// kernel accepts only part of each write (short writes, then EAGAIN), so
// a large burst must survive many resume-at-offset flush rounds. A wrong
// offset resume corrupts the byte stream, which the receiver's framing
// layer would report — so "everything delivered, zero framing errors"
// pins the path.
TEST(SocketNetworkTest, TinySendBufferDeliversLargeBurstIntact) {
  DatalogContext ctx_a, ctx_b;
  SocketNetworkOptions small;
  small.sndbuf_bytes = 4096;  // kernel clamps to its minimum; still tiny
  SocketNetwork a(ctx_a, small);
  SocketNetwork b(ctx_b);
  ASSERT_TRUE(a.Listen("127.0.0.1", 0).ok());
  ASSERT_TRUE(b.Listen("127.0.0.1", 0).ok());

  SymbolId client_a = ctx_a.symbols().Intern("client");
  SymbolId sink_b = ctx_b.symbols().Intern("sink");
  RecordingPeer client(client_a, /*echo=*/false);
  RecordingPeer sink(sink_b, /*echo=*/false);
  a.Register(client_a, &client);
  b.Register(sink_b, &sink);
  a.SetAddress("sink", SocketAddress{"127.0.0.1", b.listen_port()});

  // ~200 messages x 50 wide tuples: far beyond any clamped send buffer,
  // queued in one burst so the outbuf backlog spans many flush rounds.
  const int kMessages = 200;
  const int kTuplesPer = 50;
  const RelId rel{ctx_a.InternPredicate("r", 4),
                  ctx_a.symbols().Intern("sink")};
  for (int i = 0; i < kMessages; ++i) {
    Message m;
    m.kind = MessageKind::kTuples;
    m.from = client_a;
    m.to = ctx_a.symbols().Intern("sink");
    m.rel = rel;
    for (int j = 0; j < kTuplesPer; ++j) {
      Tuple t;
      for (int c = 0; c < 4; ++c) {
        t.push_back(ctx_a.arena().MakeConstant(ctx_a.symbols().Intern(
            "m" + std::to_string(i) + "t" + std::to_string(j) + "c" +
            std::to_string(c))));
      }
      m.tuples.push_back(std::move(t));
    }
    a.Send(std::move(m));
  }

  PumpBoth(a, b, [&] { return sink.received.size() == size_t(kMessages); },
           20000);
  ASSERT_EQ(sink.received.size(), size_t(kMessages));
  size_t delivered_tuples = 0;
  for (const Message& m : sink.received) delivered_tuples += m.tuples.size();
  EXPECT_EQ(delivered_tuples, size_t(kMessages) * kTuplesPer);
  EXPECT_EQ(b.stats().framing_errors, 0u);
  EXPECT_EQ(a.stats().frames_sent, size_t(kMessages));
  // Every payload survived the re-interning round trip in order.
  for (int i = 0; i < kMessages; ++i) {
    const Message& got = sink.received[i];
    ASSERT_EQ(got.tuples.size(), size_t(kTuplesPer));
    EXPECT_EQ(ctx_b.arena().ToString(got.tuples[0][0], ctx_b.symbols()),
              "m" + std::to_string(i) + "t0c0");
  }
}

TEST(SocketNetworkTest, PumpUntilTimesOut) {
  DatalogContext ctx;
  SocketNetwork net(ctx);
  Status status = net.PumpUntil([] { return false; }, 30);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("timed out"), std::string::npos);
}

}  // namespace
}  // namespace dqsq::dist
