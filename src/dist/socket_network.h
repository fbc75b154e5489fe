// A real transport behind the Network interface: TCP between OS processes,
// length-prefixed frames over the symbolic wire codec, timeouts on the OS
// steady clock. SimNetwork and SocketNetwork satisfy the same peer-facing
// contract (exactly-once, per-channel FIFO delivery into PeerNode::
// OnMessage), so the Datalog peers, both demand protocols and
// Dijkstra-Scholten termination run unchanged across processes — TCP
// provides per-channel reliability and ordering where the simulator's
// lossy wire needed the ReliableTransport shim.
//
// Deployment shape (see docs/CLUSTER.md): every process runs one
// SocketNetwork hosting its local PeerNodes. The network listens on one
// TCP port; an *address book* maps peer names to the host:port of the
// process hosting them. Sends to a local peer loop back through an
// in-process inbox; sends to a remote peer are framed and written to a
// lazily-dialed outbound connection (one per destination process).
// Inbound connections are accepted and read symmetrically — a directed
// process pair communicates over the dialer's connection, so per-channel
// FIFO is inherited from TCP's byte-stream ordering.
//
// Single-threaded: Pump() runs one poll(2) round — accept, read, decode,
// deliver, flush — and every delivery happens on the calling thread.
// Sends from inside OnMessage are buffered and flushed by the same or the
// next Pump. Control frames (cluster bootstrap, report collection,
// shutdown — dist/cluster_main.cc) bypass peer delivery and are handed to
// a ControlHandler.
#ifndef DQSQ_DIST_SOCKET_NETWORK_H_
#define DQSQ_DIST_SOCKET_NETWORK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"
#include "dist/network.h"
#include "dist/wire_codec.h"

namespace dqsq::dist {

struct SocketAddress {
  std::string host;
  uint16_t port = 0;

  std::string ToString() const {
    return host + ":" + std::to_string(port);
  }
  friend bool operator==(const SocketAddress&, const SocketAddress&) = default;
};

struct SocketNetworkOptions {
  /// Budget for establishing one outbound connection, retries included
  /// (covers the bootstrap race where the remote has not bound yet).
  int connect_timeout_ms = 5000;
  /// Delay between connect attempts within the budget.
  int connect_retry_ms = 50;
  /// SO_SNDBUF for every connection, 0 = kernel default. Small values
  /// force short writes / EAGAIN in FlushConnection — the partial-write
  /// regression tests pin the resume-at-offset path with this.
  int sndbuf_bytes = 0;
};

/// Wire- and delivery-level accounting, the real-wire analogue of
/// NetworkStats. Socket byte counts include frame headers.
struct SocketStats {
  size_t messages_delivered = 0;  // peer messages handed to local nodes
  size_t frames_sent = 0;         // all frames, control included
  size_t frames_received = 0;
  size_t bytes_sent = 0;
  size_t bytes_received = 0;
  size_t connects = 0;            // outbound connections established
  size_t accepts = 0;             // inbound connections accepted
  size_t framing_errors = 0;      // poisoned streams (connection dropped)
};

class SocketNetwork : public Network {
 public:
  /// Handles one control-plane frame; `conn_id` identifies the connection
  /// it arrived on, for SendControlOn replies.
  using ControlHandler = std::function<Status(const Frame& frame,
                                              uint64_t conn_id)>;

  explicit SocketNetwork(DatalogContext& ctx, SocketNetworkOptions options = {},
                         Clock* clock = &SteadyClock::Default());
  ~SocketNetwork() override;
  SocketNetwork(const SocketNetwork&) = delete;
  SocketNetwork& operator=(const SocketNetwork&) = delete;

  /// Binds and listens. Port 0 lets the kernel pick; the bound port is
  /// then available from listen_port() (how the cluster launcher avoids
  /// port collisions entirely).
  Status Listen(const std::string& host, uint16_t port);
  uint16_t listen_port() const { return listen_port_; }

  /// Registers a locally-hosted peer; the network does not own it.
  void Register(SymbolId id, PeerNode* peer);

  /// Maps `peer_name` to the process serving it. Sends to unregistered,
  /// unmapped peers fail (surfaced by the next Pump).
  void SetAddress(const std::string& peer_name, const SocketAddress& address);

  void SetControlHandler(ControlHandler handler) {
    control_handler_ = std::move(handler);
  }

  /// Network interface: local destinations loop back through the inbox,
  /// remote ones are framed onto the destination process's connection.
  /// I/O failures are deferred and returned by the next Pump().
  void Send(Message message) override;

  /// Frames a control payload to a process address (dialing if needed).
  Status SendControl(const SocketAddress& to, FrameType type,
                     std::string_view payload);
  /// Frames a control payload back on the connection a frame arrived on.
  Status SendControlOn(uint64_t conn_id, FrameType type,
                       std::string_view payload);

  /// One event-loop round: delivers queued loopback messages, polls up to
  /// `timeout_ms` (0 = nonblocking), accepts, reads and dispatches
  /// complete frames, flushes pending writes. Returns the first transport
  /// error (deferred send failures included). Publishes stats() to the
  /// registry on return.
  Status Pump(int timeout_ms);

  /// Pumps until `pred()` holds or `timeout_ms` elapses on the clock.
  Status PumpUntil(const std::function<bool()>& pred, int timeout_ms);

  const SocketStats& stats() const { return stats_; }
  size_t num_local_peers() const { return peers_.size(); }

 private:
  struct Connection {
    int fd = -1;
    std::string remote;       // description for errors
    FrameDecoder decoder;
    std::string outbuf;       // bytes not yet accepted by the kernel
    size_t outbuf_off = 0;
  };

  /// Established outbound connection to `address`, dialing on first use.
  StatusOr<Connection*> ConnectionTo(const SocketAddress& address);
  StatusOr<Connection*> Dial(const SocketAddress& address);
  void QueueFrame(Connection& conn, FrameType type, std::string_view payload);
  /// write()s as much of conn.outbuf as the kernel takes.
  Status FlushConnection(Connection& conn);
  /// Reads everything available; decodes and dispatches complete frames.
  Status DrainConnection(uint64_t conn_id);
  Status DispatchFrame(Frame frame, uint64_t conn_id);
  /// Hands a decoded message to its local PeerNode.
  Status Deliver(const Message& message);
  Status AcceptReady();
  Status PumpOnce(int timeout_ms);  // Pump() minus the publish
  void CloseConnection(uint64_t conn_id);
  void Defer(Status status);

  DatalogContext& ctx_;
  SocketNetworkOptions options_;
  Clock* clock_;
  int listen_fd_ = -1;
  uint16_t listen_port_ = 0;
  std::map<SymbolId, PeerNode*> peers_;           // local
  std::map<std::string, SocketAddress> address_book_;  // peer name -> process
  // Established connections by id; outbound ones also indexed by address.
  uint64_t next_conn_id_ = 1;
  std::map<uint64_t, std::unique_ptr<Connection>> conns_;
  std::map<std::string, uint64_t> outbound_;      // address key -> conn id
  std::deque<Message> inbox_;                     // loopback deliveries
  ControlHandler control_handler_;
  Status deferred_error_ = Status::Ok();
  SocketStats stats_;
  StatsPublisher<SocketStats> counters_;
};

}  // namespace dqsq::dist

#endif  // DQSQ_DIST_SOCKET_NETWORK_H_
