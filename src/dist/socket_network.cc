#include "dist/socket_network.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"

namespace dqsq::dist {

namespace {

// SocketStats fields published as dist.net.real_* counters.
constexpr StatCounter<SocketStats> kSocketCounters[] = {
    {"dist.net.real_messages_delivered", "messages",
     &SocketStats::messages_delivered},
    {"dist.net.real_frames_sent", "frames", &SocketStats::frames_sent},
    {"dist.net.real_frames_recv", "frames", &SocketStats::frames_received},
    {"dist.net.real_sent_bytes", "bytes", &SocketStats::bytes_sent},
    {"dist.net.real_recv_bytes", "bytes", &SocketStats::bytes_received},
    {"dist.net.real_accepts", "connections", &SocketStats::accepts},
    {"dist.net.real_framing_errors", "frames", &SocketStats::framing_errors},
};

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// Nonblocking for the poll loop; close-on-exec so the supervisor's
/// sockets do not leak into the peer processes it forks.
Status MakeNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return InternalError(Errno("fcntl(O_NONBLOCK)"));
  }
  if (fcntl(fd, F_SETFD, FD_CLOEXEC) < 0) {
    return InternalError(Errno("fcntl(FD_CLOEXEC)"));
  }
  return Status::Ok();
}

/// Numeric IPv4 only, with "localhost" as a convenience alias — cluster
/// peers are addressed by the supervisor, not by DNS.
StatusOr<in_addr> ParseHost(const std::string& host) {
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  in_addr addr{};
  if (inet_pton(AF_INET, resolved.c_str(), &addr) != 1) {
    return InvalidArgumentError("unparsable IPv4 host '" + host + "'");
  }
  return addr;
}

}  // namespace

SocketNetwork::SocketNetwork(DatalogContext& ctx, SocketNetworkOptions options,
                             Clock* clock)
    : ctx_(ctx), options_(options), clock_(clock), counters_(kSocketCounters) {}

SocketNetwork::~SocketNetwork() {
  for (auto& [id, conn] : conns_) {
    if (conn->fd >= 0) close(conn->fd);
  }
  if (listen_fd_ >= 0) close(listen_fd_);
}

Status SocketNetwork::Listen(const std::string& host, uint16_t port) {
  DQSQ_CHECK_LT(listen_fd_, 0) << "Listen called twice";
  DQSQ_ASSIGN_OR_RETURN(in_addr host_addr, ParseHost(host));
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return InternalError(Errno("socket"));
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr = host_addr;
  addr.sin_port = htons(port);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status = InternalError(
        Errno("bind " + host + ":" + std::to_string(port)));
    close(fd);
    return status;
  }
  if (listen(fd, SOMAXCONN) < 0) {
    Status status = InternalError(Errno("listen"));
    close(fd);
    return status;
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    Status status = InternalError(Errno("getsockname"));
    close(fd);
    return status;
  }
  DQSQ_RETURN_IF_ERROR(MakeNonBlocking(fd));
  listen_fd_ = fd;
  listen_port_ = ntohs(addr.sin_port);
  return Status::Ok();
}

void SocketNetwork::Register(SymbolId id, PeerNode* peer) {
  DQSQ_CHECK(peers_.emplace(id, peer).second) << "duplicate peer id " << id;
}

void SocketNetwork::SetAddress(const std::string& peer_name,
                               const SocketAddress& address) {
  address_book_[peer_name] = address;
}

void SocketNetwork::Defer(Status status) {
  if (deferred_error_.ok() && !status.ok()) deferred_error_ = status;
}

void SocketNetwork::Send(Message message) {
  if (peers_.contains(message.to)) {
    inbox_.push_back(std::move(message));
    return;
  }
  const std::string& to_name = ctx_.symbols().Name(message.to);
  auto it = address_book_.find(to_name);
  if (it == address_book_.end()) {
    Defer(InvalidArgumentError("send to peer '" + to_name +
                               "': not local and not in the address book"));
    return;
  }
  auto conn = ConnectionTo(it->second);
  if (!conn.ok()) {
    Defer(conn.status());
    return;
  }
  SnapshotWriter w;
  EncodeMessage(message, &ctx_, w);
  QueueFrame(**conn, FrameType::kPeerMessage, w.bytes());
  // Opportunistic flush so steady-state sends do not wait for the next
  // poll round; leftovers stay buffered for Pump.
  Defer(FlushConnection(**conn));
}

Status SocketNetwork::SendControl(const SocketAddress& to, FrameType type,
                                  std::string_view payload) {
  DQSQ_ASSIGN_OR_RETURN(Connection * conn, ConnectionTo(to));
  QueueFrame(*conn, type, payload);
  return FlushConnection(*conn);
}

Status SocketNetwork::SendControlOn(uint64_t conn_id, FrameType type,
                                    std::string_view payload) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) {
    return InvalidArgumentError("reply on a closed connection");
  }
  QueueFrame(*it->second, type, payload);
  return FlushConnection(*it->second);
}

void SocketNetwork::QueueFrame(Connection& conn, FrameType type,
                               std::string_view payload) {
  conn.outbuf.append(EncodeFrame(type, payload));
  ++stats_.frames_sent;
}

StatusOr<SocketNetwork::Connection*> SocketNetwork::ConnectionTo(
    const SocketAddress& address) {
  auto it = outbound_.find(address.ToString());
  if (it != outbound_.end()) return conns_.at(it->second).get();
  return Dial(address);
}

StatusOr<SocketNetwork::Connection*> SocketNetwork::Dial(
    const SocketAddress& address) {
  DQSQ_ASSIGN_OR_RETURN(in_addr host_addr, ParseHost(address.host));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr = host_addr;
  addr.sin_port = htons(address.port);
  const uint64_t start_ns = clock_->NowNs();
  const uint64_t deadline_ns =
      start_ns + uint64_t{1'000'000} * options_.connect_timeout_ms;
  size_t attempts = 0;
  for (;;) {
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return InternalError(Errno("socket"));
    ++attempts;
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      if (options_.sndbuf_bytes > 0) {
        setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
                   sizeof(options_.sndbuf_bytes));
      }
      Status status = MakeNonBlocking(fd);
      if (!status.ok()) {
        close(fd);
        return status;
      }
      TimeMetric("dist.net.real_connect_ns").Record(clock_->NowNs() - start_ns);
      if (attempts > 1) {
        CountMetric("dist.net.real_connect_retries", attempts - 1, {},
                    "attempts");
      }
      auto conn = std::make_unique<Connection>();
      conn->fd = fd;
      conn->remote = address.ToString();
      Connection* raw = conn.get();
      uint64_t id = next_conn_id_++;
      conns_.emplace(id, std::move(conn));
      outbound_.emplace(address.ToString(), id);
      ++stats_.connects;
      return raw;
    }
    close(fd);
    // ECONNREFUSED during bootstrap just means the remote has not bound
    // its listen socket yet; retry within the budget.
    if (clock_->NowNs() >= deadline_ns) {
      return InternalError("connect " + address.ToString() + " timed out (" +
                           std::to_string(attempts) + " attempts over " +
                           std::to_string(options_.connect_timeout_ms) +
                           "ms): " + std::strerror(errno));
    }
    timespec wait{options_.connect_retry_ms / 1000,
                  (options_.connect_retry_ms % 1000) * 1'000'000L};
    nanosleep(&wait, nullptr);
  }
}

Status SocketNetwork::FlushConnection(Connection& conn) {
  while (conn.outbuf_off < conn.outbuf.size()) {
    ssize_t n = send(conn.fd, conn.outbuf.data() + conn.outbuf_off,
                     conn.outbuf.size() - conn.outbuf_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // poll for POLLOUT
      if (errno == EINTR) continue;
      return InternalError(Errno("send to " + conn.remote));
    }
    conn.outbuf_off += static_cast<size_t>(n);
    stats_.bytes_sent += static_cast<size_t>(n);
  }
  if (conn.outbuf_off == conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.outbuf_off = 0;
  } else if (conn.outbuf_off >= 64 * 1024) {
    // Partial flush on a slow receiver: drop the already-sent prefix so a
    // long EAGAIN streak cannot pin the whole send history in memory
    // (QueueFrame keeps appending behind the offset).
    conn.outbuf.erase(0, conn.outbuf_off);
    conn.outbuf_off = 0;
  }
  return Status::Ok();
}

Status SocketNetwork::AcceptReady() {
  for (;;) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    int fd = accept(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::Ok();
      if (errno == EINTR) continue;
      return InternalError(Errno("accept"));
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.sndbuf_bytes > 0) {
      setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
                 sizeof(options_.sndbuf_bytes));
    }
    Status status = MakeNonBlocking(fd);
    if (!status.ok()) {
      close(fd);
      return status;
    }
    char host[INET_ADDRSTRLEN] = "?";
    inet_ntop(AF_INET, &addr.sin_addr, host, sizeof(host));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->remote = std::string(host) + ":" + std::to_string(ntohs(addr.sin_port));
    conns_.emplace(next_conn_id_++, std::move(conn));
    ++stats_.accepts;
  }
}

void SocketNetwork::CloseConnection(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  close(it->second->fd);
  for (auto out = outbound_.begin(); out != outbound_.end(); ++out) {
    if (out->second == conn_id) {
      outbound_.erase(out);
      break;
    }
  }
  conns_.erase(it);
}

Status SocketNetwork::Deliver(const Message& message) {
  auto it = peers_.find(message.to);
  if (it == peers_.end()) {
    return InternalError("message for peer '" +
                         ctx_.symbols().Name(message.to) +
                         "' routed to a process not hosting it");
  }
  ++stats_.messages_delivered;
  return it->second->OnMessage(message, *this);
}

Status SocketNetwork::DispatchFrame(Frame frame, uint64_t conn_id) {
  ++stats_.frames_received;
  if (frame.type == FrameType::kPeerMessage) {
    SnapshotReader r(frame.payload);
    Message message = DecodeMessage(r, &ctx_);
    DQSQ_CHECK(r.AtEnd()) << "trailing bytes after wire message";
    return Deliver(message);
  }
  if (control_handler_ == nullptr) {
    return InternalError("control frame received with no handler installed");
  }
  return control_handler_(frame, conn_id);
}

Status SocketNetwork::DrainConnection(uint64_t conn_id) {
  char buf[64 * 1024];
  for (;;) {
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) return Status::Ok();  // closed by a handler
    Connection& conn = *it->second;
    ssize_t n = recv(conn.fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::Ok();
      if (errno == EINTR) continue;
      return InternalError(Errno("recv from " + conn.remote));
    }
    if (n == 0) {
      // Orderly remote close. Losing buffered outbound bytes would be a
      // silent message drop — surface it.
      Status status = Status::Ok();
      if (conn.outbuf_off < conn.outbuf.size()) {
        status = InternalError("connection to " + conn.remote +
                               " closed with unsent bytes");
      }
      CloseConnection(conn_id);
      return status;
    }
    stats_.bytes_received += static_cast<size_t>(n);
    conn.decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    for (;;) {
      auto next = conn.decoder.Next();
      if (!next.ok()) {
        ++stats_.framing_errors;
        std::string remote = conn.remote;
        CloseConnection(conn_id);
        return InternalError(next.status().message() + " (from " + remote +
                             ")");
      }
      if (!next->has_value()) break;
      DQSQ_RETURN_IF_ERROR(DispatchFrame(std::move(**next), conn_id));
      // The handler may have closed this connection; re-check.
      if (!conns_.contains(conn_id)) return Status::Ok();
    }
  }
}

Status SocketNetwork::Pump(int timeout_ms) {
  Status status = PumpOnce(timeout_ms);
  counters_.Publish(stats_);
  return status;
}

Status SocketNetwork::PumpOnce(int timeout_ms) {
  if (!deferred_error_.ok()) {
    Status status = deferred_error_;
    deferred_error_ = Status::Ok();
    return status;
  }
  // Loopback deliveries first: they may enqueue socket writes below.
  while (!inbox_.empty()) {
    Message m = std::move(inbox_.front());
    inbox_.pop_front();
    DQSQ_RETURN_IF_ERROR(Deliver(m));
  }

  std::vector<pollfd> fds;
  std::vector<uint64_t> ids;  // ids[i] corresponds to fds[i]; 0 = listener
  if (listen_fd_ >= 0) {
    fds.push_back({listen_fd_, POLLIN, 0});
    ids.push_back(0);
  }
  for (const auto& [id, conn] : conns_) {
    short events = POLLIN;
    if (conn->outbuf_off < conn->outbuf.size()) events |= POLLOUT;
    fds.push_back({conn->fd, events, 0});
    ids.push_back(id);
  }
  if (fds.empty()) return Status::Ok();
  int ready = poll(fds.data(), fds.size(), timeout_ms);
  if (ready < 0) {
    if (errno == EINTR) return Status::Ok();
    return InternalError(Errno("poll"));
  }
  for (size_t i = 0; i < fds.size(); ++i) {
    if (fds[i].revents == 0) continue;
    if (ids[i] == 0) {
      DQSQ_RETURN_IF_ERROR(AcceptReady());
      continue;
    }
    auto it = conns_.find(ids[i]);
    if (it == conns_.end()) continue;  // closed earlier this round
    if (fds[i].revents & POLLOUT) {
      DQSQ_RETURN_IF_ERROR(FlushConnection(*it->second));
    }
    if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
      DQSQ_RETURN_IF_ERROR(DrainConnection(ids[i]));
    }
  }
  // Dispatches may have queued loopback messages or writes; deliver the
  // former now so PumpUntil predicates observe them.
  while (!inbox_.empty()) {
    Message m = std::move(inbox_.front());
    inbox_.pop_front();
    DQSQ_RETURN_IF_ERROR(Deliver(m));
  }
  if (!deferred_error_.ok()) {
    Status status = deferred_error_;
    deferred_error_ = Status::Ok();
    return status;
  }
  return Status::Ok();
}

Status SocketNetwork::PumpUntil(const std::function<bool()>& pred,
                                int timeout_ms) {
  const uint64_t deadline_ns =
      clock_->NowNs() + uint64_t{1'000'000} * timeout_ms;
  while (!pred()) {
    uint64_t now_ns = clock_->NowNs();
    if (now_ns >= deadline_ns) {
      return ResourceExhaustedError("PumpUntil timed out after " +
                                    std::to_string(timeout_ms) + "ms");
    }
    uint64_t slice_ms = (deadline_ns - now_ns) / 1'000'000;
    DQSQ_RETURN_IF_ERROR(
        Pump(static_cast<int>(std::min<uint64_t>(slice_ms + 1, 20))));
  }
  return Status::Ok();
}

}  // namespace dqsq::dist
