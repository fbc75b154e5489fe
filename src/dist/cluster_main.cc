// Multi-process cluster runner: the real-wire counterpart of the simulated
// Cluster driver. One binary, three modes (docs/CLUSTER.md):
//
//  * --mode=supervisor (default): spawns N peer processes (fork + execv of
//    this binary), collects their kHello frames (each peer listens on a
//    kernel-assigned port, so there are no port collisions by
//    construction), partitions the program's peer names across processes
//    round-robin over the sorted name list, ships every process the full
//    program text plus the address book in a kStart frame, seeds the
//    demand as the Dijkstra-Scholten root, pumps until the root detects
//    termination, gathers kReportReply frames (answers, fact counts,
//    socket stats) and prints a JSON report. With
//    --check-against-sim the same seeded workload is also solved on the
//    in-process SimNetwork and the sorted rendered answers are compared
//    byte for byte.
//
//  * --mode=peer: one worker process. Listens on port 0, says hello to
//    the supervisor, builds its assigned DatalogPeers from the kStart
//    payload (parsing the program into its own DatalogContext — the wire
//    codec's symbolic encoding makes the per-process interning orders
//    irrelevant), then pumps until kShutdown.
//
//  * --mode=bench: the E3_realwire experiment — runs the seeded chain
//    workload on the simulated wire and on real sockets for both engines
//    and writes BENCH_E3_realwire.json (deterministic counts only; wall
//    times go into *_ns params, which the baseline guard excludes).
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "diagnosis/diagnosability.h"
#include "dist/cluster.h"
#include "dist/dnaive.h"
#include "dist/dqsq.h"
#include "dist/socket_network.h"
#include "petri/random_net.h"
#include "petri/verifier.h"

namespace dqsq::dist {
namespace {

// ---- Command line --------------------------------------------------------

struct Args {
  std::string mode = "supervisor";
  std::string engine = "dqsq";       // dnaive | dqsq
  std::string host = "127.0.0.1";
  int port = 0;                      // supervisor listen port (0 = kernel)
  int procs = 4;                     // peer processes to spawn
  std::string program_path;          // program file; empty = generated
  std::string workload = "chain";    // chain | diag (generated programs)
  std::string query = "path@peer0(v0, Y)";
  int chain_peers = 6;               // generated workload shape
  int chain_edges = 4;
  int net_peers = 3;                 // diag workload: random net shape
  int net_transitions = 5;
  double fault_fraction = 0.25;      // diag workload: fault density
  uint64_t seed = 1;
  int timeout_ms = 60000;            // per supervisor phase
  bool check_against_sim = false;
  // Peer mode.
  std::string supervisor;            // host:port to dial
  int index = -1;
};

/// Parses all of `text` as a number in [lo, hi] into `out`. On failure
/// prints "invalid <what> '<text>': ..." to stderr and returns false, so
/// no malformed flag can throw, wrap around or slip through as 0.
template <typename T>
bool ParseNumber(const std::string& what, std::string_view text, T lo, T hi,
                 T* out) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  // Negated range test: NaN compares false both ways and is rejected.
  if (ec != std::errc() || ptr != end || !(value >= lo && value <= hi)) {
    std::ostringstream range;
    range << "[" << lo << ", " << hi << "]";
    std::fprintf(stderr, "invalid %s '%.*s': expected a number in %s\n",
                 what.c_str(), static_cast<int>(text.size()), text.data(),
                 range.str().c_str());
    return false;
  }
  *out = value;
  return true;
}

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto eat = [&](const char* flag, std::string* out) {
      std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) != 0) return false;
      *out = arg.substr(prefix.size());
      return true;
    };
    // A numeric flag: true iff `flag` matched; `bad` records whether its
    // value was out of range or malformed.
    bool bad = false;
    auto number = [&](const char* flag, auto* out, auto lo, auto hi) {
      std::string value;
      if (!eat(flag, &value)) return false;
      bad = !ParseNumber(flag, value, lo, hi, out);
      return true;
    };
    if (eat("--mode", &args.mode) || eat("--engine", &args.engine) ||
        eat("--host", &args.host) || eat("--program", &args.program_path) ||
        eat("--workload", &args.workload) || eat("--query", &args.query) ||
        eat("--supervisor", &args.supervisor) ||
        number("--net-peers", &args.net_peers, 1, INT_MAX) ||
        number("--net-transitions", &args.net_transitions, 1, INT_MAX) ||
        number("--fault-fraction", &args.fault_fraction, 0.0, 1.0) ||
        number("--port", &args.port, 0, 65535) ||
        number("--procs", &args.procs, 1, 256) ||
        number("--chain-peers", &args.chain_peers, 1, INT_MAX) ||
        number("--chain-edges", &args.chain_edges, 0, INT_MAX) ||
        number("--seed", &args.seed, uint64_t{0}, UINT64_MAX) ||
        number("--timeout-ms", &args.timeout_ms, 1, INT_MAX) ||
        number("--index", &args.index, 0, INT_MAX)) {
      if (bad) return std::nullopt;
      continue;
    } else if (arg == "--check-against-sim") {
      args.check_against_sim = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s (see docs/CLUSTER.md)\n",
                   arg.c_str());
      return std::nullopt;
    }
  }
  return args;
}

StatusOr<SocketAddress> ParseAddress(const std::string& spec) {
  size_t colon = spec.rfind(':');
  if (colon == std::string::npos) {
    return InvalidArgumentError("address must be host:port, got '" + spec +
                                "'");
  }
  SocketAddress addr;
  addr.host = spec.substr(0, colon);
  int port = 0;
  if (!ParseNumber("port", std::string_view(spec).substr(colon + 1), 1, 65535,
                   &port)) {
    return InvalidArgumentError("bad port in address '" + spec + "'");
  }
  addr.port = static_cast<uint16_t>(port);
  return addr;
}

/// The E3 distributed-chain workload shape (bench/bench_util.h): per-peer
/// edge facts, local path rules and a hop rule into the next peer.
/// Generated as text because the peers re-parse it from the kStart frame.
std::string ChainProgramText(int peers, int per_peer) {
  std::string program;
  for (int p = 0; p < peers; ++p) {
    for (int i = 0; i < per_peer; ++i) {
      int from = p * per_peer + i;
      program += "edge@peer" + std::to_string(p) + "(v" +
                 std::to_string(from) + ", v" + std::to_string(from + 1) +
                 ").\n";
    }
  }
  for (int p = 0; p < peers; ++p) {
    std::string self = "peer" + std::to_string(p);
    program += "path@" + self + "(X, Y) :- edge@" + self + "(X, Y).\n";
    program += "path@" + self + "(X, Y) :- edge@" + self + "(X, Z), path@" +
               self + "(Z, Y).\n";
    if (p + 1 < peers) {
      std::string next = "peer" + std::to_string(p + 1);
      program += "path@" + self + "(X, Y) :- edge@" + self +
                 "(X, Z), path@" + next + "(Z, Y).\n";
    }
  }
  return program;
}

// ---- Shared rendering ----------------------------------------------------

/// Canonical answer rendering: identical in every process, so sorted
/// answer lists can be compared byte for byte across sim and real wire.
std::string RenderTuple(const Tuple& tuple, const DatalogContext& ctx) {
  std::string out = "(";
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (i > 0) out += ",";
    out += ctx.arena().ToString(tuple[i], ctx.symbols());
  }
  out += ")";
  return out;
}

std::vector<std::string> RenderAnswers(const std::vector<Tuple>& answers,
                                       const DatalogContext& ctx) {
  std::vector<std::string> out;
  out.reserve(answers.size());
  for (const Tuple& t : answers) out.push_back(RenderTuple(t, ctx));
  std::sort(out.begin(), out.end());
  return out;
}

// ---- Control-plane payloads ----------------------------------------------
// SnapshotWriter/Reader little-endian codecs; one struct per FrameType.

struct HelloPayload {
  uint32_t index = 0;
  std::string host;
  uint32_t port = 0;
};

std::string EncodeHello(const HelloPayload& h) {
  SnapshotWriter w;
  w.U32(h.index);
  w.Str(h.host);
  w.U32(h.port);
  return w.Take();
}

HelloPayload DecodeHello(std::string_view payload) {
  SnapshotReader r(payload);
  HelloPayload h;
  h.index = r.U32();
  h.host = r.Str();
  h.port = r.U32();
  DQSQ_CHECK(r.AtEnd());
  return h;
}

struct StartPayload {
  uint8_t engine = 1;  // 0 = dnaive, 1 = dqsq
  std::string program_text;
  std::string query_text;
  std::vector<SocketAddress> procs;   // index -> process address
  SocketAddress supervisor;           // hosts the ds_root node
  // peer name -> process index, over every peer of the program.
  std::vector<std::pair<std::string, uint32_t>> placement;
  uint32_t your_index = 0;
};

std::string EncodeStart(const StartPayload& s) {
  SnapshotWriter w;
  w.U8(s.engine);
  w.Str(s.program_text);
  w.Str(s.query_text);
  w.U32(static_cast<uint32_t>(s.procs.size()));
  for (const SocketAddress& a : s.procs) {
    w.Str(a.host);
    w.U32(a.port);
  }
  w.Str(s.supervisor.host);
  w.U32(s.supervisor.port);
  w.U32(static_cast<uint32_t>(s.placement.size()));
  for (const auto& [name, proc] : s.placement) {
    w.Str(name);
    w.U32(proc);
  }
  w.U32(s.your_index);
  return w.Take();
}

StartPayload DecodeStart(std::string_view payload) {
  SnapshotReader r(payload);
  StartPayload s;
  s.engine = r.U8();
  s.program_text = r.Str();
  s.query_text = r.Str();
  uint32_t n_procs = r.U32();
  for (uint32_t i = 0; i < n_procs; ++i) {
    SocketAddress a;
    a.host = r.Str();
    a.port = static_cast<uint16_t>(r.U32());
    s.procs.push_back(std::move(a));
  }
  s.supervisor.host = r.Str();
  s.supervisor.port = static_cast<uint16_t>(r.U32());
  uint32_t n_names = r.U32();
  for (uint32_t i = 0; i < n_names; ++i) {
    std::string name = r.Str();
    uint32_t proc = r.U32();
    s.placement.emplace_back(std::move(name), proc);
  }
  s.your_index = r.U32();
  DQSQ_CHECK(r.AtEnd());
  return s;
}

struct ReportPayload {
  uint32_t index = 0;
  std::vector<std::string> answers;  // rendered + sorted; empty unless the
                                     // process hosts the query-owner peer
  uint64_t total_facts = 0;
  std::vector<std::pair<std::string, uint64_t>> relation_counts;
  uint64_t frames_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t framing_errors = 0;
};

std::string EncodeReport(const ReportPayload& p) {
  SnapshotWriter w;
  w.U32(p.index);
  w.U32(static_cast<uint32_t>(p.answers.size()));
  for (const std::string& a : p.answers) w.Str(a);
  w.U64(p.total_facts);
  w.U32(static_cast<uint32_t>(p.relation_counts.size()));
  for (const auto& [name, count] : p.relation_counts) {
    w.Str(name);
    w.U64(count);
  }
  w.U64(p.frames_sent);
  w.U64(p.bytes_sent);
  w.U64(p.framing_errors);
  return w.Take();
}

ReportPayload DecodeReport(std::string_view payload) {
  SnapshotReader r(payload);
  ReportPayload p;
  p.index = r.U32();
  uint32_t n_answers = r.U32();
  for (uint32_t i = 0; i < n_answers; ++i) p.answers.push_back(r.Str());
  p.total_facts = r.U64();
  uint32_t n_rels = r.U32();
  for (uint32_t i = 0; i < n_rels; ++i) {
    std::string name = r.Str();
    uint64_t count = r.U64();
    p.relation_counts.emplace_back(std::move(name), count);
  }
  p.frames_sent = r.U64();
  p.bytes_sent = r.U64();
  p.framing_errors = r.U64();
  DQSQ_CHECK(r.AtEnd());
  return p;
}

// ---- Peer mode -----------------------------------------------------------

int RunPeer(const Args& args) {
  if (args.index < 0 || args.supervisor.empty()) {
    std::fprintf(stderr, "peer mode needs --index and --supervisor\n");
    return 2;
  }
  auto sup = ParseAddress(args.supervisor);
  if (!sup.ok()) {
    std::fprintf(stderr, "%s\n", sup.status().ToString().c_str());
    return 2;
  }

  DatalogContext ctx;
  SocketNetwork net(ctx);
  Status status = net.Listen("127.0.0.1", 0);
  if (!status.ok()) {
    std::fprintf(stderr, "peer %d: %s\n", args.index,
                 status.ToString().c_str());
    return 1;
  }

  // State built when kStart arrives.
  std::map<SymbolId, std::unique_ptr<DatalogPeer>> local;
  std::optional<ParsedQuery> query;
  Cluster::Mode mode = Cluster::Mode::kSourceOnly;
  bool done = false;

  net.SetControlHandler([&](const Frame& frame, uint64_t conn_id) -> Status {
    switch (frame.type) {
      case FrameType::kStart: {
        StartPayload start = DecodeStart(frame.payload);
        mode = start.engine == 0 ? Cluster::Mode::kEvaluate
                                 : Cluster::Mode::kSourceOnly;
        DQSQ_ASSIGN_OR_RETURN(Program program,
                              ParseProgram(start.program_text, ctx));
        DQSQ_ASSIGN_OR_RETURN(ParsedQuery parsed,
                              ParseQuery(start.query_text, ctx));
        query = std::move(parsed);
        for (const auto& [name, proc] : start.placement) {
          SymbolId id = ctx.symbols().Intern(name);
          if (proc == start.your_index) {
            auto peer = std::make_unique<DatalogPeer>(id, &ctx, EvalOptions());
            net.Register(id, peer.get());
            local.emplace(id, std::move(peer));
          } else {
            net.SetAddress(name, start.procs.at(proc));
          }
        }
        net.SetAddress("ds_root", start.supervisor);
        for (const Rule& rule : program.rules) {
          auto owner = local.find(rule.head.rel.peer);
          if (owner != local.end()) {
            InstallRuleAt(*owner->second, rule, mode, ctx);
          }
        }
        return Status::Ok();
      }
      case FrameType::kReportRequest: {
        ReportPayload report;
        report.index = static_cast<uint32_t>(args.index);
        if (query.has_value()) {
          auto owner = local.find(query->atom.rel.peer);
          if (owner != local.end()) {
            report.answers = RenderAnswers(
                Ask(owner->second->db(), AnswerAtom(ctx, *query, mode),
                    query->num_vars),
                ctx);
          }
        }
        for (const auto& [id, peer] : local) {
          const Database& db = peer->db();
          report.total_facts += db.TotalFacts();
          for (const RelId& rel : db.Relations()) {
            report.relation_counts.emplace_back(
                ctx.PredicateName(rel.pred) + "@" + ctx.symbols().Name(id),
                db.Find(rel)->size());
          }
        }
        report.frames_sent = net.stats().frames_sent;
        report.bytes_sent = net.stats().bytes_sent;
        report.framing_errors = net.stats().framing_errors;
        return net.SendControlOn(conn_id, FrameType::kReportReply,
                                 EncodeReport(report));
      }
      case FrameType::kShutdown:
        done = true;
        return Status::Ok();
      default:
        return InvalidArgumentError("peer got unexpected control frame type " +
                                    std::to_string(int(frame.type)));
    }
  });

  HelloPayload hello{static_cast<uint32_t>(args.index), "127.0.0.1",
                     net.listen_port()};
  status = net.SendControl(*sup, FrameType::kHello, EncodeHello(hello));
  while (status.ok() && !done) status = net.Pump(50);
  if (!status.ok()) {
    std::fprintf(stderr, "peer %d: %s\n", args.index,
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}

// ---- Supervisor mode -----------------------------------------------------

struct ChildProc {
  pid_t pid = -1;
  bool alive = true;
};

Status CheckChildren(std::vector<ChildProc>& children) {
  for (ChildProc& child : children) {
    if (!child.alive) continue;
    int wstatus = 0;
    if (waitpid(child.pid, &wstatus, WNOHANG) == child.pid) {
      child.alive = false;
      return InternalError("peer process " + std::to_string(child.pid) +
                           " exited prematurely (wait status " +
                           std::to_string(wstatus) + ")");
    }
  }
  return Status::Ok();
}

/// Pumps the supervisor's network until `pred` holds, watching the clock
/// and the children: a dead peer process fails the phase immediately
/// instead of timing out.
Status PumpPhase(SocketNetwork& net, std::vector<ChildProc>& children,
                 const std::function<bool()>& pred, int timeout_ms,
                 const std::string& what) {
  const uint64_t deadline_ns =
      SteadyClock::Default().NowNs() + uint64_t{1'000'000} * timeout_ms;
  while (!pred()) {
    DQSQ_RETURN_IF_ERROR(CheckChildren(children));
    if (SteadyClock::Default().NowNs() >= deadline_ns) {
      return ResourceExhaustedError(what + " timed out after " +
                                    std::to_string(timeout_ms) + "ms");
    }
    DQSQ_RETURN_IF_ERROR(net.Pump(20));
  }
  return Status::Ok();
}

StatusOr<pid_t> SpawnPeer(const std::string& supervisor_address, int index) {
  pid_t pid = fork();
  if (pid < 0) return InternalError("fork: " + std::string(strerror(errno)));
  if (pid == 0) {
    std::string sup = "--supervisor=" + supervisor_address;
    std::string idx = "--index=" + std::to_string(index);
    const char* child_argv[] = {"cluster_main", "--mode=peer", sup.c_str(),
                                idx.c_str(), nullptr};
    execv("/proc/self/exe", const_cast<char**>(child_argv));
    std::fprintf(stderr, "execv(/proc/self/exe): %s\n", strerror(errno));
    _exit(127);
  }
  return pid;
}

void ShutdownChildren(SocketNetwork& net,
                      const std::map<uint32_t, uint64_t>& hello_conns,
                      std::vector<ChildProc>& children) {
  for (const auto& [index, conn_id] : hello_conns) {
    (void)net.SendControlOn(conn_id, FrameType::kShutdown, "");
  }
  const uint64_t deadline_ns =
      SteadyClock::Default().NowNs() + uint64_t{2'000'000'000};
  auto any_alive = [&] {
    for (ChildProc& child : children) {
      if (!child.alive) continue;
      if (waitpid(child.pid, nullptr, WNOHANG) == child.pid) {
        child.alive = false;
      }
    }
    for (const ChildProc& child : children) {
      if (child.alive) return true;
    }
    return false;
  };
  while (any_alive() && SteadyClock::Default().NowNs() < deadline_ns) {
    (void)net.Pump(10);  // flush the shutdown frames
  }
  for (ChildProc& child : children) {
    if (!child.alive) continue;
    kill(child.pid, SIGKILL);
    waitpid(child.pid, nullptr, 0);
    child.alive = false;
  }
}

struct ClusterRunResult {
  std::vector<std::string> answers;  // sorted rendered tuples
  uint64_t total_facts = 0;
  std::vector<ReportPayload> reports;       // one per process, by index
  SocketStats supervisor_stats;
  uint64_t wall_ns = 0;
};

/// The whole supervisor protocol: spawn, hello, start, seed, terminate,
/// report, shutdown. `args.procs` peer processes on localhost.
StatusOr<ClusterRunResult> RunCluster(const Args& args,
                                      const std::string& program_text,
                                      Cluster::Mode mode) {
  const auto wall_start = std::chrono::steady_clock::now();
  DatalogContext ctx;
  DQSQ_ASSIGN_OR_RETURN(Program program, ParseProgram(program_text, ctx));
  DQSQ_ASSIGN_OR_RETURN(ParsedQuery query, ParseQuery(args.query, ctx));
  for (const Rule& rule : program.rules) {
    if (!rule.negative.empty()) {
      return UnimplementedError(
          "distributed evaluation supports positive dDatalog only");
    }
  }

  SocketNetwork net(ctx);
  DQSQ_RETURN_IF_ERROR(
      net.Listen(args.host, static_cast<uint16_t>(args.port)));
  SocketAddress self{args.host, net.listen_port()};

  RootNode root(ctx.symbols().Intern("ds_root"));
  net.Register(root.id(), &root);

  std::map<uint32_t, SocketAddress> peer_addresses;  // index -> address
  std::map<uint32_t, uint64_t> hello_conns;          // index -> connection
  std::vector<ReportPayload> reports;
  net.SetControlHandler([&](const Frame& frame, uint64_t conn_id) -> Status {
    switch (frame.type) {
      case FrameType::kHello: {
        HelloPayload hello = DecodeHello(frame.payload);
        peer_addresses[hello.index] =
            SocketAddress{hello.host, static_cast<uint16_t>(hello.port)};
        hello_conns[hello.index] = conn_id;
        return Status::Ok();
      }
      case FrameType::kReportReply:
        reports.push_back(DecodeReport(frame.payload));
        return Status::Ok();
      default:
        return InvalidArgumentError(
            "supervisor got unexpected control frame type " +
            std::to_string(int(frame.type)));
    }
  });

  std::vector<ChildProc> children;
  for (int i = 0; i < args.procs; ++i) {
    DQSQ_ASSIGN_OR_RETURN(pid_t pid, SpawnPeer(self.ToString(), i));
    children.push_back(ChildProc{pid});
  }
  Status status = PumpPhase(
      net, children,
      [&] { return peer_addresses.size() == size_t(args.procs); },
      args.timeout_ms, "peer handshake");

  if (status.ok()) {
    // Deterministic placement: round-robin over the sorted peer names.
    std::vector<std::string> names;
    for (SymbolId id : ProgramPeers(program, query)) {
      names.push_back(ctx.symbols().Name(id));
    }
    std::sort(names.begin(), names.end());
    StartPayload start;
    start.engine = mode == Cluster::Mode::kEvaluate ? 0 : 1;
    start.program_text = program_text;
    start.query_text = args.query;
    for (int i = 0; i < args.procs; ++i) {
      start.procs.push_back(peer_addresses.at(i));
    }
    start.supervisor = self;
    for (size_t i = 0; i < names.size(); ++i) {
      uint32_t proc = static_cast<uint32_t>(i % args.procs);
      start.placement.emplace_back(names[i], proc);
      net.SetAddress(names[i], peer_addresses.at(proc));
    }
    for (int i = 0; i < args.procs && status.ok(); ++i) {
      start.your_index = static_cast<uint32_t>(i);
      status = net.SendControlOn(hello_conns.at(i), FrameType::kStart,
                                 EncodeStart(start));
    }
  }

  if (status.ok()) {
    for (Message& m : SeedDemandMessages(ctx, query, root.id(), mode)) {
      root.SendBasic(std::move(m), net);
    }
    status = PumpPhase(net, children, [&] { return root.terminated(); },
                       args.timeout_ms, "termination detection");
  }

  if (status.ok()) {
    for (int i = 0; i < args.procs && status.ok(); ++i) {
      status = net.SendControlOn(hello_conns.at(i), FrameType::kReportRequest,
                                 std::string_view());
    }
  }
  if (status.ok()) {
    status = PumpPhase(net, children,
                       [&] { return reports.size() == size_t(args.procs); },
                       args.timeout_ms, "report collection");
  }

  ShutdownChildren(net, hello_conns, children);
  DQSQ_RETURN_IF_ERROR(status);

  ClusterRunResult result;
  std::sort(reports.begin(), reports.end(),
            [](const ReportPayload& a, const ReportPayload& b) {
              return a.index < b.index;
            });
  for (const ReportPayload& report : reports) {
    result.answers.insert(result.answers.end(), report.answers.begin(),
                          report.answers.end());
    result.total_facts += report.total_facts;
  }
  std::sort(result.answers.begin(), result.answers.end());
  result.reports = std::move(reports);
  result.supervisor_stats = net.stats();
  result.wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  return result;
}

// ---- Simulated reference run ---------------------------------------------

struct SimRun {
  std::vector<std::string> answers;  // sorted rendered tuples
  DistResult result;
  uint64_t wall_ns = 0;
};

StatusOr<SimRun> RunSim(const Args& args, const std::string& program_text,
                        Cluster::Mode mode) {
  const auto wall_start = std::chrono::steady_clock::now();
  DatalogContext ctx;
  DQSQ_ASSIGN_OR_RETURN(Program program, ParseProgram(program_text, ctx));
  DQSQ_ASSIGN_OR_RETURN(ParsedQuery query, ParseQuery(args.query, ctx));
  DistOptions options;
  options.seed = args.seed;
  SimRun run;
  if (mode == Cluster::Mode::kEvaluate) {
    DQSQ_ASSIGN_OR_RETURN(run.result,
                          DistNaiveSolve(ctx, program, query, options));
  } else {
    DQSQ_ASSIGN_OR_RETURN(run.result,
                          DistQsqSolve(ctx, program, query, options));
  }
  run.answers = RenderAnswers(run.result.answers, ctx);
  run.wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
  return run;
}

/// The E6 distributed-diagnosability workload: a seeded random net with
/// fault transitions, compiled to the twin-plant verifier program
/// (diagnosis/diagnosability.h). Sets args.query to the witness query —
/// the run answers "diagnosable?" with answers == 0 meaning yes.
std::string DiagProgramText(Args& args) {
  petri::RandomNetOptions options;
  options.num_peers = static_cast<uint32_t>(args.net_peers);
  options.transitions_per_peer = static_cast<uint32_t>(args.net_transitions);
  options.hidden_probability = 0.3;
  options.fault_fraction = args.fault_fraction;
  Rng rng(args.seed);
  petri::PetriNet net = petri::MakeRandomNet(options, rng);
  auto verifier = petri::VerifierNet::Build(net);
  DQSQ_CHECK_OK(verifier.status());
  auto text = diagnosis::BuildVerifierProgramText(*verifier);
  DQSQ_CHECK_OK(text.status());
  args.query = text->query;
  return text->program;
}

std::string LoadProgramText(Args& args) {
  if (!args.program_path.empty()) {
    std::ifstream in(args.program_path);
    DQSQ_CHECK(in.good()) << "cannot read program file " << args.program_path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }
  if (args.workload == "diag") return DiagProgramText(args);
  DQSQ_CHECK(args.workload == "chain")
      << "unknown --workload=" << args.workload;
  return ChainProgramText(args.chain_peers, args.chain_edges);
}

int RunSupervisor(const Args& args_in) {
  Args args = args_in;
  Cluster::Mode mode = args.engine == "dnaive" ? Cluster::Mode::kEvaluate
                                               : Cluster::Mode::kSourceOnly;
  std::string program_text = LoadProgramText(args);
  auto real = RunCluster(args, program_text, mode);
  if (!real.ok()) {
    std::fprintf(stderr, "cluster run failed: %s\n",
                 real.status().ToString().c_str());
    return 1;
  }

  bool checked = false;
  bool answers_match = false;
  uint64_t sim_answers = 0;
  if (args.check_against_sim) {
    auto sim = RunSim(args, program_text, mode);
    if (!sim.ok()) {
      std::fprintf(stderr, "sim reference run failed: %s\n",
                   sim.status().ToString().c_str());
      return 1;
    }
    checked = true;
    answers_match = sim->answers == real->answers;
    sim_answers = sim->answers.size();
  }

  // JSON report on stdout: the cluster launcher and the CI smoke job
  // parse this.
  std::string json = "{\n";
  json += "  \"engine\": " + JsonQuote(args.engine) + ",\n";
  json += "  \"procs\": " + std::to_string(args.procs) + ",\n";
  json += "  \"query\": " + JsonQuote(args.query) + ",\n";
  json += "  \"answers\": " + std::to_string(real->answers.size()) + ",\n";
  json += "  \"total_facts\": " + std::to_string(real->total_facts) + ",\n";
  uint64_t bytes_sent = real->supervisor_stats.bytes_sent;
  uint64_t frames_sent = real->supervisor_stats.frames_sent;
  uint64_t framing_errors = real->supervisor_stats.framing_errors;
  for (const ReportPayload& report : real->reports) {
    bytes_sent += report.bytes_sent;
    frames_sent += report.frames_sent;
    framing_errors += report.framing_errors;
  }
  json += "  \"wire_bytes_sent\": " + std::to_string(bytes_sent) + ",\n";
  json += "  \"wire_frames_sent\": " + std::to_string(frames_sent) + ",\n";
  json += "  \"framing_errors\": " + std::to_string(framing_errors) + ",\n";
  if (checked) {
    json += "  \"sim_answers\": " + std::to_string(sim_answers) + ",\n";
    json += std::string("  \"answers_match_sim\": ") +
            (answers_match ? "true" : "false") + ",\n";
  }
  json += "  \"wall_ns\": " + std::to_string(real->wall_ns) + "\n";
  json += "}\n";
  std::fputs(json.c_str(), stdout);

  if (checked && !answers_match) {
    std::fprintf(stderr,
                 "ANSWER MISMATCH: real wire produced %zu answers, sim "
                 "produced %llu\n",
                 real->answers.size(),
                 static_cast<unsigned long long>(sim_answers));
    for (const ReportPayload& report : real->reports) {
      for (const auto& [name, count] : report.relation_counts) {
        std::fprintf(stderr, "  proc %u: %s = %llu\n", report.index,
                     name.c_str(), static_cast<unsigned long long>(count));
      }
    }
    return 1;
  }
  return 0;
}

// ---- Bench mode: the E3_realwire experiment ------------------------------

int RunBench(const Args& args_in) {
  Args args = args_in;
  struct EngineRow {
    std::string engine;
    SimRun sim;
    ClusterRunResult real;
    bool match = false;
  };
  std::vector<EngineRow> rows;
  for (const std::string& engine : {std::string("dnaive"),
                                    std::string("dqsq")}) {
    args.engine = engine;
    Cluster::Mode mode = engine == "dnaive" ? Cluster::Mode::kEvaluate
                                            : Cluster::Mode::kSourceOnly;
    std::string program_text = LoadProgramText(args);
    auto sim = RunSim(args, program_text, mode);
    if (!sim.ok()) {
      std::fprintf(stderr, "sim %s failed: %s\n", engine.c_str(),
                   sim.status().ToString().c_str());
      return 1;
    }
    auto real = RunCluster(args, program_text, mode);
    if (!real.ok()) {
      std::fprintf(stderr, "real-wire %s failed: %s\n", engine.c_str(),
                   real.status().ToString().c_str());
      return 1;
    }
    EngineRow row{engine, std::move(*sim), std::move(*real)};
    row.match = row.sim.answers == row.real.answers;
    rows.push_back(std::move(row));
    std::fprintf(stderr,
                 "E3_realwire %s: %zu answers (match=%d), real wire %zu "
                 "bytes / %zu frames from supervisor, wall sim=%lluns "
                 "real=%lluns\n",
                 engine.c_str(), rows.back().real.answers.size(),
                 rows.back().match, rows.back().real.supervisor_stats.bytes_sent,
                 rows.back().real.supervisor_stats.frames_sent,
                 static_cast<unsigned long long>(rows.back().sim.wall_ns),
                 static_cast<unsigned long long>(rows.back().real.wall_ns));
  }

  // Hand-written report in the BenchReporter schema (docs/METRICS.md).
  // Only deterministic values outside *_ns params: the simulated counts
  // are seeded and exact, real-wire byte/message counts depend on OS
  // scheduling and stay out of the baseline (they are printed above).
  const DistResult& dnaive = rows[0].sim.result;
  std::string json = "{\n  \"schema_version\": 1,\n";
  json += "  \"experiment\": \"E3_realwire\",\n";
  json += "  \"params\": {";
  json += "\"workload\": \"distributed_chain\", ";
  json += "\"query\": " + JsonQuote(args.query) + ", ";
  json += "\"procs\": " + std::to_string(args.procs) + ", ";
  json += "\"chain_peers\": " + std::to_string(args.chain_peers) + ", ";
  json += "\"chain_edges\": " + std::to_string(args.chain_edges) + ", ";
  json += "\"seed\": " + std::to_string(args.seed) + ", ";
  for (const EngineRow& row : rows) {
    json += "\"answers_" + row.engine + "\": " +
            std::to_string(row.real.answers.size()) + ", ";
    json += "\"answers_match_" + row.engine + "\": " +
            (row.match ? std::string("true") : std::string("false")) + ", ";
    json += "\"sim_" + row.engine + "_ns\": " +
            std::to_string(row.sim.wall_ns) + ", ";
    json += "\"real_" + row.engine + "_ns\": " +
            std::to_string(row.real.wall_ns) + ", ";
  }
  json.resize(json.size() - 2);  // trailing ", "
  json += "},\n";
  uint64_t wall = 0;
  for (const EngineRow& row : rows) wall += row.sim.wall_ns + row.real.wall_ns;
  json += "  \"wall_time_ns\": " + std::to_string(wall) + ",\n";
  json += "  \"summary\": {\n";
  json += "    \"facts_derived\": " + std::to_string(dnaive.total_facts) +
          ",\n";
  json += "    \"unfolding_events\": 0,\n";
  json += "    \"unfolding_conditions\": 0,\n";
  json += "    \"messages_delivered\": " +
          std::to_string(dnaive.net_stats.messages_delivered) + ",\n";
  json += "    \"tuples_shipped\": " +
          std::to_string(dnaive.net_stats.tuples_shipped) + ",\n";
  json += "    \"per_peer_messages\": {}\n";
  json += "  },\n";
  json += "  \"metrics\": {\"schema_version\":1,\"metrics\":[]}\n";
  json += "}\n";

  const char* out_dir = getenv("DQSQ_BENCH_OUT_DIR");
  std::string path = std::string(out_dir != nullptr ? out_dir : ".") +
                     "/BENCH_E3_realwire.json";
  std::ofstream out(path);
  DQSQ_CHECK(out.good()) << "cannot write " << path;
  out << json;
  out.close();
  std::fprintf(stderr, "wrote %s\n", path.c_str());

  for (const EngineRow& row : rows) {
    if (!row.match) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dqsq::dist

int main(int argc, char** argv) {
  auto args = dqsq::dist::ParseArgs(argc, argv);
  if (!args.has_value()) return 2;
  if (args->mode == "peer") return dqsq::dist::RunPeer(*args);
  if (args->mode == "supervisor") return dqsq::dist::RunSupervisor(*args);
  if (args->mode == "bench") return dqsq::dist::RunBench(*args);
  std::fprintf(stderr, "unknown --mode=%s (peer|supervisor|bench)\n",
               args->mode.c_str());
  return 2;
}
