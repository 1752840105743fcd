// serve_ingest: fwdecayd runs as its own process on a fresh data dir and
// is driven through server::Client. After a closed-loop warm-up, the run
// repeats short cycles: two ingest connections send 1024-packet batches
// open-loop at a fixed nominal rate, then closed-loop (back to back);
// then the groupby result is read in a quiet gap. A third connection
// polls the groupby result beside the nominal sends and reads Stats at
// a fixed rate throughout. fsync and fdatasync are stubbed out in the
// daemon (a preloaded library), so the served numbers follow the
// daemon's own work rather than a shared disk.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "dsms/engine.h"
#include "server/client.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

using fwdecay::dsms::CompiledQuery;
using fwdecay::dsms::PacketBatch;
using fwdecay::dsms::ResultSet;
using fwdecay::dsms::Value;
using fwdecay::server::Client;

constexpr std::size_t kPoolBatches = 1024;
constexpr char kTenant[] = "bench";
// fwdecayd registers only the built-in aggregates (it never calls
// RegisterPaperUdafs), so the second served plan is the paper's
// polynomially decayed sum rather than FDHH.
constexpr char kDecayedQuery[] =
    "select tb, count(*), sum(len*(time % 60)*(time % 60)) from TCP "
    "group by time/60 as tb";
// The tenant policy, also used by the in-process replay oracle: the
// daemon's default alpha and landmark, and a group budget (fwdecayd
// --max-groups) that holds every group of the pool (about 11 k), so the
// groupby plan never sheds. Under the default budget of 4096 each new
// group sheds through a full-table min scan; that scan then dominates
// apply, and its memory-bound cost varied 295-480 us per batch between
// identical in-process runs on a shared host.
constexpr std::size_t kTenantMaxGroups = 65536;
constexpr double kTenantAlpha = 0.05;
constexpr double kTenantLandmark = 0.0;

// The measured run is a sequence of cycles. Each cycle offers
// kNominalBatchesPerS over both ingest connections open-loop for its
// first kNominalEnd share (well below what the daemon can apply; ack,
// poll and freshness latencies are reported there), sends closed-loop
// until kSaturationEnd (the acked rate is the served throughput), and
// leaves the rest quiet for reads of the groupby result (the served
// "finish"). Load from other tenants of a shared machine comes in bursts
// of a second or so; with every measurement spread over many short
// cycles and reported as a median, a burst moves a few cycles, not the
// run.
constexpr double kCycleSeconds = 2.0;
constexpr double kNominalBatchesPerS = 100.0;
constexpr double kNominalEnd = 0.7;     // of a cycle
constexpr double kSaturationEnd = 0.9;  // of a cycle
constexpr int kGroupbyReadsPerCycle = 2;
// In the saturation phase each ingest connection writes this many
// frames ahead of their acks, so the daemon's next batch is already
// waiting in its socket when it acks one. Sent one at a time, each batch
// would also wait for the client's wake-up, encode and send, and the
// acked rate would be two batches per client round trip.
constexpr std::size_t kPipelineDepth = 4;
// Socket deadline of the pipelined sends, the client's default.
constexpr int kIoTimeoutMs = 70'000;
// The served throughput is the median over equal slices of every
// saturation phase, counted by ack time, so a burst of load from other
// tenants moves a few slices rather than a whole cycle.
constexpr std::int64_t kSaturationSlices = 6;
// Batches sent closed-loop before anything is measured: the whole pool,
// so the groupby plan's table already holds every group of the pool.
// (With half the pool, the first cycle's polls cloned about two thirds
// of the groups and ran 40 % faster than the rest.)
constexpr std::size_t kWarmupBatches = kPoolBatches;
// In the nominal phase the poller reads the groupby result (a clone of
// about 11 k groups) and then Stats every tick; in the saturation phase
// it reads Stats only, so no clone holds the daemon lock while the
// served throughput is measured. A read of the groupby result is mostly
// the daemon's own work; a read of the one-group decayed-sum result
// takes about 0.17 ms, mostly thread wake-ups, whose cost follows the
// host's load (its quartile distance across runs exceeded half its
// median). The ticks fall a quarter period away from the nominal sends
// (one every 10 ms), so a poll does not race a send due at the same
// instant for the daemon lock.
constexpr double kPollIntervalMs = 100.0;
constexpr double kPollPhaseMs = 250.0 / kNominalBatchesPerS;
constexpr int kSetupRepeats = 9;

/// fwdecayd child process: spawned with its stdout on a pipe so the
/// listening lines can be read back; stopped with SIGTERM and waited.
class DaemonProc {
 public:
  DaemonProc() = default;
  ~DaemonProc() { Stop(); }
  DaemonProc(const DaemonProc&) = delete;
  DaemonProc& operator=(const DaemonProc&) = delete;

  // `preload` is put in the child's LD_PRELOAD.
  bool Start(const std::string& bin, const std::string& preload,
             const std::string& data_dir, std::string* err) {
    int fds[2];
    if (pipe(fds) != 0) {
      *err = "pipe failed";
      return false;
    }
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    std::vector<std::string> args = {bin, "--data-dir", data_dir, "--port", "0",
                                     "--metrics-port", "0", "--max-groups",
                                     std::to_string(kTenantMaxGroups)};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::string preload_var = "LD_PRELOAD=" + preload;
    std::vector<char*> envp;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "LD_PRELOAD=", 11) != 0) envp.push_back(*e);
    }
    envp.push_back(preload_var.data());
    envp.push_back(nullptr);
    const int rc =
        posix_spawn(&pid_, bin.c_str(), &fa, nullptr, argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      *err = "cannot spawn " + bin + ": " + std::strerror(rc);
      return false;
    }
    std::string text;
    const std::int64_t deadline = NowNs() + 20'000'000'000LL;
    while (text.find("/metrics") == std::string::npos) {
      const std::int64_t left_ms = (deadline - NowNs()) / 1'000'000;
      if (left_ms <= 0) {
        *err = "fwdecayd did not print its listening lines";
        return false;
      }
      struct pollfd pfd = {out_fd_, POLLIN, 0};
      if (poll(&pfd, 1, static_cast<int>(left_ms)) <= 0) continue;
      char buf[256];
      const ssize_t n = read(out_fd_, buf, sizeof(buf));
      if (n <= 0) {
        *err = "fwdecayd exited during start-up";
        return false;
      }
      text.append(buf, static_cast<std::size_t>(n));
    }
    port_ = PortAfter(text, "listening on 127.0.0.1:");
    metrics_port_ = PortAfter(text, "metrics on http://127.0.0.1:");
    if (port_ == 0 || metrics_port_ == 0) {
      *err = "cannot parse fwdecayd ports";
      return false;
    }
    return true;
  }

  void Stop() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      int status = 0;
      const std::int64_t deadline = NowNs() + 30'000'000'000LL;
      while (waitpid(pid_, &status, WNOHANG) == 0) {
        if (NowNs() > deadline) {
          kill(pid_, SIGKILL);
          waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      close(out_fd_);
      out_fd_ = -1;
    }
  }

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }
  std::uint16_t metrics_port() const { return metrics_port_; }

 private:
  static std::uint16_t PortAfter(const std::string& text, const char* marker) {
    const std::size_t at = text.find(marker);
    if (at == std::string::npos) return 0;
    return static_cast<std::uint16_t>(
        std::strtoul(text.c_str() + at + std::strlen(marker), nullptr, 10));
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint16_t metrics_port_ = 0;
};

// GET /metrics over loopback; returns name{labels} -> value.
std::map<std::string, double> ScrapeMetrics(std::uint16_t port) {
  std::map<std::string, double> out;
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return out;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string body;
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    const std::string req = "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
    if (write(fd, req.data(), req.size()) == static_cast<ssize_t>(req.size())) {
      char buf[4096];
      for (;;) {
        struct pollfd pfd = {fd, POLLIN, 0};
        if (poll(&pfd, 1, 5000) <= 0) break;
        const ssize_t n = read(fd, buf, sizeof(buf));
        if (n <= 0) break;
        body.append(buf, static_cast<std::size_t>(n));
      }
    }
  }
  close(fd);
  std::size_t pos = body.find("\r\n\r\n");
  pos = pos == std::string::npos ? body.size() : pos + 4;
  while (pos < body.size()) {
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    const std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

// Adds one to a numeric cell, keeping its type.
void Bump(Value* v) {
  *v = v->is_int() ? Value(v->AsInt() + 1) : Value(v->AsDouble() + 1.0);
}

bool SameResult(const ResultSet& a, const ResultSet& b) {
  if (a.columns != b.columns || a.rows.size() != b.rows.size()) return false;
  for (std::size_t r = 0; r < a.rows.size(); ++r) {
    if (a.rows[r].size() != b.rows[r].size()) return false;
    for (std::size_t c = 0; c < a.rows[r].size(); ++c) {
      if (!(a.rows[r][c] == b.rows[r][c])) return false;
    }
  }
  return true;
}

enum class Phase : std::uint8_t { kWarmup, kNominal, kSaturation };

// One ingest batch and what became of it. Times are relative to the
// start of the measured cycles.
struct Sent {
  Phase phase = Phase::kWarmup;
  std::size_t cycle = 0;
  std::size_t pool_index = 0;
  std::int64_t due_ns = 0;  // the schedule's time (closed-loop: send time)
  std::int64_t send_ns = 0;
  std::int64_t reply_ns = 0;
  bool acked = false;
  std::uint64_t global_seq = 0;
};

struct PollRecord {
  std::size_t cycle = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool ok = false;
};

// The three client connections of one served run.
struct Session {
  Client ingest[2];
  Client control;
  std::uint64_t gb_id = 0;
  std::uint64_t decayed_id = 0;
};

// Connects and says hello on all three connections, then registers the
// two queries on the control connection. False with *err on failure.
bool OpenSession(const DaemonProc& d, Session* s, TraceBuffer* tb,
                 Tracer* tracer, std::string* err) {
  const std::uint32_t n_connect = tracer->Name("client.connect");
  const std::uint32_t n_hello = tracer->Name("client.hello");
  const std::uint32_t n_register = tracer->Name("client.register");
  Client* clients[3] = {&s->ingest[0], &s->ingest[1], &s->control};
  for (Client* c : clients) {
    c->set_timeout_ms(20'000);
    {
      ScopedSpan sp(tb, n_connect);
      if (!c->Connect(d.port(), err)) return false;
    }
    ScopedSpan sp(tb, n_hello);
    if (!c->Hello(kTenant, err)) return false;
  }
  fwdecay::server::ErrCode code = fwdecay::server::ErrCode::kNone;
  ScopedSpan sp(tb, n_register);
  if (!s->control.RegisterQuery("groupby", kGroupbyQuery, /*two_level=*/true,
                                &s->gb_id, &code, err) ||
      !s->control.RegisterQuery("decayed_sum", kDecayedQuery,
                                /*two_level=*/false, &s->decayed_id, &code,
                                err)) {
    return false;
  }
  return true;
}

}  // namespace

Outcome RunServe(const RunConfig& cfg, Tracer* tracer) {
  Outcome out;
  const std::vector<PacketBatch> pool = GroupbyTrace(cfg.seed, kPoolBatches);
  // Cycle c spans [c * cycle_ns, (c + 1) * cycle_ns) after t0; its
  // nominal and saturation phases end at nominal_ns and saturation_ns
  // into the cycle.
  const auto cycles = static_cast<std::size_t>(
      std::max(1.0, std::round(cfg.seconds / kCycleSeconds)));
  const auto cycle_ns = static_cast<std::int64_t>(
      cfg.seconds / static_cast<double>(cycles) * 1e9);
  const auto nominal_ns =
      static_cast<std::int64_t>(static_cast<double>(cycle_ns) * kNominalEnd);
  const auto saturation_ns = static_cast<std::int64_t>(
      static_cast<double>(cycle_ns) * kSaturationEnd);
  const auto nominal_slots =
      static_cast<std::size_t>(NsToS(nominal_ns) * kNominalBatchesPerS);

  TraceBuffer* tb = tracer->NewBuffer();
  const std::uint32_t n_spawn = tracer->Name("bench.spawn_daemon");
  const std::uint32_t n_setup = tracer->Name("bench.setup");
  const std::uint32_t n_ingest = tracer->Name("client.ingest");
  const std::uint32_t n_poll = tracer->Name("client.poll");
  const std::uint32_t n_read = tracer->Name("client.read_groupby");
  const std::uint32_t n_stats = tracer->Name("client.stats");

  // Set-up, repeated: spawn until the listening line, then connect,
  // hello and register. The last daemon serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<DaemonProc> daemon;
  std::unique_ptr<Session> session;
  std::string data_dir;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    session.reset();
    daemon.reset();
    if (!data_dir.empty()) std::filesystem::remove_all(data_dir);
    data_dir = cfg.work_dir + "/serve-data-" + std::to_string(getpid()) + "-" +
               std::to_string(rep);
    std::filesystem::remove_all(data_dir);
    std::filesystem::create_directories(data_dir);
    std::string err;
    ScopedSpan sp(tb, n_setup);
    const std::int64_t s0 = NowNs();
    daemon = std::make_unique<DaemonProc>();
    session = std::make_unique<Session>();
    bool ok = false;
    {
      ScopedSpan spawn_span(tb, n_spawn);
      ok = daemon->Start(cfg.fwdecayd, cfg.nosync_lib, data_dir, &err);
    }
    ok = ok && OpenSession(*daemon, session.get(), tb, tracer, &err);
    if (!ok) {
      out.Fail("serve: set-up failed: " + err);
      session.reset();
      daemon.reset();
      std::filesystem::remove_all(data_dir);
      return out;
    }
    setup_s.push_back(NsToS(NowNs() - s0));
  }

  // --- warm-up, then the measured cycles -------------------------------
  std::vector<Sent> sent[2];
  std::vector<PollRecord> polls;
  std::vector<double> groupby_read_ms;
  std::uint64_t stats_sent = 0, stats_failed = 0, polls_failed = 0;
  std::uint64_t ingest_failed[2] = {0, 0};
  std::uint32_t depth_max = 0;
  std::int64_t t0 = NowNs();
  const auto at = [&](std::int64_t ns) {
    return std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(t0 + ns));
  };

  // Sends one batch on connection `conn` and logs it. False once the
  // connection has failed; the connection then sends no more.
  auto send_one = [&](int conn, TraceBuffer* buf, Phase phase,
                      std::size_t cycle, std::size_t pool_index,
                      std::int64_t due_ns) {
    Sent s;
    s.phase = phase;
    s.cycle = cycle;
    s.pool_index = pool_index;
    s.due_ns = due_ns;
    s.send_ns = NowNs() - t0;
    fwdecay::server::IngestReply reply;
    std::string err;
    bool ok = false;
    {
      ScopedSpan sp(buf, n_ingest);
      ok = session->ingest[conn].Ingest(sent[conn].size(), pool[pool_index],
                                        &reply, &err);
    }
    s.reply_ns = NowNs() - t0;
    if (!ok) {
      ++ingest_failed[conn];
      std::fprintf(stderr, "perfbench: ingest transport failure: %s\n",
                   err.c_str());
    } else if (!reply.ok) {
      ++ingest_failed[conn];
    } else {
      s.acked = true;
      s.global_seq = reply.global_seq;
    }
    sent[conn].push_back(s);
    return ok;
  };
  // Saturation phase of connection `conn`: keeps kPipelineDepth batches
  // in flight until `end_ns` (acks come back in order), then collects the
  // outstanding acks. False once the connection has failed; every batch
  // then in flight counts as failed.
  auto send_pipelined = [&](int conn, TraceBuffer* buf, std::size_t cycle,
                            std::size_t* next, std::int64_t end_ns) {
    fwdecay::server::Socket& sock = session->ingest[conn].raw_socket();
    std::deque<Sent> inflight;
    std::string err;
    const auto fail = [&] {
      std::fprintf(stderr, "perfbench: ingest transport failure: %s\n",
                   err.c_str());
      ingest_failed[conn] += inflight.size();
      sent[conn].insert(sent[conn].end(), inflight.begin(), inflight.end());
      return false;
    };
    for (;;) {
      while (inflight.size() < kPipelineDepth && NowNs() - t0 < end_ns) {
        Sent s;
        s.phase = Phase::kSaturation;
        s.cycle = cycle;
        s.pool_index = *next % pool.size();
        *next += 2;
        s.due_ns = s.send_ns = NowNs() - t0;
        inflight.push_back(s);
        ScopedSpan sp(buf, n_ingest);
        if (fwdecay::server::SendFrame(
                sock, fwdecay::server::MsgType::kIngest,
                fwdecay::server::EncodeIngest(
                    sent[conn].size() + inflight.size() - 1,
                    pool[s.pool_index]),
                kIoTimeoutMs, &err) != fwdecay::server::IoStatus::kOk) {
          return fail();
        }
      }
      if (inflight.empty()) return true;
      fwdecay::server::Frame frame;
      if (fwdecay::server::ReadFrame(sock, &frame, kIoTimeoutMs,
                                     kIoTimeoutMs, &err) !=
          fwdecay::server::FrameReadStatus::kOk) {
        return fail();
      }
      Sent s = inflight.front();
      inflight.pop_front();
      s.reply_ns = NowNs() - t0;
      std::uint64_t echoed = 0;
      if (frame.type == fwdecay::server::MsgType::kAck &&
          fwdecay::server::DecodeAck(frame.payload, &echoed, &s.global_seq) &&
          echoed == sent[conn].size()) {
        s.acked = true;
      } else {
        ++ingest_failed[conn];
      }
      sent[conn].push_back(s);
    }
  };
  auto warmup = [&](int conn) {
    TraceBuffer* buf = tracer->NewBuffer();
    for (std::size_t i = conn; i < kWarmupBatches; i += 2) {
      if (!send_one(conn, buf, Phase::kWarmup, 0, i % pool.size(),
                    NowNs() - t0)) {
        return;
      }
    }
  };
  // Connection `conn` sends every other nominal slot of a cycle at its
  // due time (late if the previous ack came back late), then sends
  // pipelined until the cycle's saturation phase ends.
  auto sender = [&](int conn) {
    TraceBuffer* buf = tracer->NewBuffer();
    std::size_t next = kWarmupBatches + conn;
    for (std::size_t c = 0; c < cycles; ++c) {
      const std::int64_t base = static_cast<std::int64_t>(c) * cycle_ns;
      for (std::size_t k = conn; k < nominal_slots; k += 2, next += 2) {
        const std::int64_t due =
            base + static_cast<std::int64_t>(static_cast<double>(k) /
                                             kNominalBatchesPerS * 1e9);
        std::this_thread::sleep_until(at(due));
        if (!send_one(conn, buf, Phase::kNominal, c, next % pool.size(),
                      due)) {
          return;
        }
      }
      std::this_thread::sleep_until(at(base + nominal_ns));
      if (!send_pipelined(conn, buf, c, &next, base + saturation_ns)) {
        return;
      }
    }
  };
  // Each cycle: in the nominal phase, reads the groupby result and then
  // Stats every tick, starting only polls that end well before the
  // saturation phase; in the saturation phase, reads Stats only; just
  // after it, reads the groupby result kGroupbyReadsPerCycle times (the
  // quiet reads). Ticks restart with each cycle, so every cycle polls at
  // the same offsets.
  auto poller = [&] {
    TraceBuffer* buf = tracer->NewBuffer();
    const auto interval = static_cast<std::int64_t>(kPollIntervalMs * 1e6);
    const auto phase = static_cast<std::int64_t>(kPollPhaseMs * 1e6);
    std::string err;
    ResultSet rs;
    fwdecay::server::ErrCode code = fwdecay::server::ErrCode::kNone;
    const auto stats = [&] {
      fwdecay::server::WireStats st;
      bool ok = false;
      {
        ScopedSpan sp(buf, n_stats);
        ok = session->control.Stats(&st, &err);
      }
      ++stats_sent;
      if (!ok) {
        ++stats_failed;
      } else {
        depth_max = std::max(depth_max, st.queue_depth);
      }
    };
    for (std::size_t c = 0; c < cycles; ++c) {
      const std::int64_t base = static_cast<std::int64_t>(c) * cycle_ns;
      std::int64_t tick = base + phase;
      for (; tick + interval <= base + nominal_ns; tick += interval) {
        std::this_thread::sleep_until(at(tick));
        PollRecord rec;
        rec.cycle = c;
        rec.start_ns = NowNs() - t0;
        {
          ScopedSpan sp(buf, n_poll);
          rec.ok = session->control.PollResult(session->gb_id, &rs, &code,
                                               &err) &&
                   code == fwdecay::server::ErrCode::kNone;
        }
        rec.end_ns = NowNs() - t0;
        if (!rec.ok) ++polls_failed;
        polls.push_back(rec);
        stats();
      }
      for (; tick < base + saturation_ns; tick += interval) {
        if (tick < base + nominal_ns) continue;
        std::this_thread::sleep_until(at(tick));
        stats();
      }
      std::this_thread::sleep_until(at(base + saturation_ns + phase));
      for (int i = 0; i < kGroupbyReadsPerCycle; ++i) {
        ScopedSpan sp(buf, n_read);
        const std::int64_t r0 = NowNs();
        if (session->control.PollResult(session->gb_id, &rs, &code, &err) &&
            code == fwdecay::server::ErrCode::kNone) {
          groupby_read_ms.push_back(NsToMs(NowNs() - r0));
        } else {
          ++polls_failed;
        }
      }
    }
  };
  {
    std::thread w0(warmup, 0);
    std::thread w1(warmup, 1);
    w0.join();
    w1.join();
  }
  const double cpu0 = ProcCpuSeconds(daemon->pid());
  t0 = NowNs() + 20'000'000;  // 20 ms head start
  {
    std::thread poll_thread(poller);
    std::thread s0(sender, 0);
    std::thread s1(sender, 1);
    s0.join();
    s1.join();
    poll_thread.join();
  }
  const double cpu1 = ProcCpuSeconds(daemon->pid());

  // Final reads for the oracle, then the counters.
  ResultSet final_gb, final_decayed;
  {
    fwdecay::server::ErrCode code = fwdecay::server::ErrCode::kNone;
    std::string err;
    if (!session->control.PollResult(session->gb_id, &final_gb, &code,
                                     &err) ||
        code != fwdecay::server::ErrCode::kNone ||
        !session->control.PollResult(session->decayed_id, &final_decayed,
                                     &code, &err) ||
        code != fwdecay::server::ErrCode::kNone) {
      out.Fail("serve: final poll failed: " + err);
    }
  }
  fwdecay::server::WireStats final_stats;
  std::string stats_err;
  if (!session->control.Stats(&final_stats, &stats_err)) {
    out.Fail("serve: final Stats failed: " + stats_err);
  }
  const std::map<std::string, double> scraped =
      ScrapeMetrics(daemon->metrics_port());
  const double daemon_hwm_mb = ProcStatusKb(daemon->pid(), "VmHWM") / 1024.0;
  session.reset();
  daemon.reset();
  std::filesystem::remove_all(data_dir);

  // --- outcome accounting --------------------------------------------
  std::vector<Sent> all = sent[0];
  all.insert(all.end(), sent[1].begin(), sent[1].end());
  std::uint64_t acks = 0;
  for (const Sent& s : all) acks += s.acked ? 1 : 0;
  out.attempted = all.size() + polls.size() + stats_sent +
                  cycles * kGroupbyReadsPerCycle + 3;
  out.failed =
      ingest_failed[0] + ingest_failed[1] + polls_failed + stats_failed;
  if (final_stats.batches_acked != acks) {
    out.Fail("serve: Stats().batches_acked " +
             std::to_string(final_stats.batches_acked) + " != acks received " +
             std::to_string(acks));
  }

  // --- oracle: in-process replay of the acked batches in global_seq
  // order under the tenant's policy must equal the final polls bit for
  // bit ------------------------------------------------------------------
  {
    std::vector<std::pair<std::uint64_t, std::size_t>> order;
    for (const Sent& s : all) {
      if (s.acked) order.emplace_back(s.global_seq, s.pool_index);
    }
    std::sort(order.begin(), order.end());
    fwdecay::dsms::OverloadPolicy policy;
    policy.max_groups = kTenantMaxGroups;
    policy.decay_alpha = kTenantAlpha;
    policy.landmark = kTenantLandmark;
    std::string err;
    auto gb_plan = MustCompile(kGroupbyQuery, /*two_level=*/true);
    auto decayed_plan = MustCompile(kDecayedQuery, /*two_level=*/false);
    auto gb = gb_plan->NewExecution();
    auto decayed = decayed_plan->NewExecution();
    gb->SetOverloadPolicy(policy);
    decayed->SetOverloadPolicy(policy);
    for (const auto& [seq, idx] : order) {
      gb->Consume(pool[idx]);
      decayed->Consume(pool[idx]);
    }
    std::vector<std::uint8_t> gb_image, decayed_image;
    gb->CheckpointBytes(&gb_image, &err);
    decayed->CheckpointBytes(&decayed_image, &err);
    const ResultSet want_gb = gb->Finish();
    const ResultSet want_decayed = decayed->Finish();
    if (!SameResult(final_gb, want_gb)) {
      out.Fail("serve: groupby poll differs from the replay");
    }
    if (!SameResult(final_decayed, want_decayed)) {
      out.Fail("serve: decayed-sum poll differs from the replay");
    }
    // Self-test: one flipped cell in each result must be rejected.
    ResultSet flipped_gb = final_gb, flipped_decayed = final_decayed;
    if (flipped_gb.rows.empty() || flipped_decayed.rows.empty()) {
      out.Fail("serve: empty result");
    } else {
      Bump(&flipped_gb.rows.front()[2]);
      Bump(&flipped_decayed.rows.front()[2]);
      if (SameResult(flipped_gb, want_gb) ||
          SameResult(flipped_decayed, want_decayed)) {
        out.Fail("serve: self-test: oracle accepted a flipped cell");
      }
    }
    out.SetLayer("dsms.state_bytes",
                 static_cast<double>(gb_image.size() + decayed_image.size()),
                 "bytes");
  }

  // --- end-to-end metrics ----------------------------------------------
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> ack_ms, rtt_ms, late_ms, freshness_ms, poll_ms;
  // Packets acked in each slice of each saturation phase, by ack time.
  const std::int64_t slice_ns =
      (saturation_ns - nominal_ns) / kSaturationSlices;
  std::vector<std::uint64_t> sat_packets(cycles * kSaturationSlices, 0);
  const auto starts_before = [](const PollRecord& p, std::int64_t t) {
    return p.start_ns < t;
  };
  for (const Sent& s : all) {
    if (s.phase == Phase::kSaturation && s.acked) {
      const std::int64_t into = s.reply_ns -
                                static_cast<std::int64_t>(s.cycle) * cycle_ns -
                                nominal_ns;
      const std::int64_t slice = into / slice_ns;
      if (into >= 0 && slice < kSaturationSlices) {
        sat_packets[s.cycle * kSaturationSlices + slice] +=
            pool[s.pool_index].size();
      }
    }
    if (s.phase != Phase::kNominal) continue;
    // A refused or failed batch never meets any latency limit.
    ack_ms.push_back(s.acked ? NsToMs(s.reply_ns - s.due_ns) : inf);
    late_ms.push_back(NsToMs(s.send_ns - s.due_ns));
    if (!s.acked) continue;
    rtt_ms.push_back(NsToMs(s.reply_ns - s.send_ns));
    // Freshness ("window close" of a served result): from the batch's
    // due time to the end of the first poll that started after its ack.
    // Polls run in nominal phases only, so a batch acked after its
    // phase's last poll has no such poll in its cycle and is skipped.
    auto it = std::lower_bound(polls.begin(), polls.end(), s.reply_ns,
                               starts_before);
    if (it != polls.end() && it->ok && it->cycle == s.cycle) {
      freshness_ms.push_back(NsToMs(it->end_ns - s.due_ns));
    }
  }
  for (const PollRecord& p : polls) {
    poll_ms.push_back(p.ok ? NsToMs(p.end_ns - p.start_ns) : inf);
  }
  std::vector<double> sat_mpps;
  for (const std::uint64_t packets : sat_packets) {
    sat_mpps.push_back(static_cast<double>(packets) /
                       static_cast<double>(slice_ns) * 1e3);
  }
  out.SetE2e("setup_s", Median(setup_s), "s");
  out.SetE2e("ingest_mpps", Median(sat_mpps), "Mpkt/s");
  out.SetE2e("finish_ms", Median(groupby_read_ms), "ms");
  out.SetE2e("window_close_ms_p50", Percentile(freshness_ms, 0.5), "ms");
  out.SetE2e("window_close_ms_p90", Percentile(freshness_ms, 0.9), "ms");
  out.SetE2e("mem_mb", daemon_hwm_mb, "MB");
  out.SetE2e("poll_ms_p50", Percentile(poll_ms, 0.5), "ms");
  out.SetE2e("poll_ms_p90", Percentile(poll_ms, 0.9), "ms");
  // Served-only end-to-end numbers; in the record line, not gated.
  out.SetE2e("serve_ack_ms_p50", Percentile(ack_ms, 0.5), "ms");
  out.SetE2e("serve_ack_ms_p99", Percentile(ack_ms, 0.99), "ms");
  out.SetLayer("fail_ratio",
               static_cast<double>(out.failed) /
                   static_cast<double>(out.attempted),
               "ratio");
  if (!tracer->enabled()) return out;

  // --- per-layer metrics -------------------------------------------------
  // A daemon /metrics sample; reservoir quantiles are scaled ns -> us.
  const auto m = [&](const std::string& key) {
    auto it = scraped.find(key);
    return it == scraped.end() ? 0.0 : it->second;
  };
  const auto us = [&](const char* family, const char* q) {
    return m(std::string(family) + "{quantile=\"" + q + "\"}") * 1e-3;
  };
  const double acked_total = m("fwdecay_server_batches_acked_total");
  double measured_acks = 0.0;
  for (const Sent& s : all) {
    measured_acks += s.acked && s.phase != Phase::kWarmup ? 1.0 : 0.0;
  }
  out.SetLayer("client.ingest_rtt_ms_p50", Percentile(rtt_ms, 0.5), "ms");
  out.SetLayer("client.ingest_rtt_ms_p99", Percentile(rtt_ms, 0.99), "ms");
  out.SetLayer("gen.late_ms_p99", Percentile(late_ms, 0.99), "ms");
  out.SetLayer("journal.fsync_us_p50", us("fwdecay_faultfs_fsync_ns", "0.5"),
               "us");
  out.SetLayer("journal.fsync_us_p99", us("fwdecay_faultfs_fsync_ns", "0.99"),
               "us");
  out.SetLayer("journal.bytes_per_batch",
               acked_total > 0
                   ? m("fwdecay_server_journal_bytes_total") / acked_total
                   : 0.0,
               "bytes");
  out.SetLayer("daemon.apply_us_p50", us("fwdecay_server_apply_ns", "0.5"),
               "us");
  out.SetLayer("daemon.apply_us_p99", us("fwdecay_server_apply_ns", "0.99"),
               "us");
  out.SetLayer("daemon.queue_depth_max", depth_max, "count");
  out.SetLayer("daemon.busy_total",
               static_cast<double>(final_stats.backpressure_total), "count");
  out.SetLayer("daemon.cpu_us_per_batch",
               measured_acks > 0 ? (cpu1 - cpu0) * 1e6 / measured_acks : 0.0,
               "us");
  out.SetLayer("daemon.groups_shed",
               static_cast<double>(final_stats.groups_shed_total), "count");

  std::vector<const PacketBatch*> views;
  for (const auto& b : pool) views.push_back(&b);
  StageReplay(views, kGroupbyKeys, &out.layer);
  return out;
}

}  // namespace perfbench
