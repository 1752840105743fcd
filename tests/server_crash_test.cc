// Crash/restart durability tests against the real fwdecayd binary
// (path baked in via FWDECAYD_PATH): SIGKILL mid-stream, restart,
// verify every acknowledged batch survived and the recovered answers
// match a never-crashed reference bit for bit. The acked set is a
// prefix of the sent sequence (one connection, sequential sends), so
// the reference is simply the same stream cut at the recovered
// batches_acked count.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "dsms/engine.h"
#include "dsms/netgen.h"
#include "dsms/udafs.h"
#include "gtest/gtest.h"
#include "server/client.h"
#include "server/daemon.h"
#include "util/fault_fs.h"

#ifndef FWDECAYD_PATH
#error "FWDECAYD_PATH must point at the fwdecayd binary"
#endif

namespace fwdecay::server {
namespace {

constexpr char kGsql[] =
    "select destIP, count(*), sum(len) from TCP group by destIP";

dsms::PacketBatch MakeBatch(const std::vector<dsms::Packet>& packets,
                            std::size_t begin, std::size_t end) {
  dsms::PacketBatch batch(end - begin);
  for (std::size_t i = begin; i < end; ++i) (void)batch.Append(packets[i]);
  return batch;
}

/// A spawned fwdecayd child process. Ports are parsed from its stdout
/// banner lines; Kill sends SIGKILL and reaps.
class DaemonProcess {
 public:
  bool Spawn(const std::string& data_dir, std::string* error) {
    int fds[2];
    if (pipe(fds) != 0) {
      *error = "pipe failed";
      return false;
    }
    pid_ = fork();
    if (pid_ < 0) {
      close(fds[0]);
      close(fds[1]);
      *error = "fork failed";
      return false;
    }
    if (pid_ == 0) {
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      execl(FWDECAYD_PATH, "fwdecayd", "--data-dir", data_dir.c_str(),
            "--io-timeout-ms", "20000", static_cast<char*>(nullptr));
      _exit(127);  // exec failed
    }
    close(fds[1]);
    stdout_fd_ = fds[0];
    return ParseBanner(error);
  }

  std::uint16_t ingest_port() const { return ingest_port_; }

  void Kill() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      int status = 0;
      (void)waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    CloseStdout();
  }

  /// SIGTERM + wait: the graceful path (drain, checkpoint, exit 0).
  bool Terminate() {
    if (pid_ <= 0) return false;
    kill(pid_, SIGTERM);
    int status = 0;
    (void)waitpid(pid_, &status, 0);
    pid_ = -1;
    CloseStdout();
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  ~DaemonProcess() { Kill(); }

 private:
  bool ParseBanner(std::string* error) {
    // Read stdout until both banner lines arrive (bounded wait).
    std::string text;
    char buf[256];
    for (int spins = 0; spins < 200; ++spins) {
      struct pollfd pfd;
      pfd.fd = stdout_fd_;
      pfd.events = POLLIN;
      pfd.revents = 0;
      const int rc = poll(&pfd, 1, 100);
      if (rc < 0 && errno == EINTR) continue;
      if (rc <= 0) continue;
      const ssize_t n = read(stdout_fd_, buf, sizeof(buf));
      if (n <= 0) break;
      text.append(buf, static_cast<std::size_t>(n));
      unsigned ingest = 0;
      unsigned metrics = 0;
      const char* listening = std::strstr(text.c_str(), "listening on ");
      const char* serving = std::strstr(text.c_str(), "metrics on ");
      if (listening != nullptr && serving != nullptr &&
          std::sscanf(listening, "listening on 127.0.0.1:%u", &ingest) == 1 &&
          std::sscanf(serving, "metrics on http://127.0.0.1:%u", &metrics) ==
              1) {
        ingest_port_ = static_cast<std::uint16_t>(ingest);
        metrics_port_ = static_cast<std::uint16_t>(metrics);
        return true;
      }
    }
    *error = "fwdecayd banner never arrived; got: " + text;
    return false;
  }

  void CloseStdout() {
    if (stdout_fd_ >= 0) {
      close(stdout_fd_);
      stdout_fd_ = -1;
    }
  }

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t ingest_port_ = 0;
  std::uint16_t metrics_port_ = 0;
};

class ServerCrashTest : public testing::Test {
 protected:
  void SetUp() override {
    dsms::RegisterPaperUdafs();  // as fwdecayd does, for the references
    dir_ = testing::TempDir() + "/fwdecay_crash_" +
           testing::UnitTest::GetInstance()->current_test_info()->name();
    RemoveTree(dir_);
  }
  void TearDown() override { RemoveTree(dir_); }

  static void RemoveTree(const std::string& dir) {
    SnapshotManager snaps(dir, 1);
    std::remove(snaps.CurrentPath().c_str());
    std::remove(FaultFs::TempPathFor(snaps.CurrentPath()).c_str());
    for (std::uint64_t e = 0; e < 64; ++e) {
      std::remove(snaps.SnapPath(e).c_str());
      std::remove(snaps.JournalPath(e).c_str());
      std::remove(FaultFs::TempPathFor(snaps.SnapPath(e)).c_str());
    }
    rmdir(dir.c_str());
  }

  // Streams a trace into a fresh fwdecayd with `gsql` registered, SIGKILLs
  // it mid-stream, restarts it on the same data dir, and requires every
  // acked batch to survive and the polled answer to equal a never-crashed
  // in-process reference fed the durable prefix.
  void KillMidStreamAndVerify(const char* gsql);

  std::string dir_;
};

void ServerCrashTest::KillMidStreamAndVerify(const char* gsql) {
  dsms::TraceConfig cfg;
  cfg.seed = 101;
  cfg.num_servers = 32;
  const auto packets = dsms::PacketGenerator(cfg).Generate(6000);
  constexpr std::size_t kBatchSize = 200;
  const std::size_t total_batches = packets.size() / kBatchSize;

  DaemonProcess proc;
  std::string error;
  ASSERT_TRUE(proc.Spawn(dir_, &error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect(proc.ingest_port(), &error)) << error;
  ASSERT_TRUE(client.Hello("acme", &error)) << error;
  std::uint64_t query_id = 0;
  ErrCode code = ErrCode::kNone;
  ASSERT_TRUE(client.RegisterQuery("hh", gsql, /*two_level=*/false,
                                   &query_id, &code, &error))
      << error;

  // Stream batches; SIGKILL the server partway through, mid-stream —
  // the in-flight batch may or may not have been acked, and either is
  // legal. What is not legal is losing one that WAS acked.
  std::uint64_t acked = 0;
  for (std::size_t b = 0; b < total_batches; ++b) {
    if (b == total_batches / 2) proc.Kill();
    IngestReply reply;
    if (!client.Ingest(b, MakeBatch(packets, b * kBatchSize,
                                    (b + 1) * kBatchSize),
                       &reply, &error)) {
      break;  // transport died mid-call: the kill landed
    }
    if (!reply.ok) break;
    acked += 1;
  }
  ASSERT_GE(acked, total_batches / 2) << "kill landed before the midpoint";
  client.Close();

  // Restart on the same data dir. Every acked batch must be there.
  DaemonProcess restarted;
  ASSERT_TRUE(restarted.Spawn(dir_, &error)) << error;
  Client again;
  ASSERT_TRUE(again.Connect(restarted.ingest_port(), &error)) << error;
  WireStats stats;
  ASSERT_TRUE(again.Stats(&stats, &error)) << error;
  ASSERT_GE(stats.batches_acked, acked)
      << "acknowledged batches were lost across SIGKILL";
  ASSERT_LE(stats.batches_acked, total_batches);
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_EQ(stats.tenants, 1u);

  // Bit-identical answers: one connection sent batches sequentially, so
  // the durable set is exactly the first `stats.batches_acked` batches.
  // A never-crashed reference fed that prefix must produce the same
  // encoded result table.
  dsms::ResultSet recovered;
  ASSERT_TRUE(again.PollResult(query_id, &recovered, &code, &error)) << error;

  std::string compile_error;
  auto plan = dsms::CompiledQuery::Compile(gsql, &compile_error);
  ASSERT_NE(plan, nullptr) << compile_error;
  auto reference = plan->NewExecution();
  dsms::OverloadPolicy policy;
  TenantSpec defaults;  // fwdecayd ran with default tenant flags
  policy.max_groups = defaults.max_groups;
  policy.decay_alpha = defaults.decay_alpha;
  policy.landmark = defaults.landmark;
  reference->SetOverloadPolicy(policy);
  const std::size_t durable =
      static_cast<std::size_t>(stats.batches_acked) * kBatchSize;
  for (std::size_t i = 0; i < durable; ++i) {
    reference->Consume(packets[i]);
  }
  EXPECT_EQ(EncodeResult(recovered), EncodeResult(reference->Finish()));

  // The recovered daemon is live, not read-only: it keeps ingesting.
  IngestReply reply;
  ASSERT_TRUE(again.Ingest(9999,
                           MakeBatch(packets, 0, kBatchSize), &reply, &error))
      << error;
  EXPECT_TRUE(reply.ok) << reply.message;

  restarted.Kill();
}

TEST_F(ServerCrashTest, SigkillMidStreamLosesNothingAcknowledged) {
  KillMidStreamAndVerify(kGsql);
}

TEST_F(ServerCrashTest, SigkillMidStreamSamplersMatchReference) {
  // Sampler draws hash from each row's position in the query's input, so
  // the recovered daemon (snapshot + journal replay, in another process)
  // and this process's reference draw the same uniforms. ~190 rows per
  // destIP group against k = 4 keeps the samples selective.
  KillMidStreamAndVerify(
      "select destIP, count(*), PRISAMP(len, (time % 60) + 1, 4), "
      "WRSAMP(srcPort, len, 4) from TCP group by destIP");
}

TEST_F(ServerCrashTest, RepeatedKillsAndRestartsStayConsistent) {
  // Three kill/restart cycles with more data in between: recovery must
  // compose — each restart replays on top of the last snapshot without
  // double-applying anything (answers track the acked prefix exactly).
  dsms::TraceConfig cfg;
  cfg.seed = 131;
  cfg.num_servers = 16;
  const auto packets = dsms::PacketGenerator(cfg).Generate(3000);
  constexpr std::size_t kBatchSize = 100;

  std::string error;
  std::uint64_t query_id = 0;
  std::size_t next_batch = 0;
  std::uint64_t durable_batches = 0;

  for (int cycle = 0; cycle < 3; ++cycle) {
    DaemonProcess proc;
    ASSERT_TRUE(proc.Spawn(dir_, &error)) << error;
    Client client;
    ASSERT_TRUE(client.Connect(proc.ingest_port(), &error)) << error;
    ASSERT_TRUE(client.Hello("acme", &error)) << error;
    if (cycle == 0) {
      ErrCode code = ErrCode::kNone;
      ASSERT_TRUE(client.RegisterQuery("hh", kGsql, false, &query_id, &code,
                                       &error))
          << error;
    }

    WireStats stats;
    ASSERT_TRUE(client.Stats(&stats, &error)) << error;
    ASSERT_EQ(stats.batches_acked, durable_batches)
        << "cycle " << cycle << " lost or double-applied batches";

    for (std::size_t b = 0; b < 5 && next_batch < 30; ++b, ++next_batch) {
      IngestReply reply;
      ASSERT_TRUE(client.Ingest(next_batch,
                                MakeBatch(packets, next_batch * kBatchSize,
                                          (next_batch + 1) * kBatchSize),
                                &reply, &error))
          << error;
      ASSERT_TRUE(reply.ok) << reply.message;
      durable_batches += 1;
    }
    client.Close();
    proc.Kill();  // no graceful shutdown, no final checkpoint
  }

  // Final verification pass against the never-crashed reference.
  DaemonProcess proc;
  ASSERT_TRUE(proc.Spawn(dir_, &error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect(proc.ingest_port(), &error)) << error;
  WireStats stats;
  ASSERT_TRUE(client.Stats(&stats, &error)) << error;
  EXPECT_EQ(stats.batches_acked, durable_batches);

  dsms::ResultSet recovered;
  ErrCode code = ErrCode::kNone;
  ASSERT_TRUE(client.PollResult(query_id, &recovered, &code, &error))
      << error;
  std::string compile_error;
  auto plan = dsms::CompiledQuery::Compile(kGsql, &compile_error);
  ASSERT_NE(plan, nullptr) << compile_error;
  auto reference = plan->NewExecution();
  dsms::OverloadPolicy policy;
  TenantSpec defaults;
  policy.max_groups = defaults.max_groups;
  policy.decay_alpha = defaults.decay_alpha;
  policy.landmark = defaults.landmark;
  reference->SetOverloadPolicy(policy);
  for (std::size_t i = 0; i < durable_batches * kBatchSize; ++i) {
    reference->Consume(packets[i]);
  }
  EXPECT_EQ(EncodeResult(recovered), EncodeResult(reference->Finish()));
  proc.Kill();
}

TEST_F(ServerCrashTest, SigtermDrainsAndExitsZero) {
  DaemonProcess proc;
  std::string error;
  ASSERT_TRUE(proc.Spawn(dir_, &error)) << error;

  dsms::TraceConfig cfg;
  cfg.seed = 151;
  const auto packets = dsms::PacketGenerator(cfg).Generate(500);

  Client client;
  ASSERT_TRUE(client.Connect(proc.ingest_port(), &error)) << error;
  ASSERT_TRUE(client.Hello("acme", &error)) << error;
  IngestReply reply;
  ASSERT_TRUE(client.Ingest(1, MakeBatch(packets, 0, 500), &reply, &error))
      << error;
  ASSERT_TRUE(reply.ok);
  client.Close();

  EXPECT_TRUE(proc.Terminate()) << "fwdecayd did not exit cleanly on SIGTERM";

  // The clean shutdown checkpoint means restart needs no replay and
  // still holds the batch.
  DaemonProcess restarted;
  ASSERT_TRUE(restarted.Spawn(dir_, &error)) << error;
  Client again;
  ASSERT_TRUE(again.Connect(restarted.ingest_port(), &error)) << error;
  WireStats stats;
  ASSERT_TRUE(again.Stats(&stats, &error)) << error;
  EXPECT_EQ(stats.batches_acked, 1u);
  EXPECT_EQ(stats.tenants, 1u);
  restarted.Kill();
}

}  // namespace
}  // namespace fwdecay::server
