// Checkpoint/recovery tests for the DSMS engine: recovery-replay
// equality against an uninterrupted run (built-ins, UDAFs, both
// aggregation modes), the crash fault matrix on Checkpoint(), hostile
// snapshot rejection, snapshot byte-determinism, and overload shedding
// driven by forward-decayed group weights.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "dsms/engine.h"
#include "dsms/netgen.h"
#include "dsms/udafs.h"
#include "gtest/gtest.h"
#include "util/fault_fs.h"

namespace fwdecay::dsms {
namespace {

Packet MakePacket(double time, std::uint32_t dest_ip, std::uint16_t dest_port,
                  std::uint32_t len, std::uint8_t proto = kProtoTcp) {
  Packet p;
  p.time = time;
  p.dest_ip = dest_ip;
  p.dest_port = dest_port;
  p.len = len;
  p.protocol = proto;
  return p;
}

class CheckpointTest : public testing::Test {
 protected:
  void SetUp() override {
    RegisterPaperUdafs();
    // Unique per test: ctest runs suites in parallel processes and a
    // shared path would let them stomp each other's snapshots.
    path_ = testing::TempDir() + "/fwdecay_ckpt_" +
            testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".snap";
    std::remove(path_.c_str());
    std::remove(FaultFs::TempPathFor(path_).c_str());
    FaultFs::Instance().ClearPlan();
  }
  void TearDown() override {
    FaultFs::Instance().ClearPlan();
    std::remove(path_.c_str());
    std::remove(FaultFs::TempPathFor(path_).c_str());
  }

  // Checkpoints an execution at `cut`, lets it run on to completion
  // (the "uninterrupted" outcome), then restores a second execution
  // from the snapshot, re-feeds the trace from the recorded position,
  // and asserts the two final tables are identical.
  void ExpectRecoveryReplayMatches(const std::string& gsql,
                                   const std::vector<Packet>& packets,
                                   std::size_t cut,
                                   CompiledQuery::Options opts = {}) {
    std::string error;
    auto plan = CompiledQuery::Compile(gsql, &error, opts);
    ASSERT_NE(plan, nullptr) << error;

    auto primary = plan->NewExecution();
    for (std::size_t i = 0; i < cut; ++i) primary->Consume(packets[i]);
    ASSERT_TRUE(primary->Checkpoint(path_, &error)) << error;
    for (std::size_t i = cut; i < packets.size(); ++i) {
      primary->Consume(packets[i]);
    }

    // "Crash": bring up a fresh execution from the snapshot and re-feed
    // the trace from the recorded position.
    auto restored = plan->NewExecution();
    ASSERT_TRUE(restored->Restore(path_, &error)) << error;
    EXPECT_EQ(restored->packets_consumed(), cut);
    for (std::size_t i = restored->packets_consumed(); i < packets.size();
         ++i) {
      restored->Consume(packets[i]);
    }

    const ResultSet want = primary->Finish();
    const ResultSet got = restored->Finish();
    ASSERT_FALSE(want.rows.empty());
    EXPECT_EQ(got.ToString(), want.ToString());
  }

  std::string path_;
};

TEST_F(CheckpointTest, RecoveryReplayMatchesBuiltins) {
  TraceConfig cfg;
  cfg.seed = 7;
  cfg.num_servers = 64;
  PacketGenerator gen(cfg);
  const auto packets = gen.Generate(20000);
  const std::string gsql =
      "select destIP, count(*), sum(len), avg(len), min(len), max(len), "
      "count_distinct(srcIP) from TCP group by destIP";
  ExpectRecoveryReplayMatches(gsql, packets, /*cut=*/9137);

  // The stronger claim holds too: the restored run matches a completely
  // independent fresh execution.
  std::string error;
  auto plan = CompiledQuery::Compile(gsql, &error);
  ASSERT_NE(plan, nullptr) << error;
  auto fresh = plan->NewExecution();
  for (const Packet& p : packets) fresh->Consume(p);
  auto checkpointed = plan->NewExecution();
  for (std::size_t i = 0; i < 4242; ++i) checkpointed->Consume(packets[i]);
  ASSERT_TRUE(checkpointed->Checkpoint(path_, &error)) << error;
  checkpointed.reset();
  auto restored = plan->NewExecution();
  ASSERT_TRUE(restored->Restore(path_, &error)) << error;
  for (std::size_t i = restored->packets_consumed(); i < packets.size(); ++i) {
    restored->Consume(packets[i]);
  }
  EXPECT_EQ(restored->Finish().ToString(), fresh->Finish().ToString());
}

TEST_F(CheckpointTest, RecoveryReplayMatchesTwoLevel) {
  TraceConfig cfg;
  cfg.seed = 13;
  cfg.num_servers = 400;
  PacketGenerator gen(cfg);
  CompiledQuery::Options opts;
  opts.two_level = true;
  opts.low_level_slots = 64;  // force plenty of evictions around the cut
  ExpectRecoveryReplayMatches(
      "select destIP, count(*), sum(len) from TCP group by destIP",
      gen.Generate(30000), /*cut=*/14551, opts);
}

constexpr char kSamplerGsql[] =
    "select tb, PRISAMP(srcIP, exp(time % 60), 8), "
    "WRSAMP(srcIP, (time % 60) + 1, 8), RESSAMP(srcIP, 8), "
    "AGGSAMP(srcIP, 8) from TCP group by time/60 as tb";

std::string RunToEnd(const CompiledQuery& plan,
                     const std::vector<Packet>& packets) {
  auto exec = plan.NewExecution();
  for (const Packet& p : packets) exec->Consume(p);
  return exec->Finish().ToString();
}

TEST_F(CheckpointTest, RecoveryReplayMatchesSamplingUdafs) {
  // 15000 packets at 200 pps span 75 s: the cut falls inside minute 0,
  // and the minute-1 group's sampler states are created only after it.
  // Sampler draws hash from each row's stream position, so the restored
  // run matches the uninterrupted one and a fresh execution, including
  // in groups the snapshot never held.
  TraceConfig cfg;
  cfg.seed = 21;
  cfg.rate_pps = 200.0;
  PacketGenerator gen(cfg);
  const auto packets = gen.Generate(15000);
  ASSERT_LT(packets[7211].time, 60.0);
  ASSERT_GE(packets.back().time, 60.0);
  ExpectRecoveryReplayMatches(kSamplerGsql, packets, /*cut=*/7211);

  std::string error;
  auto plan = CompiledQuery::Compile(kSamplerGsql, &error);
  ASSERT_NE(plan, nullptr) << error;
  const std::string fresh = RunToEnd(*plan, packets);
  auto checkpointed = plan->NewExecution();
  for (std::size_t i = 0; i < 7211; ++i) checkpointed->Consume(packets[i]);
  std::vector<std::uint8_t> image;
  ASSERT_TRUE(checkpointed->CheckpointBytes(&image, &error)) << error;
  checkpointed.reset();
  auto restored = plan->NewExecution();
  ASSERT_TRUE(restored->RestoreBytes(image.data(), image.size(), &error))
      << error;
  for (std::size_t i = restored->packets_consumed(); i < packets.size(); ++i) {
    restored->Consume(packets[i]);
  }
  const ResultSet got = restored->Finish();
  ASSERT_EQ(got.rows.size(), 2u);  // minutes 0 and 1
  EXPECT_EQ(got.ToString(), fresh);
}

TEST_F(CheckpointTest, SamplingQueryRunTwiceInOneProcessIsIdentical) {
  // No sampler state depends on how many states the process created
  // before it: the same query over the same trace gives the same samples.
  TraceConfig cfg;
  cfg.seed = 23;
  cfg.rate_pps = 200.0;
  const auto packets = PacketGenerator(cfg).Generate(15000);
  std::string error;
  auto plan = CompiledQuery::Compile(kSamplerGsql, &error);
  ASSERT_NE(plan, nullptr) << error;
  const std::string first = RunToEnd(*plan, packets);
  EXPECT_EQ(RunToEnd(*plan, packets), first);
  auto recompiled = CompiledQuery::Compile(kSamplerGsql, &error);
  ASSERT_NE(recompiled, nullptr) << error;
  EXPECT_EQ(RunToEnd(*recompiled, packets), first);
}

TEST_F(CheckpointTest, RecoveryReplayMatchesSketchUdafs) {
  TraceConfig cfg;
  cfg.seed = 33;
  cfg.num_servers = 100;
  cfg.server_skew = 1.5;
  cfg.rate_pps = 1000.0;
  PacketGenerator gen(cfg);
  const auto packets = gen.Generate(15000);
  ExpectRecoveryReplayMatches(
      "select tb, FDHH(destIP, (time % 60)*(time % 60) + 1, 0.05, 0.01), "
      "UNARYHH(destIP, 0.05, 0.01), "
      "FDQUANTILE(len, (time % 60)*(time % 60) + 1, 0.5, 11), "
      "FDDISTINCT(destIP, (time % 60)*(time % 60) + 1) "
      "from TCP group by time/60 as tb",
      packets, /*cut=*/6733);
  ExpectRecoveryReplayMatches(
      "select tb, SWHH(time, destIP, 0.05, 0.01), EHDSUM(time, len, 0.05) "
      "from TCP group by time/60 as tb",
      packets, /*cut=*/11003);
}

TEST_F(CheckpointTest, CheckpointAtEveryPhaseBoundary) {
  // Cut at the edges: before any input, after one packet, at the end.
  TraceConfig cfg;
  cfg.seed = 5;
  PacketGenerator gen(cfg);
  const auto packets = gen.Generate(2000);
  const std::string gsql =
      "select destPort, count(*), sum(len) from PKT group by destPort";
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, packets.size()}) {
    SCOPED_TRACE(cut);
    ExpectRecoveryReplayMatches(gsql, packets, cut);
  }
}

TEST_F(CheckpointTest, SnapshotBytesAreDeterministic) {
  // Two checkpoints of the same state must be byte-identical — group
  // iteration order must not leak unordered_map layout into the file.
  TraceConfig cfg;
  cfg.seed = 3;
  cfg.num_servers = 128;
  PacketGenerator gen(cfg);
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select destIP, count(*), count_distinct(srcIP) from TCP "
      "group by destIP",
      &error);
  ASSERT_NE(plan, nullptr) << error;
  auto exec = plan->NewExecution();
  for (const Packet& p : gen.Generate(8000)) exec->Consume(p);

  ASSERT_TRUE(exec->Checkpoint(path_, &error)) << error;
  std::vector<std::uint8_t> first;
  ASSERT_TRUE(FaultFs::Instance().ReadFile(path_, &first, &error)) << error;
  ASSERT_TRUE(exec->Checkpoint(path_, &error)) << error;
  std::vector<std::uint8_t> second;
  ASSERT_TRUE(FaultFs::Instance().ReadFile(path_, &second, &error)) << error;
  EXPECT_EQ(first, second);
}

TEST_F(CheckpointTest, FaultMatrixNeverLeavesCorruptSnapshot) {
  // Kill the checkpoint writer at every fault point. Whatever file
  // survives must restore cleanly and behave as either the old or the
  // new snapshot — never a torn hybrid.
  TraceConfig cfg;
  cfg.seed = 17;
  PacketGenerator gen(cfg);
  const auto packets = gen.Generate(6000);
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select destIP, count(*), sum(len) from TCP group by destIP", &error);
  ASSERT_NE(plan, nullptr) << error;

  auto exec = plan->NewExecution();
  for (std::size_t i = 0; i < 2000; ++i) exec->Consume(packets[i]);
  ASSERT_TRUE(exec->Checkpoint(path_, &error)) << error;
  const std::uint64_t old_pos = exec->packets_consumed();
  for (std::size_t i = 2000; i < 5000; ++i) exec->Consume(packets[i]);
  const std::uint64_t new_pos = exec->packets_consumed();

  const FaultPoint points[] = {
      FaultPoint::kOpenForWrite, FaultPoint::kTornWrite,
      FaultPoint::kWriteError, FaultPoint::kFsyncError,
      FaultPoint::kCrashBeforeRename, FaultPoint::kCrashAfterRename};
  for (FaultPoint point : points) {
    SCOPED_TRACE(static_cast<int>(point));
    {
      ScopedFaultPlan plan_guard(point, /*byte_limit=*/53);
      error.clear();
      EXPECT_FALSE(exec->Checkpoint(path_, &error));
      EXPECT_FALSE(error.empty());
    }
    FaultFs::Instance().RemoveStaleTemp(FaultFs::TempPathFor(path_));

    auto restored = plan->NewExecution();
    ASSERT_TRUE(restored->Restore(path_, &error)) << error;
    EXPECT_TRUE(restored->packets_consumed() == old_pos ||
                restored->packets_consumed() == new_pos);
    // The restored state replays to the exact uninterrupted result.
    for (std::size_t i = restored->packets_consumed(); i < packets.size();
         ++i) {
      restored->Consume(packets[i]);
    }
    auto uninterrupted = plan->NewExecution();
    for (const Packet& p : packets) uninterrupted->Consume(p);
    EXPECT_EQ(restored->Finish().ToString(),
              uninterrupted->Finish().ToString());
    // Reset to the known-good old snapshot for the next fault point.
    auto writer = plan->NewExecution();
    for (std::size_t i = 0; i < 2000; ++i) writer->Consume(packets[i]);
    ASSERT_TRUE(writer->Checkpoint(path_, &error)) << error;
  }
}

TEST_F(CheckpointTest, RestoreRejectsCorruptSnapshots) {
  TraceConfig cfg;
  cfg.seed = 29;
  PacketGenerator gen(cfg);
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select destIP, count(*) from TCP group by destIP", &error);
  ASSERT_NE(plan, nullptr) << error;
  auto exec = plan->NewExecution();
  for (const Packet& p : gen.Generate(3000)) exec->Consume(p);
  ASSERT_TRUE(exec->Checkpoint(path_, &error)) << error;

  std::vector<std::uint8_t> good;
  ASSERT_TRUE(FaultFs::Instance().ReadFile(path_, &good, &error)) << error;

  // Any single bit flip in the payload is caught by the CRC frame.
  for (std::size_t pos = 24; pos < good.size(); pos += 131) {
    auto bad = good;
    bad[pos] ^= 0x04;
    ASSERT_TRUE(FaultFs::Instance().AtomicWriteFile(path_, bad, &error));
    auto victim = plan->NewExecution();
    EXPECT_FALSE(victim->Restore(path_, &error))
        << "undetected corruption at byte " << pos;
  }

  // Truncation anywhere is rejected.
  for (std::size_t len : {std::size_t{0}, std::size_t{7}, std::size_t{23},
                          good.size() - 1}) {
    std::vector<std::uint8_t> cut(good.begin(), good.begin() + len);
    ASSERT_TRUE(FaultFs::Instance().AtomicWriteFile(path_, cut, &error));
    auto victim = plan->NewExecution();
    EXPECT_FALSE(victim->Restore(path_, &error)) << "length " << len;
  }

  // A missing file is a plain error, not a crash.
  ASSERT_TRUE(FaultFs::Instance().AtomicWriteFile(path_, good, &error));
  auto victim = plan->NewExecution();
  EXPECT_FALSE(victim->Restore(path_ + ".nope", &error));
}

TEST_F(CheckpointTest, RestoreRefusesVersion1Snapshot) {
  // Version-1 sampler frames open with 32 bytes of generator state that
  // version 2 dropped; a v1 image is refused by its header, naming both
  // versions, never parsed.
  TraceConfig cfg;
  cfg.seed = 31;
  std::string error;
  auto plan = CompiledQuery::Compile(kSamplerGsql, &error);
  ASSERT_NE(plan, nullptr) << error;
  auto exec = plan->NewExecution();
  for (const Packet& p : PacketGenerator(cfg).Generate(500)) exec->Consume(p);
  std::vector<std::uint8_t> image;
  ASSERT_TRUE(exec->CheckpointBytes(&image, &error)) << error;
  ASSERT_GE(image.size(), 12u);
  ASSERT_EQ(image[8], 2u);  // little-endian u32 after the 8-byte magic
  image[8] = 1;
  auto victim = plan->NewExecution();
  EXPECT_FALSE(victim->RestoreBytes(image.data(), image.size(), &error));
  EXPECT_NE(error.find("version 1"), std::string::npos) << error;
  EXPECT_NE(error.find("version 2"), std::string::npos) << error;
}

TEST_F(CheckpointTest, RestoreRejectsDifferentQueryPlan) {
  TraceConfig cfg;
  PacketGenerator gen(cfg);
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select destIP, count(*) from TCP group by destIP", &error);
  ASSERT_NE(plan, nullptr) << error;
  auto exec = plan->NewExecution();
  for (const Packet& p : gen.Generate(1000)) exec->Consume(p);
  ASSERT_TRUE(exec->Checkpoint(path_, &error)) << error;

  auto other = CompiledQuery::Compile(
      "select destIP, sum(len) from TCP group by destIP", &error);
  ASSERT_NE(other, nullptr) << error;
  auto victim = other->NewExecution();
  EXPECT_FALSE(victim->Restore(path_, &error));
  EXPECT_NE(error.find("different query plan"), std::string::npos) << error;

  // Same text, different aggregation-mode options: also rejected.
  CompiledQuery::Options two_opts;
  two_opts.two_level = true;
  auto two_level = CompiledQuery::Compile(
      "select destIP, count(*) from TCP group by destIP", &error, two_opts);
  ASSERT_NE(two_level, nullptr) << error;
  auto victim2 = two_level->NewExecution();
  EXPECT_FALSE(victim2->Restore(path_, &error));
}

// --- Overload shedding -----------------------------------------------------

TEST_F(CheckpointTest, SheddingBoundsGroupCount) {
  TraceConfig cfg;
  cfg.seed = 41;
  cfg.num_servers = 500;
  PacketGenerator gen(cfg);
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select destIP, count(*) from TCP group by destIP", &error);
  ASSERT_NE(plan, nullptr) << error;

  auto exec = plan->NewExecution();
  OverloadPolicy policy;
  policy.max_groups = 32;
  policy.decay_alpha = 0.1;
  exec->SetOverloadPolicy(policy);
  std::uint64_t fed = 0;
  for (const Packet& p : gen.Generate(20000)) {
    exec->Consume(p);
    ++fed;
    ASSERT_LE(exec->GroupCount(), policy.max_groups);
  }
  EXPECT_GT(exec->groups_shed(), 0u);
  EXPECT_GT(exec->tuples_shed(), 0u);
  EXPECT_LT(exec->tuples_shed(), fed);
  const ResultSet rs = exec->Finish();
  EXPECT_LE(rs.rows.size(), policy.max_groups);
}

TEST_F(CheckpointTest, SheddingEvictsLowestForwardWeight) {
  // With alpha > 0 the forward-decayed weight grows with the timestamp,
  // so the stale low-traffic group is the one sacrificed — even though
  // every group here holds exactly one tuple.
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select destIP, count(*) from TCP group by destIP", &error);
  ASSERT_NE(plan, nullptr) << error;
  auto exec = plan->NewExecution();
  OverloadPolicy policy;
  policy.max_groups = 2;
  policy.decay_alpha = 1.0;
  exec->SetOverloadPolicy(policy);

  exec->Consume(MakePacket(1.0, /*dest_ip=*/10, 80, 100));
  exec->Consume(MakePacket(2.0, /*dest_ip=*/20, 80, 100));
  // Group 30 arrives later with the largest weight: group 10 (oldest,
  // smallest g(t - L)) must be the one shed.
  exec->Consume(MakePacket(3.0, /*dest_ip=*/30, 80, 100));
  EXPECT_EQ(exec->groups_shed(), 1u);
  EXPECT_EQ(exec->tuples_shed(), 1u);

  const ResultSet rs = exec->Finish();
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].AsInt(), 20);
  EXPECT_EQ(rs.rows[1][0].AsInt(), 30);
}

TEST_F(CheckpointTest, SheddingWithZeroAlphaEvictsSmallestGroup) {
  // alpha == 0 degrades the weight to a tuple count: the group with the
  // fewest tuples goes first, with the key ordering breaking ties.
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select destIP, count(*) from TCP group by destIP", &error);
  ASSERT_NE(plan, nullptr) << error;
  auto exec = plan->NewExecution();
  OverloadPolicy policy;
  policy.max_groups = 2;
  exec->SetOverloadPolicy(policy);

  exec->Consume(MakePacket(1.0, 10, 80, 100));
  exec->Consume(MakePacket(2.0, 10, 80, 100));
  exec->Consume(MakePacket(3.0, 20, 80, 100));  // the singleton
  exec->Consume(MakePacket(4.0, 30, 80, 100));  // evicts group 20
  EXPECT_EQ(exec->groups_shed(), 1u);
  EXPECT_EQ(exec->tuples_shed(), 1u);

  const ResultSet rs = exec->Finish();
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].AsInt(), 10);
  EXPECT_EQ(rs.rows[1][0].AsInt(), 30);
}

TEST_F(CheckpointTest, SheddingStateSurvivesCheckpoint) {
  // Policy, group weights, and shed counters all round-trip, so the
  // restored execution sheds exactly like the uninterrupted one.
  TraceConfig cfg;
  cfg.seed = 47;
  cfg.num_servers = 300;
  PacketGenerator gen(cfg);
  const auto packets = gen.Generate(16000);
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select destIP, count(*), sum(len) from TCP group by destIP", &error);
  ASSERT_NE(plan, nullptr) << error;

  OverloadPolicy policy;
  policy.max_groups = 48;
  policy.decay_alpha = 0.05;
  policy.landmark = 1.0;

  auto uninterrupted = plan->NewExecution();
  uninterrupted->SetOverloadPolicy(policy);
  for (const Packet& p : packets) uninterrupted->Consume(p);

  auto primary = plan->NewExecution();
  primary->SetOverloadPolicy(policy);
  for (std::size_t i = 0; i < 8000; ++i) primary->Consume(packets[i]);
  ASSERT_TRUE(primary->Checkpoint(path_, &error)) << error;
  const std::uint64_t shed_at_cut = primary->groups_shed();
  EXPECT_GT(shed_at_cut, 0u);
  primary.reset();

  auto restored = plan->NewExecution();
  ASSERT_TRUE(restored->Restore(path_, &error)) << error;
  EXPECT_EQ(restored->overload_policy().max_groups, policy.max_groups);
  EXPECT_DOUBLE_EQ(restored->overload_policy().decay_alpha,
                   policy.decay_alpha);
  EXPECT_EQ(restored->groups_shed(), shed_at_cut);
  for (std::size_t i = restored->packets_consumed(); i < packets.size(); ++i) {
    restored->Consume(packets[i]);
  }
  EXPECT_EQ(restored->groups_shed(), uninterrupted->groups_shed());
  EXPECT_EQ(restored->tuples_shed(), uninterrupted->tuples_shed());
  EXPECT_EQ(restored->Finish().ToString(), uninterrupted->Finish().ToString());
}

TEST_F(CheckpointTest, SheddingInTwoLevelMode) {
  TraceConfig cfg;
  cfg.seed = 53;
  cfg.num_servers = 400;
  PacketGenerator gen(cfg);
  std::string error;
  CompiledQuery::Options opts;
  opts.two_level = true;
  opts.low_level_slots = 32;
  auto plan = CompiledQuery::Compile(
      "select destIP, count(*) from TCP group by destIP", &error, opts);
  ASSERT_NE(plan, nullptr) << error;
  auto exec = plan->NewExecution();
  OverloadPolicy policy;
  policy.max_groups = 64;
  policy.decay_alpha = 0.1;
  exec->SetOverloadPolicy(policy);
  for (const Packet& p : gen.Generate(20000)) exec->Consume(p);
  EXPECT_GT(exec->groups_shed(), 0u);
  EXPECT_LE(exec->Finish().rows.size(),
            policy.max_groups + opts.low_level_slots);
}

}  // namespace
}  // namespace fwdecay::dsms
