// Tests for the tumbling-window runner: per-bucket emission, watermark
// + slack behaviour under out-of-order delivery, and late-tuple drops.

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dsms/engine.h"
#include "dsms/netgen.h"
#include "dsms/tumbling.h"
#include "dsms/udafs.h"

namespace fwdecay::dsms {
namespace {

Packet At(double time, std::uint16_t port = 80) {
  Packet p;
  p.time = time;
  p.dest_port = port;
  p.len = 100;
  p.protocol = kProtoTcp;
  return p;
}

std::unique_ptr<CompiledQuery> CountPlan() {
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select destPort, count(*) from TCP group by destPort", &error);
  EXPECT_NE(plan, nullptr) << error;
  return plan;
}

TEST(TumblingRunnerTest, EmitsBucketsInOrderAsWatermarkAdvances) {
  auto plan = CountPlan();
  std::vector<std::int64_t> emitted;
  std::map<std::int64_t, std::int64_t> counts;
  TumblingRunner runner(plan.get(), /*bucket_seconds=*/60.0,
                        [&](std::int64_t bucket, ResultSet rs) {
                          emitted.push_back(bucket);
                          counts[bucket] = rs.rows[0][1].AsInt();
                        });
  runner.Consume(At(10.0));
  runner.Consume(At(30.0));
  EXPECT_TRUE(emitted.empty());  // bucket 0 still open
  runner.Consume(At(61.0));      // watermark passes bucket 0's end
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0], 0);
  EXPECT_EQ(counts[0], 2);
  runner.Consume(At(200.0));  // closes bucket 1 (bucket 2 stays open)
  ASSERT_EQ(emitted.size(), 2u);
  EXPECT_EQ(emitted[1], 1);
  EXPECT_EQ(counts[1], 1);
  runner.Flush();
  ASSERT_EQ(emitted.size(), 3u);
  EXPECT_EQ(emitted[2], 3);
  EXPECT_EQ(runner.open_buckets(), 0u);
}

TEST(TumblingRunnerTest, SlackToleratesOutOfOrderArrivals) {
  auto plan = CountPlan();
  std::map<std::int64_t, std::int64_t> counts;
  TumblingRunner runner(
      plan.get(), 60.0,
      [&](std::int64_t bucket, ResultSet rs) {
        counts[bucket] = rs.rows[0][1].AsInt();
      },
      /*slack_seconds=*/5.0);
  runner.Consume(At(59.0));
  runner.Consume(At(62.0));  // watermark 62 < 60 + 5: bucket 0 held open
  EXPECT_EQ(runner.open_buckets(), 2u);
  runner.Consume(At(58.0));  // late but within slack: still counted
  runner.Consume(At(66.0));  // watermark 66 >= 65: bucket 0 emits
  EXPECT_EQ(counts.count(0), 1u);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(runner.late_drops(), 0u);
}

TEST(TumblingRunnerTest, DropsTuplesForEmittedBuckets) {
  auto plan = CountPlan();
  int emissions = 0;
  TumblingRunner runner(plan.get(), 60.0,
                        [&](std::int64_t, ResultSet) { ++emissions; });
  runner.Consume(At(10.0));
  runner.Consume(At(120.0));  // bucket 0 emitted
  EXPECT_EQ(emissions, 1);
  runner.Consume(At(15.0));  // too late
  EXPECT_EQ(runner.late_drops(), 1u);
  runner.Flush();
  EXPECT_EQ(emissions, 2);
}

TEST(TumblingRunnerTest, EachWindowDrawsItsOwnSamplerUniforms) {
  // Every bucket's execution counts stream positions from 0, so two
  // windows with the same rows at the same offsets share positions. The
  // timestamp in each row's determinator still gives them independent
  // uniforms: the samples differ (equal 4-of-200 samples have chance
  // ~1e-8).
  RegisterPaperUdafs();
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select destPort, RESSAMP(len, 4) from TCP group by destPort", &error);
  ASSERT_NE(plan, nullptr) << error;
  std::map<std::int64_t, std::string> samples;
  TumblingRunner runner(plan.get(), /*bucket_seconds=*/60.0,
                        [&](std::int64_t bucket, ResultSet rs) {
                          samples[bucket] = rs.rows[0][1].AsString();
                        });
  for (int window = 0; window < 2; ++window) {
    for (int i = 0; i < 200; ++i) {
      Packet p = At(60.0 * window + 0.1 * i);
      p.len = static_cast<std::uint32_t>(i);
      runner.Consume(p);
    }
  }
  runner.Flush();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_NE(samples[0], samples[1]);
}

TEST(TumblingRunnerTest, EndToEndOverJitteredTrace) {
  // A jittered trace through a per-minute count query: bucket counts
  // must sum to (kept) packets, and with enough slack nothing is lost.
  TraceConfig cfg;
  cfg.rate_pps = 5000.0;
  cfg.reorder_jitter = 1.0;
  cfg.tcp_fraction = 1.0;
  cfg.seed = 3;
  PacketGenerator gen(cfg);
  const auto packets = gen.Generate(5000 * 130);  // ~130 seconds

  std::string error;
  auto plan = CompiledQuery::Compile(
      "select tb, count(*) from TCP group by time/60 as tb", &error);
  ASSERT_NE(plan, nullptr) << error;
  std::int64_t total = 0;
  TumblingRunner runner(
      plan.get(), 60.0,
      [&](std::int64_t, ResultSet rs) {
        for (const auto& row : rs.rows) total += row[1].AsInt();
      },
      /*slack_seconds=*/2.0);
  for (const Packet& p : packets) runner.Consume(p);
  runner.Flush();
  EXPECT_EQ(runner.late_drops(), 0u);
  EXPECT_EQ(total, static_cast<std::int64_t>(packets.size()));
}

}  // namespace
}  // namespace fwdecay::dsms
