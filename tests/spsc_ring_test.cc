// SPSC ring + pipelined-execution tests (util/spsc_ring.h,
// dsms::PipelinedQueryExecution, DESIGN.md §14):
//
//   * single-threaded boundary coverage: FIFO order, full/empty
//     verdicts across many counter laps, ownership transfer (move-only
//     payloads), destructor drain;
//   * a real-thread producer/consumer handoff stress (TSan leg in CI);
//   * schedule-explored fixtures running the REAL weak-memory model in
//     every build (the ring is instantiated on sched::ModelAtomic
//     directly): the publish memory-order contract — whose relaxed
//     mutation the explorer must catch — plus wraparound and full/empty
//     ABA exploration of the actual SpscRing;
//   * pipeline differentials against the single-threaded reference:
//     Finish() bit-identical for single-level plans, exact on the
//     integer-valued columns for two-level plans, with tiny
//     rings/batches so backpressure and wraparound are on the path —
//     including under schedule exploration;
//   * death tests: Consume() after Quiesce()/Finish() aborts.
//
// Replay: FWDECAY_SCHED_REPLAY tokens naming ring_publish[_fixed] /
// ring_wrap / ring_full_empty re-run that schedule here (this binary's
// EnvTokenReplay skips tokens owned by other fixtures).

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dsms/batch.h"
#include "dsms/engine.h"
#include "dsms/packet.h"
#include "dsms/udafs.h"
#include "dsms/value.h"
#include "util/random.h"
#include "util/sched.h"
#include "util/spsc_ring.h"
#include "util/stats.h"

namespace fwdecay {
namespace {

using dsms::CompiledQuery;
using dsms::OverloadPolicy;
using dsms::Packet;
using dsms::PacketBatch;
using dsms::PipelinedQueryExecution;
using dsms::ResultSet;
using dsms::Value;

// --------------------------------------------------------------------
// Single-threaded ring coverage
// --------------------------------------------------------------------

TEST(SpscRingTest, FifoOrderAndCapacityBound) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  int out = 0;
  EXPECT_FALSE(ring.TryPop(&out));
  for (int v = 0; v < 4; ++v) EXPECT_TRUE(ring.TryPush(int{v}));
  EXPECT_FALSE(ring.TryPush(99));  // full: the element is not consumed
  for (int v = 0; v < 4; ++v) {
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, v);
  }
  EXPECT_FALSE(ring.TryPop(&out));
}

// The monotonic-counter design keeps full (tail - head == capacity)
// and empty (tail - head == 0) distinct even though both map to the
// same slot index — the ABA that bites pointer-cursor rings. Drive a
// cap-2 ring through 100 laps and check every boundary verdict.
TEST(SpscRingTest, FullEmptyBoundaryExactAcrossManyLaps) {
  SpscRing<int> ring(2);
  int out = 0;
  for (int lap = 0; lap < 100; ++lap) {
    EXPECT_TRUE(ring.TryPush(2 * lap));
    EXPECT_TRUE(ring.TryPush(2 * lap + 1));
    EXPECT_FALSE(ring.TryPush(-1));
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, 2 * lap);
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, 2 * lap + 1);
    EXPECT_FALSE(ring.TryPop(&out));
  }
}

TEST(SpscRingTest, OwnershipTransferAndDestructorDrain) {
  // Move-only payloads compile and transfer ownership whole.
  SpscRing<std::unique_ptr<int>> uring(2);
  EXPECT_TRUE(uring.TryPush(std::make_unique<int>(42)));
  std::unique_ptr<int> got;
  ASSERT_TRUE(uring.TryPop(&got));
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, 42);

  // Elements never popped are destroyed by the ring destructor
  // (use_count is the witness; ASan/LSan watch the rest).
  auto token = std::make_shared<int>(7);
  {
    SpscRing<std::shared_ptr<int>> ring(4);
    EXPECT_TRUE(ring.TryPush(std::shared_ptr<int>(token)));
    EXPECT_TRUE(ring.TryPush(std::shared_ptr<int>(token)));
    EXPECT_EQ(token.use_count(), 3);
    std::shared_ptr<int> out;
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(*out, 7);
    out.reset();
    EXPECT_EQ(token.use_count(), 2);  // one element still in the ring
  }
  EXPECT_EQ(token.use_count(), 1);  // drained on destruction
}

// Real-thread handoff (the CI TSan leg runs this under instrumentation):
// a tight ring forces constant full/empty transitions and cursor-cache
// refreshes on both sides.
TEST(SpscRingTest, TwoThreadHandoffStress) {
  SpscRing<std::uint64_t> ring(8);
  constexpr std::uint64_t kItems = 200000;
  sched::Thread producer([&] {
    for (std::uint64_t v = 0; v < kItems; ++v) {
      while (!ring.TryPush(std::uint64_t{v})) std::this_thread::yield();
    }
  });
  std::uint64_t got = 0;
  for (std::uint64_t want = 0; want < kItems; ++want) {
    while (!ring.TryPop(&got)) std::this_thread::yield();
    ASSERT_EQ(got, want);
  }
  producer.Join();
  EXPECT_FALSE(ring.TryPop(&got));
}

// --------------------------------------------------------------------
// Schedule-explored fixtures (real weak-memory model in every build)
// --------------------------------------------------------------------

// The §14 publish edge, modeled. SpscRing's slots are plain memory
// (placement-new of arbitrary T) which the model cannot reorder, so
// this miniature mirror re-states the protocol with a ModelAtomic slot:
// producer writes the slot then publishes tail; consumer acquires tail
// then reads the slot. The buggy variant publishes relaxed — the model
// must find the schedule where the consumer observes the new tail but
// the stale slot.
void RingPublishBody(bool fixed) {
  sched::ModelAtomic<std::uint64_t> slot{0};
  sched::ModelAtomic<std::uint64_t> tail{0};
  sched::Thread producer([&] {
    slot.store(41, std::memory_order_relaxed);
    tail.store(1, fixed ? std::memory_order_release
                        : std::memory_order_relaxed);
  });
  if (tail.load(fixed ? std::memory_order_acquire
                      : std::memory_order_relaxed) == 1) {
    sched::Expect(slot.load(std::memory_order_relaxed) == 41,
                  "ring publish: tail observed before the slot write");
  }
  producer.Join();
}

// Wraparound on the REAL ring (cursors on ModelAtomic): five elements
// through a cap-2 ring wrap the mask twice; a stale-cursor bug shows up
// as a lost, duplicated, or reordered element.
void RingWrapBody() {
  SpscRing<std::uint64_t, sched::ModelAtomic> ring(2);
  sched::Thread producer([&] {
    for (std::uint64_t v = 0; v < 5; ++v) {
      while (!ring.TryPush(std::uint64_t{v})) sched::Yield();
    }
  });
  std::uint64_t got = 0;
  for (std::uint64_t want = 0; want < 5; ++want) {
    while (!ring.TryPop(&got)) sched::Yield();
    sched::Expect(got == want,
                  "ring wraparound: lost, duplicated, or reordered element");
  }
  producer.Join();
  sched::Expect(!ring.TryPop(&got),
                "ring wraparound: phantom element after drain");
}

// Full/empty ABA: three complete fill/drain cycles per schedule, then a
// quiesced boundary audit — a cursor misjudgement (treating full as
// empty or vice versa across a lap) corrupts the order or the final
// verdicts.
void RingFullEmptyBody() {
  SpscRing<std::uint64_t, sched::ModelAtomic> ring(2);
  sched::Thread producer([&] {
    for (std::uint64_t v = 0; v < 6; ++v) {
      while (!ring.TryPush(std::uint64_t{v})) sched::Yield();
    }
  });
  std::uint64_t got = 0;
  for (std::uint64_t want = 0; want < 6; ++want) {
    while (!ring.TryPop(&got)) sched::Yield();
    sched::Expect(got == want,
                  "full/empty ABA: wrong element across a counter lap");
  }
  producer.Join();
  sched::Expect(!ring.TryPop(&got),
                "full/empty ABA: phantom element after drain");
  sched::Expect(ring.TryPush(std::uint64_t{99}),
                "full/empty ABA: drained ring reports full");
}

TEST(SpscRingModelTest, ExplorationCatchesRelaxedPublish) {
  sched::ExploreOptions options;
  options.name = "ring_publish";
  const sched::ExploreResult result =
      sched::Explore(options, [] { RingPublishBody(false); });
  EXPECT_TRUE(result.failed)
      << "the relaxed-publish ring bug must be caught ("
      << result.schedules_run << " schedules explored)";
}

TEST(SpscRingModelTest, ReleaseAcquirePublishSurvivesExhaustiveExploration) {
  sched::ExploreOptions options;
  options.name = "ring_publish_fixed";
  const sched::ExploreResult result =
      sched::Explore(options, [] { RingPublishBody(true); });
  EXPECT_FALSE(result.failed)
      << result.failure << "\nreplay: " << result.replay_token;
  EXPECT_TRUE(result.exhausted);
}

TEST(SpscRingModelTest, WraparoundSurvivesBoundedExhaustiveExploration) {
  sched::ExploreOptions options;
  options.name = "ring_wrap";
  options.max_schedules = 2000;
  const sched::ExploreResult result = sched::Explore(options, RingWrapBody);
  EXPECT_FALSE(result.failed)
      << result.failure << "\nreplay: " << result.replay_token;
  EXPECT_GT(result.schedules_run, 0u);
}

TEST(SpscRingModelTest, FullEmptyAbaSurvivesBoundedExhaustiveExploration) {
  sched::ExploreOptions options;
  options.name = "ring_full_empty";
  options.max_schedules = 2000;
  const sched::ExploreResult result =
      sched::Explore(options, RingFullEmptyBody);
  EXPECT_FALSE(result.failed)
      << result.failure << "\nreplay: " << result.replay_token;
  EXPECT_GT(result.schedules_run, 0u);
}

// --------------------------------------------------------------------
// Pipeline differentials
// --------------------------------------------------------------------

constexpr char kPipelineQuery[] =
    "select srcPort, count(*), sum(len), avg(len) from TCP "
    "group by srcPort";

// Mixed-port TCP feed with some UDP rows so the protocol filter is on
// the routed path too.
std::vector<PacketBatch> MakeFeed(std::size_t n_packets,
                                  std::size_t batch_capacity,
                                  std::uint16_t port_spread) {
  Rng rng(0xfeedULL + port_spread);
  std::vector<PacketBatch> batches;
  PacketBatch batch(batch_capacity);
  double t = 0.0;
  for (std::size_t i = 0; i < n_packets; ++i) {
    t += 0.001;
    Packet p;
    p.time = t;
    p.src_ip = 0x0a000001u + static_cast<std::uint32_t>(i % 7);
    p.dest_ip = 0x0a00ff01u;
    p.src_port =
        static_cast<std::uint16_t>(1000 + i % port_spread);
    p.dest_port = 443;
    p.len = 40 + static_cast<std::uint32_t>(rng.NextBounded(1400));
    p.protocol = (i % 9 == 0) ? dsms::kProtoUdp : dsms::kProtoTcp;
    batch.Append(p);
    if (batch.full()) {
      batches.push_back(std::move(batch));
      batch = PacketBatch(batch_capacity);
    }
  }
  if (!batch.empty()) batches.push_back(std::move(batch));
  return batches;
}

bool BitIdentical(const ResultSet& got, const ResultSet& want) {
  if (got.columns != want.columns || got.rows.size() != want.rows.size()) {
    return false;
  }
  for (std::size_t r = 0; r < got.rows.size(); ++r) {
    if (got.rows[r].size() != want.rows[r].size()) return false;
    for (std::size_t c = 0; c < got.rows[r].size(); ++c) {
      const Value& a = got.rows[r][c];
      const Value& b = want.rows[r][c];
      if (a.is_double() != b.is_double()) return false;
      if (a.is_double()) {
        if (std::bit_cast<std::uint64_t>(a.AsDouble()) !=
            std::bit_cast<std::uint64_t>(b.AsDouble())) {
          return false;
        }
      } else if (!(a == b)) {
        return false;
      }
    }
  }
  return true;
}

// Single-level plans: every group moves wholesale at the merge, so the
// pipeline's Finish() is bit-identical to the single-threaded reference
// — doubles included — at every shard count. Tiny rings and sub-batches
// put backpressure, wraparound, and partial-fill flush on the path.
TEST(PipelinedExecutionTest, FinishBitIdenticalToSingleThreadReference) {
  dsms::RegisterPaperUdafs();
  std::string error;
  auto plan = CompiledQuery::Compile(kPipelineQuery, &error, {});
  ASSERT_NE(plan, nullptr) << error;

  const std::vector<PacketBatch> feed =
      MakeFeed(/*n_packets=*/4096, /*batch_capacity=*/64, /*port_spread=*/13);
  auto reference = plan->NewExecution();
  for (const PacketBatch& b : feed) reference->Consume(b);
  const ResultSet want = reference->Finish();

  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    PipelinedQueryExecution::Options options;
    options.num_shards = shards;
    options.ring_capacity = 4;
    options.batch_capacity = 32;
    PipelinedQueryExecution pipeline(*plan, options);
    for (const PacketBatch& b : feed) pipeline.Consume(b);
    const ResultSet got = pipeline.Finish();
    EXPECT_EQ(pipeline.packets_consumed(), 4096u) << shards << " shards";
    EXPECT_TRUE(BitIdentical(got, want))
        << shards << " shards:\n--- got ---\n" << got.ToString()
        << "--- want ---\n" << want.ToString();
  }
}

// Two-level plans: each shard's low-level table evicts at different
// points than the single table, so fractional doubles (avg) may differ
// in the last ulp; the integer-valued columns stay exact (DESIGN.md
// §8.3). Four shards with small low tables keep evictions on the path.
TEST(PipelinedExecutionTest, TwoLevelFourShardsMatchReferenceIntegerExact) {
  dsms::RegisterPaperUdafs();
  std::string error;
  CompiledQuery::Options copts;
  copts.two_level = true;
  copts.low_level_slots = 64;
  auto plan = CompiledQuery::Compile(kPipelineQuery, &error, copts);
  ASSERT_NE(plan, nullptr) << error;

  const std::vector<PacketBatch> feed =
      MakeFeed(/*n_packets=*/4096, /*batch_capacity=*/128,
               /*port_spread=*/251);
  auto reference = plan->NewExecution();
  for (const PacketBatch& b : feed) reference->Consume(b);
  const ResultSet want = reference->Finish();

  PipelinedQueryExecution::Options options;
  options.num_shards = 4;
  options.ring_capacity = 8;
  options.batch_capacity = 64;
  PipelinedQueryExecution pipeline(*plan, options);
  for (const PacketBatch& b : feed) pipeline.Consume(b);
  pipeline.Quiesce();
  EXPECT_GT(pipeline.low_level_evictions(), 0u);
  EXPECT_EQ(pipeline.tuples_aggregated(), reference->tuples_aggregated());
  const ResultSet got = pipeline.Finish();

  ASSERT_EQ(got.columns, want.columns);
  ASSERT_EQ(got.rows.size(), want.rows.size());
  for (std::size_t r = 0; r < got.rows.size(); ++r) {
    // srcPort, count(*), sum(len).
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_TRUE(got.rows[r][c] == want.rows[r][c])
          << "row " << r << " col " << c << ": "
          << got.rows[r][c].ToString() << " vs "
          << want.rows[r][c].ToString();
    }
  }
}

// Overload shedding is a per-shard decision on the per-shard stream. At
// one shard the pipeline is the single-threaded engine behind the
// router, so its frozen post-Quiesce stats and its Finish() match the
// reference exactly; at two shards each shard bounds its own table.
TEST(PipelinedExecutionTest, OverloadPolicyStatsAndAuditAfterQuiesce) {
  dsms::RegisterPaperUdafs();
  std::string error;
  auto plan = CompiledQuery::Compile(kPipelineQuery, &error, {});
  ASSERT_NE(plan, nullptr) << error;

  const std::vector<PacketBatch> feed =
      MakeFeed(/*n_packets=*/2048, /*batch_capacity=*/64, /*port_spread=*/64);
  OverloadPolicy policy;
  policy.max_groups = 4;
  policy.decay_alpha = 0.01;

  auto reference = plan->NewExecution();
  reference->SetOverloadPolicy(policy);
  for (const PacketBatch& b : feed) reference->Consume(b);
  const std::uint64_t want_tuples = reference->tuples_aggregated();
  const std::uint64_t want_groups_shed = reference->groups_shed();
  const std::uint64_t want_tuples_shed = reference->tuples_shed();
  const ResultSet want = reference->Finish();

  for (std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    PipelinedQueryExecution::Options options;
    options.num_shards = shards;
    options.ring_capacity = 4;
    options.batch_capacity = 32;
    PipelinedQueryExecution pipeline(*plan, options);
    pipeline.SetOverloadPolicy(policy);
    for (const PacketBatch& b : feed) pipeline.Consume(b);
    pipeline.Quiesce();
    pipeline.Quiesce();  // idempotent

    EXPECT_EQ(pipeline.packets_consumed(), 2048u) << shards << " shards";
    EXPECT_LE(pipeline.GroupCount(), shards * policy.max_groups);
    EXPECT_GT(pipeline.groups_shed(), 0u) << shards << " shards";
    pipeline.CheckInvariants();
    if (shards == 1) {
      EXPECT_EQ(pipeline.tuples_aggregated(), want_tuples);
      EXPECT_EQ(pipeline.groups_shed(), want_groups_shed);
      EXPECT_EQ(pipeline.tuples_shed(), want_tuples_shed);
      const ResultSet got = pipeline.Finish();
      EXPECT_TRUE(BitIdentical(got, want))
          << "--- got ---\n" << got.ToString()
          << "--- want ---\n" << want.ToString();
    }
  }
}

// A two-column key over skewed ports: group sizes range widely, with
// many ties, so HAVING, a tied descending ORDER BY and LIMIT all bite.
constexpr char kMergeQuery[] =
    "select srcIP, srcPort, count(*) as n, sum(len), avg(len) from TCP "
    "group by srcIP, srcPort having count(*) > 3 order by n desc limit 25";

std::vector<PacketBatch> MakeSkewedFeed(std::size_t n_packets,
                                        std::size_t batch_capacity) {
  Rng rng(0x5eedULL);
  std::vector<PacketBatch> batches;
  PacketBatch batch(batch_capacity);
  for (std::size_t i = 0; i < n_packets; ++i) {
    Packet p;
    p.time = 0.001 * static_cast<double>(i + 1);
    p.src_ip = 0x0a000001u + static_cast<std::uint32_t>(i % 5);
    p.dest_ip = 0x0a00ff01u;
    p.src_port = static_cast<std::uint16_t>(
        1000 + rng.NextBounded(1 + rng.NextBounded(24)));
    p.dest_port = 443;
    p.len = 40 + static_cast<std::uint32_t>(rng.NextBounded(1400));
    p.protocol = (i % 9 == 0) ? dsms::kProtoUdp : dsms::kProtoTcp;
    batch.Append(p);
    if (batch.full()) {
      batches.push_back(std::move(batch));
      batch = PacketBatch(batch_capacity);
    }
  }
  if (!batch.empty()) batches.push_back(std::move(batch));
  return batches;
}

// The shard-parallel Finish() finalizes each shard's key-sorted groups
// on its own thread and N-way-merges them; HAVING runs per shard, ORDER
// BY and LIMIT after the merge. Bit-identical to the single-threaded
// reference at 1-4 shards — 3 is not a power of two, so routing takes
// the scalar modulo — and the tied ORDER BY keys prove the merge
// restores the exact group-key order the stable sort breaks ties by.
TEST(PipelinedExecutionTest, ShardMergeHavingOrderLimitBitIdentical) {
  dsms::RegisterPaperUdafs();
  std::string error;
  auto plan = CompiledQuery::Compile(kMergeQuery, &error, {});
  ASSERT_NE(plan, nullptr) << error;
  auto unlimited = CompiledQuery::Compile(
      "select srcIP, srcPort, count(*) from TCP group by srcIP, srcPort",
      &error, {});
  ASSERT_NE(unlimited, nullptr) << error;

  const std::vector<PacketBatch> feed =
      MakeSkewedFeed(/*n_packets=*/6000, /*batch_capacity=*/128);
  auto reference = plan->NewExecution();
  auto all_groups = unlimited->NewExecution();
  for (const PacketBatch& b : feed) {
    reference->Consume(b);
    all_groups->Consume(b);
  }
  const ResultSet want = reference->Finish();
  const ResultSet every = all_groups->Finish();

  // The fixture must exercise each clause: some group fails HAVING,
  // more than LIMIT groups pass it, and the kept rows tie on n.
  std::size_t failing = 0;
  for (const auto& row : every.rows) failing += row[2].AsInt() <= 3 ? 1 : 0;
  ASSERT_GT(failing, 0u);
  ASSERT_GT(every.rows.size() - failing, 25u);
  ASSERT_EQ(want.rows.size(), 25u);
  std::size_t ties = 0;
  for (std::size_t r = 1; r < want.rows.size(); ++r) {
    ties += want.rows[r][2] == want.rows[r - 1][2] ? 1 : 0;
  }
  ASSERT_GT(ties, 0u);

  for (std::size_t shards = 1; shards <= 4; ++shards) {
    PipelinedQueryExecution::Options options;
    options.num_shards = shards;
    options.ring_capacity = 4;
    options.batch_capacity = 32;
    PipelinedQueryExecution pipeline(*plan, options);
    for (const PacketBatch& b : feed) pipeline.Consume(b);
    pipeline.Quiesce();
    pipeline.CheckInvariants();
    EXPECT_EQ(pipeline.GroupCount(), every.rows.size()) << shards;
    const ResultSet got = pipeline.Finish();
    EXPECT_TRUE(BitIdentical(got, want))
        << shards << " shards:\n--- got ---\n" << got.ToString()
        << "--- want ---\n" << want.ToString();
  }
}

// Shards that receive no rows contribute empty lists to the merge: one
// surviving group at four shards leaves at least three shards empty,
// and an input with no rows at all leaves every shard empty.
TEST(PipelinedExecutionTest, ShardMergeWithEmptyShards) {
  dsms::RegisterPaperUdafs();
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select srcIP, srcPort, count(*), avg(len) from TCP "
      "where srcPort = 1000 and srcIP = 167772161 group by srcIP, srcPort",
      &error, {});
  ASSERT_NE(plan, nullptr) << error;

  const std::vector<PacketBatch> feed =
      MakeSkewedFeed(/*n_packets=*/3000, /*batch_capacity=*/128);
  const std::vector<PacketBatch> no_rows;
  for (const std::vector<PacketBatch>* input : {&feed, &no_rows}) {
    auto reference = plan->NewExecution();
    for (const PacketBatch& b : *input) reference->Consume(b);
    const ResultSet want = reference->Finish();
    ASSERT_EQ(want.rows.size(), input->empty() ? 0u : 1u);

    PipelinedQueryExecution::Options options;
    options.num_shards = 4;
    PipelinedQueryExecution pipeline(*plan, options);
    for (const PacketBatch& b : *input) pipeline.Consume(b);
    const ResultSet got = pipeline.Finish();
    EXPECT_TRUE(BitIdentical(got, want))
        << "--- got ---\n" << got.ToString()
        << "--- want ---\n" << want.ToString();
  }
}

// --------------------------------------------------------------------
// Deterministic samplers
// --------------------------------------------------------------------
//
// Sampler uniforms hash from each row's determinator (DESIGN.md §8.4),
// which the router derives from the row's position in its own input. A
// group's sample therefore does not depend on the shard count, nor —
// for the heap samplers, whose merge is exact — on two-level evictions.
// srcPort % 8 gives every group ~450 rows, far more than k = 8, so the
// samples really select (grouping by srcPort alone would keep every
// item and prove nothing).

constexpr char kHeapSamplerQuery[] =
    "select srcPort % 8 as g, PRISAMP(len, time + 1, 8), "
    "WRSAMP(len, len, 8), RESSAMP(len, 8) from TCP group by srcPort % 8";

ResultSet RunReference(const CompiledQuery& plan,
                       const std::vector<PacketBatch>& feed) {
  auto reference = plan.NewExecution();
  for (const PacketBatch& b : feed) reference->Consume(b);
  return reference->Finish();
}

ResultSet RunPipeline(const CompiledQuery& plan,
                      const std::vector<PacketBatch>& feed,
                      std::size_t shards) {
  PipelinedQueryExecution::Options options;
  options.num_shards = shards;
  options.ring_capacity = 4;
  options.batch_capacity = 32;
  PipelinedQueryExecution pipeline(plan, options);
  for (const PacketBatch& b : feed) pipeline.Consume(b);
  return pipeline.Finish();
}

TEST(PipelinedSamplerTest, HeapSamplersMatchReferenceOneAndTwoLevel) {
  dsms::RegisterPaperUdafs();
  std::string error;
  auto one_level = CompiledQuery::Compile(kHeapSamplerQuery, &error, {});
  ASSERT_NE(one_level, nullptr) << error;
  CompiledQuery::Options copts;
  copts.two_level = true;
  copts.low_level_slots = 4;  // 8 groups in 4 slots: evictions throughout
  auto two_level = CompiledQuery::Compile(kHeapSamplerQuery, &error, copts);
  ASSERT_NE(two_level, nullptr) << error;

  const std::vector<PacketBatch> feed =
      MakeFeed(/*n_packets=*/4096, /*batch_capacity=*/64, /*port_spread=*/64);
  const ResultSet want = RunReference(*one_level, feed);
  ASSERT_EQ(want.rows.size(), 8u);
  // Exact merges: the two-level split reproduces the one-level samples.
  const ResultSet two_level_ref = RunReference(*two_level, feed);
  EXPECT_TRUE(BitIdentical(two_level_ref, want))
      << "--- two-level ---\n" << two_level_ref.ToString()
      << "--- one-level ---\n" << want.ToString();
  for (std::size_t shards = 1; shards <= 4; ++shards) {
    for (const CompiledQuery* plan : {one_level.get(), two_level.get()}) {
      const ResultSet got = RunPipeline(*plan, feed, shards);
      EXPECT_TRUE(BitIdentical(got, want))
          << shards << " shards, two_level=" << plan->options().two_level
          << ":\n--- got ---\n" << got.ToString() << "--- want ---\n"
          << want.ToString();
    }
  }
}

// AGGSAMP is a sequential reservoir with no exact union, so only the
// one-level plan — where each group's rows reach one state in stream
// order — is bit-identical across shard counts.
TEST(PipelinedSamplerTest, AggsampOneLevelMatchesReference) {
  dsms::RegisterPaperUdafs();
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select srcPort % 8 as g, AGGSAMP(len, 8) from TCP group by srcPort % 8",
      &error, {});
  ASSERT_NE(plan, nullptr) << error;
  const std::vector<PacketBatch> feed =
      MakeFeed(/*n_packets=*/4096, /*batch_capacity=*/64, /*port_spread=*/64);
  const ResultSet want = RunReference(*plan, feed);
  ASSERT_EQ(want.rows.size(), 8u);
  for (std::size_t shards = 1; shards <= 4; ++shards) {
    const ResultSet got = RunPipeline(*plan, feed, shards);
    EXPECT_TRUE(BitIdentical(got, want))
        << shards << " shards:\n--- got ---\n" << got.ToString()
        << "--- want ---\n" << want.ToString();
  }
}

std::vector<double> ParseSample(const std::string& rendered) {
  std::vector<double> out;
  std::size_t begin = 0;
  while (begin < rendered.size()) {
    std::size_t end = rendered.find(',', begin);
    if (end == std::string::npos) end = rendered.size();
    out.push_back(std::stod(rendered.substr(begin, end - begin)));
    begin = end + 1;
  }
  return out;
}

// Merge(sample(A), sample(B)) finalizes to sample(A ∪ B) for any
// partition A|B of a stream — the property the two-level split and any
// shard-level merge rely on. Partitions range from lopsided (A or B
// empty) to even.
TEST(DeterministicSamplerTest, MergeOfAnyPartitionEqualsWholeStreamSample) {
  dsms::RegisterPaperUdafs();
  const auto& registry = dsms::AggRegistry::Instance();
  Rng rng(0x5a3b1eULL);
  for (const std::string name : {"prisamp", "wrsamp", "ressamp"}) {
    const bool weighted = name != "ressamp";
    for (int trial = 0; trial < 40; ++trial) {
      auto whole = registry.Create(name);
      auto a = registry.Create(name);
      auto b = registry.Create(name);
      const double a_share = trial % 10 == 0 ? (trial % 20 == 0 ? 1.0 : 0.0)
                                             : rng.NextDouble();
      for (std::uint64_t i = 0; i < 300; ++i) {
        const auto item = static_cast<double>(rng.NextBounded(1000));
        const auto w = static_cast<double>(1 + rng.NextBounded(100));
        const std::vector<Value> args =
            weighted ? std::vector<Value>{Value(item), Value(w), Value(8.0)}
                     : std::vector<Value>{Value(item), Value(8.0)};
        const std::uint64_t det =
            dsms::RowDeterminator(300 * static_cast<std::uint64_t>(trial) + i,
                                  0.01 * static_cast<double>(i));
        whole->Update(args, det);
        (rng.NextDouble() < a_share ? a : b)->Update(args, det);
      }
      a->Merge(*b);
      const std::string want = whole->Finalize().ToString();
      EXPECT_EQ(ParseSample(want).size(), 8u) << name;
      EXPECT_EQ(a->Finalize().ToString(), want)
          << name << " trial " << trial << " a_share " << a_share;
    }
  }
}

// The hash-derived uniforms sample at the target frequencies, within the
// library samplers' tolerances (sampling_test.cc): RESSAMP keeps each of
// 20 items in a k = 5 sample with p = 1/4, and WRSAMP's k = 1 draw
// follows the weights. Each trial is a fresh stretch of stream positions.
TEST(DeterministicSamplerTest, HashDerivedUniformsHitTargetInclusionRates) {
  dsms::RegisterPaperUdafs();
  const auto& registry = dsms::AggRegistry::Instance();
  {
    const int kTrials = 20000;
    std::vector<double> inclusions(20, 0.0);
    for (int trial = 0; trial < kTrials; ++trial) {
      auto state = registry.Create("ressamp");
      for (int i = 0; i < 20; ++i) {
        const std::vector<Value> args{Value(static_cast<double>(i)),
                                      Value(5.0)};
        state->Update(args, dsms::RowDeterminator(
                                static_cast<std::uint64_t>(20 * trial + i),
                                0.5 * i));
      }
      for (double v : ParseSample(state->Finalize().AsString())) {
        ++inclusions[static_cast<std::size_t>(v)];
      }
    }
    for (int i = 0; i < 20; ++i) {
      EXPECT_NEAR(inclusions[i] / kTrials, 0.25, 0.02) << "item " << i;
    }
  }
  {
    const double weights[] = {25, 49, 9, 64, 16};
    const int kTrials = 50000;
    std::vector<double> counts(5, 0.0);
    for (int trial = 0; trial < kTrials; ++trial) {
      auto state = registry.Create("wrsamp");
      for (int i = 0; i < 5; ++i) {
        const std::vector<Value> args{Value(static_cast<double>(i)),
                                      Value(weights[i]), Value(1.0)};
        state->Update(args, dsms::RowDeterminator(
                                static_cast<std::uint64_t>(5 * trial + i),
                                100.0 + i));
      }
      const std::vector<double> sample =
          ParseSample(state->Finalize().AsString());
      ASSERT_EQ(sample.size(), 1u);
      ++counts[static_cast<std::size_t>(sample[0])];
    }
    std::vector<double> expected;
    for (double w : weights) expected.push_back(w / 163.0 * kTrials);
    EXPECT_LT(ChiSquaredStatistic(counts, expected), 18.5);
  }
}

// After Quiesce() the workers are joined: a later batch would be lost in
// the pending sub-batch or spin forever on a full ring, so Consume()
// must abort — in release builds too (FWDECAY_CHECK, not a DCHECK).
TEST(PipelinedExecutionDeathTest, ConsumeAfterQuiesceOrFinishAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::string error;
  auto plan = CompiledQuery::Compile(kPipelineQuery, &error, {});
  ASSERT_NE(plan, nullptr) << error;
  const std::vector<PacketBatch> feed =
      MakeFeed(/*n_packets=*/256, /*batch_capacity=*/64, /*port_spread=*/13);
  EXPECT_DEATH(
      {
        PipelinedQueryExecution pipeline(*plan, {});
        pipeline.Consume(feed[0]);
        pipeline.Quiesce();
        pipeline.Consume(feed[1]);
      },
      "Consume after Quiesce/Finish");
  EXPECT_DEATH(
      {
        PipelinedQueryExecution pipeline(*plan, {});
        pipeline.Consume(feed[0]);
        (void)pipeline.Finish();
        pipeline.Consume(feed[1]);
      },
      "Consume after Quiesce/Finish");
}

// Schedule-explored pipeline differential: a tiny pipeline (2 workers,
// cap-2 rings, 2-row sub-batches) driven from the explored thread, with
// Finish() bit-identical to the reference on EVERY schedule. In the
// default build the ring cursors are PlainAtomic, so this explores
// spawn/join/yield orderings; the CI sched-explore build
// (-DFWDECAY_SCHED=ON) routes the cursors and the stop flag through the
// weak-memory model.
TEST(SpscRingModelTest, PipelineFinishBitExactUnderExploration) {
  dsms::RegisterPaperUdafs();
  std::string error;
  auto plan = CompiledQuery::Compile(kPipelineQuery, &error, {});
  ASSERT_NE(plan, nullptr) << error;

  const std::vector<PacketBatch> feed =
      MakeFeed(/*n_packets=*/12, /*batch_capacity=*/4, /*port_spread=*/5);
  auto reference = plan->NewExecution();
  for (const PacketBatch& b : feed) reference->Consume(b);
  const ResultSet want = reference->Finish();

  const auto body = [&] {
    PipelinedQueryExecution::Options options;
    options.num_shards = 2;
    options.ring_capacity = 2;
    options.batch_capacity = 2;
    PipelinedQueryExecution pipeline(*plan, options);
    for (const PacketBatch& b : feed) {
      pipeline.Consume(b);
      sched::Yield();
    }
    sched::Expect(pipeline.packets_consumed() == 12,
                  "pipeline: router dropped or double-counted packets");
    sched::Expect(BitIdentical(pipeline.Finish(), want),
                  "pipeline: Finish() diverged from the single-threaded "
                  "reference under this schedule");
  };

  sched::ExploreOptions random_options;
  random_options.name = "pipeline_merge";
  random_options.mode = sched::Mode::kRandom;
  random_options.max_schedules = 24;
  random_options.seed = 0xf00fULL;
  if (const char* env = std::getenv("FWDECAY_SCHED_SEED");
      env != nullptr && env[0] != '\0') {
    random_options.seed = std::strtoull(env, nullptr, 0);
  }
  const sched::ExploreResult random_result =
      sched::Explore(random_options, body);
  EXPECT_FALSE(random_result.failed)
      << random_result.failure << "\nseed: " << random_options.seed
      << "\nreplay: " << random_result.replay_token;

  sched::ExploreOptions dfs_options;
  dfs_options.name = "pipeline_merge";
  dfs_options.max_schedules = 32;
  const sched::ExploreResult dfs_result = sched::Explore(dfs_options, body);
  EXPECT_FALSE(dfs_result.failed)
      << dfs_result.failure << "\nreplay: " << dfs_result.replay_token;
}

// --------------------------------------------------------------------
// Replay entry point for the ring fixtures (tokens from the explored
// tests above; scripts/reproduce.sh forwards FWDECAY_SCHED_REPLAY).
// --------------------------------------------------------------------

TEST(SpscRingReplayTest, EnvTokenReplay) {
  const char* token = std::getenv("FWDECAY_SCHED_REPLAY");
  if (token == nullptr || token[0] == '\0') {
    GTEST_SKIP() << "FWDECAY_SCHED_REPLAY not set";
  }
  std::string name;
  std::string error;
  ASSERT_TRUE(sched::ParseReplayToken(token, &name, &error)) << error;

  std::function<void()> body;
  if (name == "ring_publish") {
    body = [] { RingPublishBody(false); };
  } else if (name == "ring_publish_fixed") {
    body = [] { RingPublishBody(true); };
  } else if (name == "ring_wrap") {
    body = RingWrapBody;
  } else if (name == "ring_full_empty") {
    body = RingFullEmptyBody;
  } else {
    GTEST_SKIP() << "token names fixture '" << name
                 << "', which is not owned by this binary";
  }
  const sched::ExploreResult replay = sched::Replay(token, name.c_str(), body);
  EXPECT_FALSE(replay.failed)
      << "replayed schedule fails: " << replay.failure;
}

}  // namespace
}  // namespace fwdecay
