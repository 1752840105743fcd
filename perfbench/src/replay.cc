// Stage-replay ledger: the engine's batch kernels re-run, from outside
// the engine, over a workload's own batches. Each stage is timed alone
// (median of several passes), so the engine's consume time minus these
// stages leaves group lookup + update + eviction.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "dsms/batch.h"
#include "dsms/column.h"
#include "dsms/expr.h"
#include "dsms/packet.h"
#include "dsms/parser.h"
#include "server/frame.h"
#include "util/hash.h"
#include "util/simd.h"
#include "workloads.h"

namespace perfbench {
namespace {

using fwdecay::dsms::BatchEvalScratch;
using fwdecay::dsms::PacketBatch;
using fwdecay::dsms::ValueColumn;

constexpr int kPasses = 5;
// Same seed algebra as the engine's group hash (the cost is seed-free).
constexpr std::uint64_t kHashSeed = 0x12345678abcdef01ULL;
constexpr std::uint64_t kShardSeed = 0x5ca1ab1e0ddba11ULL;

// Median over passes of one pass's wall time.
double MedianPassNs(const std::function<void()>& pass) {
  std::vector<double> ns;
  for (int i = 0; i < kPasses; ++i) {
    const std::int64_t t0 = NowNs();
    pass();
    ns.push_back(static_cast<double>(NowNs() - t0));
  }
  return Median(ns);
}

}  // namespace

void StageReplay(const std::vector<const PacketBatch*>& batches,
                 const std::vector<std::string>& key_exprs, MetricMap* layer) {
  std::vector<std::unique_ptr<fwdecay::dsms::Expr>> keys;
  for (const auto& text : key_exprs) {
    auto parsed = fwdecay::dsms::ParseExpressionOnly(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "perfbench: bad key expression %s\n", text.c_str());
      return;
    }
    keys.push_back(std::move(parsed.expr));
  }
  std::size_t packets = 0;
  for (const PacketBatch* b : batches) packets += b->size();
  if (packets == 0) return;
  const double n = static_cast<double>(packets);
  const std::uint32_t shards = std::max(1u, Nproc() - 1);

  // Inputs of each later stage, materialised once per batch.
  std::vector<std::vector<std::uint32_t>> sels(batches.size());
  std::vector<std::vector<ValueColumn>> cols(batches.size());
  std::vector<std::vector<std::uint64_t>> hashes(batches.size());
  std::vector<std::vector<std::uint32_t>> shard_ids(batches.size());
  BatchEvalScratch scratch;
  std::uint64_t sink = 0;

  const double filter_ns = MedianPassNs([&] {
    for (std::size_t b = 0; b < batches.size(); ++b) {
      sels[b].resize(batches[b]->size());
      const std::size_t m = fwdecay::simd::FilterByteEq(
          batches[b]->protocol(), fwdecay::dsms::kProtoTcp, batches[b]->size(),
          sels[b].data());
      sels[b].resize(m);
    }
  });
  const double key_ns = MedianPassNs([&] {
    for (std::size_t b = 0; b < batches.size(); ++b) {
      cols[b].resize(keys.size());
      for (std::size_t k = 0; k < keys.size(); ++k) {
        fwdecay::dsms::EvalExprBatch(*keys[k], *batches[b], sels[b].data(),
                                     sels[b].size(), &scratch, &cols[b][k]);
      }
    }
  });
  // The engine's hash stage: the SIMD kernel for one int64 key, the
  // per-row combine over Value::Hash otherwise.
  const double hash_ns = MedianPassNs([&] {
    for (std::size_t b = 0; b < batches.size(); ++b) {
      const std::size_t m = sels[b].size();
      hashes[b].resize(m);
      if (keys.size() == 1 && cols[b][0].rep() == ValueColumn::Rep::kI64) {
        fwdecay::simd::GroupHashI64(cols[b][0].i64_data(), m, kHashSeed,
                                    hashes[b].data());
        continue;
      }
      for (std::size_t i = 0; i < m; ++i) {
        std::uint64_t h = kHashSeed;
        for (std::size_t k = 0; k < keys.size(); ++k) {
          h = fwdecay::HashCombine(h, cols[b][k][i].Hash());
        }
        hashes[b][i] = h;
      }
    }
  });
  const double shard_ns = MedianPassNs([&] {
    for (std::size_t b = 0; b < batches.size(); ++b) {
      shard_ids[b].resize(hashes[b].size());
      fwdecay::simd::ShardIndexU64(hashes[b].data(), hashes[b].size(),
                                   kShardSeed, shards, shard_ids[b].data());
    }
  });
  std::vector<std::vector<std::vector<std::uint32_t>>> rows(batches.size());
  for (std::size_t b = 0; b < batches.size(); ++b) {
    rows[b].resize(shards);
    for (std::size_t i = 0; i < shard_ids[b].size(); ++i) {
      rows[b][shard_ids[b][i]].push_back(sels[b][i]);
    }
  }
  std::vector<PacketBatch> sub(shards,
                               PacketBatch(PacketBatch::kDefaultCapacity));
  const double gather_ns = MedianPassNs([&] {
    for (std::size_t b = 0; b < batches.size(); ++b) {
      for (std::uint32_t s = 0; s < shards; ++s) {
        sub[s].Clear();
        sub[s].AppendSelected(*batches[b], rows[b][s].data(),
                              rows[b][s].size());
        sink += sub[s].size();
      }
    }
  });

  std::vector<std::vector<std::uint8_t>> frames(batches.size());
  const double encode_ns = MedianPassNs([&] {
    for (std::size_t b = 0; b < batches.size(); ++b) {
      frames[b] = fwdecay::server::EncodeIngest(b, *batches[b]);
    }
  });
  PacketBatch decoded(fwdecay::server::kMaxBatchPackets);
  bool decode_ok = true;
  const double decode_ns = MedianPassNs([&] {
    for (std::size_t b = 0; b < batches.size(); ++b) {
      std::uint64_t seq = 0;
      decoded.Clear();
      decode_ok =
          fwdecay::server::DecodeIngest(frames[b], &seq, &decoded) && decode_ok;
      sink += decoded.size();
    }
  });
  if (!decode_ok || sink == 0) {
    std::fprintf(stderr, "perfbench: codec replay failed\n");
  }

  const double nb = static_cast<double>(batches.size());
  (*layer)["simd.filter_ns_per_pkt"] = Metric{filter_ns / n, "ns"};
  (*layer)["expr.key_eval_ns_per_pkt"] = Metric{key_ns / n, "ns"};
  (*layer)["simd.hash_ns_per_pkt"] = Metric{hash_ns / n, "ns"};
  (*layer)["simd.shard_index_ns_per_pkt"] = Metric{shard_ns / n, "ns"};
  (*layer)["batch.gather_ns_per_pkt"] = Metric{gather_ns / n, "ns"};
  (*layer)["frame.encode_us_per_batch"] = Metric{encode_ns / nb * 1e-3, "us"};
  (*layer)["frame.decode_us_per_batch"] = Metric{decode_ns / nb * 1e-3, "us"};
}

}  // namespace perfbench
