// In-process workloads: ingest_groupby, ingest_parallel, ingest_decayed.
//
// Inputs are generated before any timer starts; every timer wraps calls
// into the engine's public API only (CompiledQuery, QueryExecution,
// PipelinedQueryExecution). Results are checked against oracles that do
// not use the engine.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common.h"
#include "core/exact_reference.h"
#include "dsms/engine.h"
#include "dsms/udafs.h"
#include "util/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

using fwdecay::ExactDecayedReference;
using fwdecay::dsms::CompiledQuery;
using fwdecay::dsms::kProtoTcp;
using fwdecay::dsms::PacketBatch;
using fwdecay::dsms::PipelinedQueryExecution;
using fwdecay::dsms::QueryExecution;
using fwdecay::dsms::ResultSet;
using fwdecay::dsms::Value;

constexpr std::size_t kBatch = PacketBatch::kDefaultCapacity;
// One repetition of ingest_groupby / ingest_parallel: 1 Mi packets.
constexpr std::size_t kGroupbyBatches = 1024;
// Every this many repetitions the result is checked against the oracle.
constexpr std::size_t kCheckEvery = 8;
// Fixed, pre-touched sample capacity, so sample storage never shows up
// in the peak-RSS delta.
constexpr std::size_t kMaxRunSamples = 1u << 14;

/// Fixed-capacity sample store, touched at construction.
class Samples {
 public:
  explicit Samples(std::size_t capacity) : buf_(capacity, 0.0) {}
  void Add(double v) {
    if (n_ < buf_.size()) buf_[n_++] = v;
  }
  std::vector<double> Values() const {
    return std::vector<double>(buf_.begin(), buf_.begin() + n_);
  }

 private:
  std::vector<double> buf_;
  std::size_t n_ = 0;
};

bool IntCell(const Value& v, std::int64_t want) {
  return v.is_int() ? v.AsInt() == want
                    : v.AsDouble() == static_cast<double>(want);
}

// --- ingest_groupby / ingest_parallel oracle ---------------------------

struct GroupRef {
  std::int64_t count = 0;
  std::int64_t sum = 0;
};
using GroupRefMap = std::unordered_map<std::uint64_t, GroupRef>;

GroupRefMap BuildGroupbyRef(const std::vector<PacketBatch>& batches) {
  GroupRefMap ref;
  for (const PacketBatch& b : batches) {
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (b.protocol()[i] != kProtoTcp) continue;
      const std::uint64_t key =
          (static_cast<std::uint64_t>(b.dest_ip()[i]) << 16) | b.dest_port()[i];
      GroupRef& g = ref[key];
      g.count += 1;
      g.sum += b.len()[i];
    }
  }
  return ref;
}

bool CheckGroupby(const ResultSet& rs, const GroupRefMap& ref,
                  std::string* why) {
  if (rs.columns.size() != 5) {
    *why = "groupby: expected 5 columns";
    return false;
  }
  if (rs.rows.size() != ref.size()) {
    *why = "groupby: " + std::to_string(rs.rows.size()) + " groups, oracle " +
           std::to_string(ref.size());
    return false;
  }
  std::unordered_set<std::uint64_t> seen;
  for (const auto& row : rs.rows) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(row[0].AsInt()) << 16) |
        static_cast<std::uint64_t>(row[1].AsInt());
    auto it = ref.find(key);
    if (it == ref.end() || !seen.insert(key).second) {
      *why = "groupby: unexpected or repeated group " + std::to_string(key);
      return false;
    }
    const GroupRef& g = it->second;
    if (!IntCell(row[2], g.count) || !IntCell(row[3], g.sum)) {
      *why = "groupby: count/sum mismatch for group " + std::to_string(key);
      return false;
    }
    const double want =
        static_cast<double>(g.sum) / static_cast<double>(g.count);
    if (std::fabs(row[4].AsDouble() - want) > 1e-9 * std::fabs(want)) {
      *why = "groupby: avg mismatch for group " + std::to_string(key);
      return false;
    }
  }
  return true;
}

// Verifies the result, then requires the oracle to reject a copy with
// one count cell flipped (the oracle must be able to fail).
void CheckGroupbyWithSelfTest(const ResultSet& rs, const GroupRefMap& ref,
                              Outcome* out) {
  std::string why;
  if (!CheckGroupby(rs, ref, &why)) {
    out->Fail(why);
    return;
  }
  if (rs.rows.empty()) {
    out->Fail("groupby: empty result");
    return;
  }
  ResultSet flipped = rs;
  auto& cell = flipped.rows[flipped.rows.size() / 2][2];
  cell = Value(cell.AsInt() + 1);
  if (CheckGroupby(flipped, ref, &why)) {
    out->Fail("groupby: self-test: oracle accepted a flipped cell");
  }
}

// Registry counters rendered by the engine (fwdecay_shard_*{shard="i"}).
std::vector<double> ShardTuples(std::size_t shards) {
  std::string text;
  fwdecay::metrics::MetricsRegistry::Instance().RenderPrometheus(&text);
  std::vector<double> out(shards, 0.0);
  std::istringstream in(text);
  std::string line;
  const std::string prefix = "fwdecay_shard_tuples_total{shard=\"";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t idx =
        std::strtoul(line.c_str() + prefix.size(), nullptr, 10);
    const std::size_t sp = line.rfind(' ');
    if (idx < shards && sp != std::string::npos) {
      out[idx] = std::strtod(line.c_str() + sp + 1, nullptr);
    }
  }
  return out;
}

}  // namespace

std::unique_ptr<CompiledQuery> MustCompile(const std::string& gsql,
                                           bool two_level) {
  std::string err;
  CompiledQuery::Options opts;
  opts.two_level = two_level;
  auto plan = CompiledQuery::Compile(gsql, &err, opts);
  if (plan == nullptr) {
    std::fprintf(stderr, "perfbench: cannot compile '%s': %s\n", gsql.c_str(),
                 err.c_str());
    std::exit(3);
  }
  return plan;
}

std::vector<PacketBatch> GroupbyTrace(std::uint64_t seed,
                                      std::size_t batches) {
  fwdecay::dsms::TraceConfig c;
  c.flow_structured = true;
  c.num_servers = 20000;
  c.ports_per_server = 4;
  c.server_skew = 1.1;
  c.target_active_flows = 1000;
  c.mean_flow_len = 20.0;
  c.seed = seed;
  fwdecay::dsms::PacketGenerator gen(c);
  std::vector<PacketBatch> out;
  out.reserve(batches);
  for (std::size_t i = 0; i < batches; ++i) {
    out.emplace_back(kBatch);
    gen.NextBatch(&out.back(), kBatch);
  }
  return out;
}

// --- ingest_groupby / ingest_parallel ----------------------------------

Outcome RunGroupby(const RunConfig& cfg, bool parallel, Tracer* tracer) {
  Outcome out;
  const std::vector<PacketBatch> batches =
      GroupbyTrace(cfg.seed, kGroupbyBatches);
  const GroupRefMap ref = BuildGroupbyRef(batches);
  std::uint64_t packets = 0;
  for (const auto& b : batches) packets += b.size();
  const std::size_t shards = std::max(1u, Nproc() - 1);

  Samples setup_s(kMaxRunSamples), ingest(kMaxRunSamples),
      finish_ms(kMaxRunSamples), close_ms(kMaxRunSamples),
      poll_ms(kMaxRunSamples), cpu_s(kMaxRunSamples);
  const double rss_base_kb = ProcStatusKb(0, "VmRSS");

  TraceBuffer* tb = tracer->NewBuffer();
  const std::uint32_t n_rep = tracer->Name("bench.rep");
  const std::uint32_t n_compile = tracer->Name("dsms.compile");
  const std::uint32_t n_new = tracer->Name(
      parallel ? "pipeline.construct" : "dsms.new_execution");
  const std::uint32_t n_consume =
      tracer->Name(parallel ? "pipeline.consume" : "dsms.consume");
  const std::uint32_t n_poll = tracer->Name("dsms.poll");
  const std::uint32_t n_quiesce = tracer->Name("pipeline.quiesce");
  const std::uint32_t n_finish =
      tracer->Name(parallel ? "pipeline.finish" : "dsms.finish");

  std::uint64_t tuples = 0, evictions = 0, groups = 0;
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(cfg.seconds * 1e9);
  std::size_t reps = 0;
  while (reps == 0 || NowNs() < deadline) {
    ResultSet rs;
    {
      ScopedSpan rep_span(tb, n_rep);
      const std::int64_t s0 = NowNs();
      std::unique_ptr<CompiledQuery> plan;
      {
        ScopedSpan sp(tb, n_compile);
        plan = MustCompile(kGroupbyQuery, /*two_level=*/true);
      }
      std::unique_ptr<QueryExecution> exec;
      std::unique_ptr<PipelinedQueryExecution> pipe;
      {
        ScopedSpan sp(tb, n_new);
        if (parallel) {
          PipelinedQueryExecution::Options opts;
          opts.num_shards = shards;
          pipe = std::make_unique<PipelinedQueryExecution>(*plan, opts);
        } else {
          exec = plan->NewExecution();
        }
      }
      setup_s.Add(NsToS(NowNs() - s0));

      const double cpu0 = SelfCpuSeconds();
      const std::int64_t t0 = NowNs();
      std::int64_t excluded = 0;
      std::int64_t close_start = 0;
      for (std::size_t i = 0; i < batches.size(); ++i) {
        if (i + 1 == batches.size()) close_start = NowNs();
        {
          ScopedSpan sp(tb, n_consume);
          if (parallel) {
            pipe->Consume(batches[i]);
          } else {
            exec->Consume(batches[i]);
          }
        }
        if (!parallel && i == batches.size() / 2) {
          // Mid-run result read, the way fwdecayd serves a poll: clone
          // through the snapshot image, finish the clone. Excluded from
          // the ingest timings. (The pipeline has no non-destructive
          // read: Quiesce() stops its workers for good.)
          const std::int64_t p0 = NowNs();
          {
            ScopedSpan sp(tb, n_poll);
            std::vector<std::uint8_t> image;
            std::string err;
            auto clone = plan->NewExecution();
            if (!exec->CheckpointBytes(&image, &err) ||
                !clone->RestoreBytes(image.data(), image.size(), &err)) {
              out.Fail("groupby: poll clone failed: " + err);
            }
            (void)clone->Finish();
          }
          const std::int64_t p1 = NowNs();
          poll_ms.Add(NsToMs(p1 - p0));
          excluded += p1 - p0;
        }
      }
      const std::int64_t f0 = NowNs();
      if (parallel) {
        {
          ScopedSpan sp(tb, n_quiesce);
          pipe->Quiesce();
        }
        // The read-out after Quiesce (the merge) is the pipeline's poll.
        const std::int64_t q1 = NowNs();
        {
          ScopedSpan sp(tb, n_finish);
          rs = pipe->Finish();
        }
        poll_ms.Add(NsToMs(NowNs() - q1));
      } else {
        groups = exec->GroupCount();
        ScopedSpan sp(tb, n_finish);
        rs = exec->Finish();
      }
      const std::int64_t f1 = NowNs();
      tuples = parallel ? pipe->tuples_aggregated() : exec->tuples_aggregated();
      evictions =
          parallel ? pipe->low_level_evictions() : exec->low_level_evictions();
      if (parallel) groups = rs.rows.size();
      cpu_s.Add(SelfCpuSeconds() - cpu0);
      const double busy_ns = static_cast<double>(f1 - t0 - excluded);
      ingest.Add(static_cast<double>(packets) / busy_ns * 1e3);
      finish_ms.Add(NsToMs(f1 - f0));
      close_ms.Add(NsToMs(f1 - close_start));
      out.attempted += batches.size();
    }
    if (reps % kCheckEvery == 0) CheckGroupbyWithSelfTest(rs, ref, &out);
    ++reps;
  }
  const double mem_mb = (ProcStatusKb(0, "VmHWM") - rss_base_kb) / 1024.0;

  out.SetE2e("setup_s", Median(setup_s.Values()), "s");
  out.SetE2e("ingest_mpps", Median(ingest.Values()), "Mpkt/s");
  out.SetE2e("finish_ms", Median(finish_ms.Values()), "ms");
  out.SetE2e("window_close_ms_p50", Percentile(close_ms.Values(), 0.5), "ms");
  out.SetE2e("window_close_ms_p90", Percentile(close_ms.Values(), 0.9), "ms");
  out.SetE2e("mem_mb", mem_mb, "MB");
  out.SetE2e("poll_ms_p50", Percentile(poll_ms.Values(), 0.5), "ms");
  out.SetE2e("poll_ms_p90", Percentile(poll_ms.Values(), 0.9), "ms");

  if (!tracer->enabled()) return out;

  // --- per-layer numbers from the spans of this (traced) phase --------
  const auto median_ms = [&](const char* span) {
    return Median(tracer->Durations(span)) * 1e-6;
  };
  const double pkts_total =
      static_cast<double>(packets) * static_cast<double>(reps);
  const double consume_ns =
      tracer->TotalNs(parallel ? "pipeline.consume" : "dsms.consume");
  out.SetLayer("dsms.compile_ms", median_ms("dsms.compile"), "ms");
  out.SetLayer("dsms.selectivity",
               static_cast<double>(tuples) / static_cast<double>(packets),
               "ratio");
  const double evict_ratio =
      tuples == 0
          ? 0.0
          : static_cast<double>(evictions) / static_cast<double>(tuples);
  out.SetLayer("dsms.low_evict_ratio", evict_ratio, "ratio");
  out.SetLayer("dsms.groups", static_cast<double>(groups), "count");
  out.SetLayer("proc.cpu_s", Median(cpu_s.Values()), "s");
  if (parallel) {
    out.SetLayer("pipeline.route_busy_s", consume_ns * 1e-9, "s");
    out.SetLayer("pipeline.route_ns_per_pkt", consume_ns / pkts_total, "ns");
    out.SetLayer("pipeline.quiesce_ms", median_ms("pipeline.quiesce"), "ms");
    out.SetLayer("pipeline.merge_ms", median_ms("pipeline.finish"), "ms");
    const std::vector<double> st = ShardTuples(shards);
    double sum = 0.0, mx = 0.0;
    for (double v : st) {
      sum += v;
      mx = std::max(mx, v);
    }
    const double mean = sum / static_cast<double>(st.size());
    out.SetLayer("pipeline.shard_skew", sum > 0.0 ? mx / mean : 0.0, "ratio");
  } else {
    const std::vector<double> per_batch = tracer->Durations("dsms.consume");
    out.SetLayer("dsms.consume.busy_s", consume_ns * 1e-9, "s");
    out.SetLayer("dsms.consume.ns_per_pkt", consume_ns / pkts_total, "ns");
    out.SetLayer("dsms.consume.batch_us_p50",
                 Percentile(per_batch, 0.5) * 1e-3, "us");
    out.SetLayer("dsms.consume.batch_us_p99",
                 Percentile(per_batch, 0.99) * 1e-3, "us");
    out.SetLayer("dsms.finish_ms", median_ms("dsms.finish"), "ms");
  }

  // State size at the end of one full pass (exact byte count).
  {
    auto plan = MustCompile(kGroupbyQuery, true);
    auto exec = plan->NewExecution();
    for (const auto& b : batches) exec->Consume(b);
    std::vector<std::uint8_t> image;
    std::string err;
    exec->CheckpointBytes(&image, &err);
    out.SetLayer("dsms.state_bytes", static_cast<double>(image.size()),
                 "bytes");
  }

  std::vector<const PacketBatch*> views;
  for (const auto& b : batches) views.push_back(&b);
  StageReplay(views, kGroupbyKeys, &out.layer);
  double stages = out.layer["simd.filter_ns_per_pkt"].value +
                  out.layer["expr.key_eval_ns_per_pkt"].value +
                  out.layer["simd.hash_ns_per_pkt"].value;
  if (parallel) {
    stages += out.layer["simd.shard_index_ns_per_pkt"].value +
              out.layer["batch.gather_ns_per_pkt"].value;
  }
  out.SetLayer("dsms.residual_ns_per_pkt", consume_ns / pkts_total - stages,
               "ns");
  return out;
}

// --- ingest_decayed -----------------------------------------------------

namespace {

// Per-minute windows: ~64 Ki packets per window at this rate.
constexpr double kDecayedRatePps = 65536.0 / 60.0;
constexpr std::size_t kDecayedWindows = 12;
// Windows of the first pass checked by the oracle: index % this == 0.
constexpr std::size_t kDecayedCheckEvery = 4;
// Set-up repetitions per pass over the trace.
constexpr int kDecayedSetupReps = 16;

struct DecayedPlan {
  const char* name;
  const char* gsql;
};
constexpr DecayedPlan kDecayedPlans[] = {
    {"count", "select tb, count(*) from TCP group by time/60 as tb"},
    {"sum",
     "select tb, sum(len*(time % 60)*(time % 60)) from TCP "
     "group by time/60 as tb"},
    {"fdhh",
     "select tb, FDHH(destIP, exp((time % 60)/10.0), 0.05, 0.01) from TCP "
     "group by time/60 as tb"},
    {"fdquantile",
     "select tb, FDQUANTILE(len, (time % 60)*(time % 60)+1, 0.5, 11) from TCP "
     "group by time/60 as tb"},
    {"fddistinct",
     "select tb, FDDISTINCT(destIP, (time % 60)*(time % 60)+1) from TCP "
     "group by time/60 as tb"},
    {"prisamp",
     "select tb, PRISAMP(srcPort, exp((time % 60)/10.0), 6) from TCP "
     "group by time/60 as tb"},
};
constexpr std::size_t kNumPlans = std::size(kDecayedPlans);
constexpr double kHhPhi = 0.05;
constexpr double kHhEps = 0.01;
constexpr double kQuantilePhi = 0.5;
constexpr double kQuantileEps = 0.01;  // FDQUANTILE default eps
constexpr double kDistinctK = 1024.0;  // FDDISTINCT default k
constexpr double kDistinctBase = 1.1;  // DominanceNormSketch level base
constexpr std::size_t kPrisampK = 6;

struct Window {
  std::int64_t tb = 0;
  std::vector<PacketBatch> batches;
  std::size_t packets = 0;
};

// Batches are cut at window boundaries, so no batch spans two windows.
// A window's one partial batch comes first: the batch that carries the
// window's last packet is always full, so window_close_ms times the same
// amount of ingest for every window rather than a mix of 12 different
// remainders.
std::vector<Window> DecayedTrace(std::uint64_t seed) {
  fwdecay::dsms::TraceConfig c;
  c.rate_pps = kDecayedRatePps;
  c.seed = seed;
  fwdecay::dsms::PacketGenerator gen(c);
  std::vector<Window> windows;
  std::vector<fwdecay::dsms::Packet> packets;
  const auto cut_window = [&] {
    Window& w = windows.back();
    w.packets = packets.size();
    std::size_t next = packets.size() % kBatch;
    if (next == 0) next = kBatch;
    for (std::size_t i = 0; i < packets.size(); ++i) {
      if (i == 0 || w.batches.back().size() == next) {
        w.batches.emplace_back(kBatch);
        if (i > 0) next = kBatch;
      }
      w.batches.back().Append(packets[i]);
    }
    packets.clear();
  };
  for (;;) {
    const fwdecay::dsms::Packet p = gen.Next();
    const std::int64_t tb = static_cast<std::int64_t>(p.time) / 60;
    if (windows.empty() || windows.back().tb != tb) {
      if (!windows.empty()) cut_window();
      if (windows.size() == kDecayedWindows) break;
      windows.emplace_back();
      windows.back().tb = tb;
    }
    packets.push_back(p);
  }
  return windows;
}

std::int64_t Mod60(double t) { return static_cast<std::int64_t>(t) % 60; }
double ExpWeight(double t) {
  return std::exp(static_cast<double>(Mod60(t)) / 10.0);
}
double PolyWeight(double t) {
  const double a = static_cast<double>(Mod60(t));
  return a * a + 1.0;
}

// Checks one window's six results against exact computations over the
// window's packets (ExactDecayedReference for the decayed sum; the
// paper's a-priori bounds for the sketches).
bool CheckDecayedWindow(const Window& w,
                        const std::vector<ResultSet>& results,
                        std::string* why) {
  ExactDecayedReference sum_ref, hh_ref, q_ref, d_ref;
  std::size_t tcp = 0;
  for (const PacketBatch& b : w.batches) {
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (b.protocol()[i] != kProtoTcp) continue;
      ++tcp;
      const double t = std::trunc(b.time()[i]);  // the `time` column
      sum_ref.Add(t, 0, b.len()[i]);
      hh_ref.Add(t, b.dest_ip()[i], 0.0);
      q_ref.Add(t, 0, b.len()[i]);
      d_ref.Add(t, b.dest_ip()[i], 0.0);
    }
  }
  using fwdecay::Timestamp;
  const auto exp_w = [](Timestamp ti, Timestamp) { return ExpWeight(ti); };
  const auto poly_w = [](Timestamp ti, Timestamp) { return PolyWeight(ti); };
  const auto sq_w = [](Timestamp ti, Timestamp) {
    const double a = static_cast<double>(Mod60(ti));
    return a * a;
  };
  const std::string tag = "decayed window " + std::to_string(w.tb) + ": ";
  for (std::size_t p = 0; p < kNumPlans; ++p) {
    if (results[p].rows.size() != 1 || !IntCell(results[p].rows[0][0], w.tb)) {
      *why = tag + kDecayedPlans[p].name + " did not return one row";
      return false;
    }
  }
  const auto cell = [&](std::size_t p) -> const Value& {
    return results[p].rows[0][1];
  };

  if (!IntCell(cell(0), static_cast<std::int64_t>(tcp))) {
    *why = tag + "count(*) mismatch";
    return false;
  }
  const double want_sum = sum_ref.Sum(0.0, sq_w);
  if (cell(1).AsDouble() != want_sum) {
    *why = tag + "decayed sum differs from ExactDecayedReference";
    return false;
  }

  // FDHH, Theorem 2: estimates within [true, true + eps*W]; every key
  // with true weight >= phi*W reported. Rendered with one decimal.
  const double hh_w = hh_ref.Count(0.0, exp_w);
  std::unordered_map<std::uint64_t, double> reported;
  {
    std::istringstream in(cell(2).AsString());
    std::string tok;
    while (in >> tok) {
      const std::size_t colon = tok.find(':');
      if (colon == std::string::npos) {
        *why = tag + "unparsable FDHH output";
        return false;
      }
      reported[std::strtoull(tok.c_str(), nullptr, 10)] =
          std::strtod(tok.c_str() + colon + 1, nullptr);
    }
  }
  const double slack = 0.05 + 1e-9 * hh_w;
  for (const auto& [key, est] : reported) {
    const double truth = hh_ref.KeyCount(0.0, exp_w, key);
    if (est + slack < truth || est > truth + kHhEps * hh_w + slack) {
      *why = tag + "FDHH estimate outside the Theorem 2 bound";
      return false;
    }
  }
  for (const auto& [key, weight] : hh_ref.HeavyHitters(0.0, exp_w, kHhPhi)) {
    if (weight >= kHhPhi * hh_w + slack && reported.count(key) == 0) {
      *why = tag + "FDHH missed a heavy hitter";
      return false;
    }
  }

  // FDQUANTILE, Theorem 3: the answer's decayed rank is phi*W +- eps*W.
  const double q = cell(3).AsDouble();
  const double q_w = q_ref.Count(0.0, poly_w);
  const double rank_lt = q_ref.Rank(0.0, poly_w, q - 0.5);
  const double rank_le = q_ref.Rank(0.0, poly_w, q);
  if (rank_le < (kQuantilePhi - kQuantileEps) * q_w ||
      rank_lt > (kQuantilePhi + kQuantileEps) * q_w) {
    *why = tag + "FDQUANTILE outside the Theorem 3 bound";
    return false;
  }

  // FDDISTINCT: level discretisation under-counts by at most the level
  // base; the KMV error is 1/sqrt(k) (checked at four standard errors).
  const double exact_d = d_ref.CountDistinct(0.0, poly_w);
  const double rel = 4.0 / std::sqrt(kDistinctK);
  const double est_d = cell(4).AsDouble();
  if (est_d < exact_d / kDistinctBase * (1.0 - rel) ||
      est_d > exact_d * (1.0 + rel)) {
    *why = tag + "FDDISTINCT outside its stated error";
    return false;
  }

  // PRISAMP: the sample holds min(k, items offered) entries.
  const std::string& sample = cell(5).AsString();
  const std::size_t entries =
      sample.empty()
          ? 0
          : 1 + static_cast<std::size_t>(
                    std::count(sample.begin(), sample.end(), ','));
  if (entries != std::min(kPrisampK, tcp)) {
    *why = tag + "PRISAMP sample size is not min(k, items)";
    return false;
  }
  return true;
}

// One copy of `results` per plan, each with that plan's cell moved
// outside what CheckDecayedWindow allows: count and sum off by one, an
// FDHH estimate inflated past eps*W (or a spurious key if none was
// reported), the quantile beyond every value, the distinct estimate
// doubled, and one PRISAMP entry removed.
std::vector<std::vector<ResultSet>> FlipEachPlan(
    const Window& w, const std::vector<ResultSet>& results) {
  double hh_w = 0.0;
  for (const PacketBatch& b : w.batches) {
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (b.protocol()[i] == kProtoTcp) hh_w += ExpWeight(b.time()[i]);
    }
  }
  std::vector<std::vector<ResultSet>> out(kNumPlans, results);
  const auto cell = [&](std::size_t p) -> Value& {
    return out[p][p].rows[0][1];
  };
  for (std::size_t p : {0, 1}) {
    Value& v = cell(p);
    v = v.is_int() ? Value(v.AsInt() + 1) : Value(v.AsDouble() + 1.0);
  }
  {
    std::istringstream in(cell(2).AsString());
    std::string first, rest, tok;
    in >> first;
    while (in >> tok) rest += " " + tok;
    const std::size_t colon = first.find(':');
    const double inflated = 2.0 * kHhEps * hh_w + 1.0;
    cell(2) = Value(
        colon == std::string::npos
            ? "4294967295:" + std::to_string(inflated)
            : first.substr(0, colon) + ":" +
                  std::to_string(std::strtod(first.c_str() + colon + 1,
                                             nullptr) +
                                 inflated) +
                  rest);
  }
  cell(3) = Value(cell(3).AsDouble() + 1e9);
  cell(4) = Value(cell(4).AsDouble() * 2.0);
  {
    const std::string& sample = cell(5).AsString();
    const std::size_t comma = sample.rfind(',');
    cell(5) = Value(comma == std::string::npos ? std::string()
                                               : sample.substr(0, comma));
  }
  return out;
}

}  // namespace

Outcome RunDecayed(const RunConfig& cfg, Tracer* tracer) {
  Outcome out;
  fwdecay::dsms::RegisterPaperUdafs();
  const std::vector<Window> windows = DecayedTrace(cfg.seed);

  Samples setup_s(kMaxRunSamples), ingest(kMaxRunSamples),
      finish_ms(kMaxRunSamples), close_ms(kMaxRunSamples),
      poll_ms(kMaxRunSamples);
  std::vector<std::vector<ResultSet>> checked(windows.size());
  const double rss_base_kb = ProcStatusKb(0, "VmRSS");

  TraceBuffer* tb = tracer->NewBuffer();
  const std::uint32_t n_compile = tracer->Name("dsms.compile");
  const std::uint32_t n_window = tracer->Name("bench.window");
  const std::uint32_t n_consume = tracer->Name("dsms.consume");
  const std::uint32_t n_poll = tracer->Name("dsms.poll");
  const std::uint32_t n_reset = tracer->Name("dsms.reset");
  std::vector<std::uint32_t> n_plan_consume, n_plan_finish;
  for (const auto& p : kDecayedPlans) {
    const std::string name = p.name;
    n_plan_consume.push_back(tracer->Name("dsms.consume." + name));
    n_plan_finish.push_back(tracer->Name("dsms.finish." + name));
  }

  // Set-up: compile the six plans and create their executions. Timed
  // again in a block before every pass over the trace, outside the ingest
  // timers: a single block at start-up lasts a few milliseconds, and its
  // median followed whatever the host did in them.
  std::vector<std::unique_ptr<CompiledQuery>> plans;
  std::vector<std::unique_ptr<QueryExecution>> execs;
  const auto set_up = [&](std::vector<std::unique_ptr<CompiledQuery>>* ps,
                          std::vector<std::unique_ptr<QueryExecution>>* es) {
    for (int rep = 0; rep < kDecayedSetupReps; ++rep) {
      es->clear();
      ps->clear();
      const std::int64_t s0 = NowNs();
      for (const auto& p : kDecayedPlans) {
        ScopedSpan sp(tb, n_compile);
        ps->push_back(MustCompile(p.gsql, /*two_level=*/false));
      }
      for (const auto& plan : *ps) es->push_back(plan->NewExecution());
      setup_s.Add(NsToS(NowNs() - s0));
    }
  };
  set_up(&plans, &execs);

  std::vector<ResultSet> results(kNumPlans);
  std::size_t windows_run = 0;
  std::uint64_t packets_run = 0;
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(cfg.seconds * 1e9);
  for (std::size_t pass = 0; windows_run == 0 || NowNs() < deadline; ++pass) {
    if (pass > 0) {
      std::vector<std::unique_ptr<CompiledQuery>> ps;
      std::vector<std::unique_ptr<QueryExecution>> es;
      set_up(&ps, &es);
    }
    for (std::size_t wi = 0; wi < windows.size(); ++wi) {
      if (windows_run > 0 && NowNs() >= deadline) break;
      const Window& w = windows[wi];
      ScopedSpan window_span(tb, n_window);
      const std::int64_t t0 = NowNs();
      std::int64_t excluded = 0;
      std::int64_t close_start = 0;
      const std::size_t nb = w.batches.size();
      for (std::size_t bi = 0; bi < nb; ++bi) {
        if (bi + 1 == nb) close_start = NowNs();
        {
          ScopedSpan sp(tb, n_consume);
          for (std::size_t p = 0; p < kNumPlans; ++p) {
            ScopedSpan psp(tb, n_plan_consume[p]);
            execs[p]->Consume(w.batches[bi]);
          }
        }
        if (bi == nb / 2) {
          // Mid-window dashboard read of all six plans through snapshot
          // clones; excluded from the ingest timings.
          const std::int64_t p0 = NowNs();
          {
            ScopedSpan sp(tb, n_poll);
            for (std::size_t p = 0; p < kNumPlans; ++p) {
              std::vector<std::uint8_t> image;
              std::string err;
              auto clone = plans[p]->NewExecution();
              if (!execs[p]->CheckpointBytes(&image, &err) ||
                  !clone->RestoreBytes(image.data(), image.size(), &err)) {
                out.Fail("decayed: poll clone failed: " + err);
              }
              (void)clone->Finish();
            }
          }
          const std::int64_t p1 = NowNs();
          poll_ms.Add(NsToMs(p1 - p0));
          excluded += p1 - p0;
        }
      }
      const std::int64_t c1 = NowNs();
      for (std::size_t p = 0; p < kNumPlans; ++p) {
        ScopedSpan sp(tb, n_plan_finish[p]);
        results[p] = execs[p]->Finish();
      }
      const std::int64_t f1 = NowNs();
      {
        ScopedSpan sp(tb, n_reset);
        for (auto& e : execs) e->Reset();
      }
      const std::int64_t t1 = NowNs();
      ingest.Add(static_cast<double>(w.packets) /
                 static_cast<double>(t1 - t0 - excluded) * 1e3);
      finish_ms.Add(NsToMs(f1 - c1));
      close_ms.Add(NsToMs(f1 - close_start));
      if (pass == 0 && wi % kDecayedCheckEvery == 0) checked[wi] = results;
      ++windows_run;
      packets_run += w.packets;
      out.attempted += nb * kNumPlans;
    }
  }
  const double mem_mb = (ProcStatusKb(0, "VmHWM") - rss_base_kb) / 1024.0;

  // Oracle on the checked windows, plus the self-test: one flipped cell
  // per plan, each of which the oracle must reject.
  bool any_checked = false;
  for (std::size_t wi = 0; wi < windows.size(); ++wi) {
    if (checked[wi].empty()) continue;
    std::string why;
    if (!CheckDecayedWindow(windows[wi], checked[wi], &why)) {
      out.Fail(why);
      break;
    }
    if (!any_checked) {
      const auto flipped = FlipEachPlan(windows[wi], checked[wi]);
      for (std::size_t p = 0; p < kNumPlans; ++p) {
        if (CheckDecayedWindow(windows[wi], flipped[p], &why)) {
          out.Fail(std::string("decayed: self-test: oracle accepted a "
                               "flipped ") +
                   kDecayedPlans[p].name + " cell");
        }
      }
    }
    any_checked = true;
  }
  if (!any_checked) out.Fail("decayed: no window was checked");

  out.SetE2e("setup_s", Median(setup_s.Values()), "s");
  out.SetE2e("ingest_mpps", Median(ingest.Values()), "Mpkt/s");
  out.SetE2e("finish_ms", Median(finish_ms.Values()), "ms");
  out.SetE2e("window_close_ms_p50", Percentile(close_ms.Values(), 0.5), "ms");
  out.SetE2e("window_close_ms_p90", Percentile(close_ms.Values(), 0.9), "ms");
  out.SetE2e("mem_mb", mem_mb, "MB");
  out.SetE2e("poll_ms_p50", Percentile(poll_ms.Values(), 0.5), "ms");
  out.SetE2e("poll_ms_p90", Percentile(poll_ms.Values(), 0.9), "ms");

  if (!tracer->enabled()) return out;

  const double pkts = static_cast<double>(packets_run);
  const double consume_ns = tracer->TotalNs("dsms.consume");
  const std::vector<double> per_batch = tracer->Durations("dsms.consume");
  out.SetLayer("dsms.compile_ms",
               Median(tracer->Durations("dsms.compile")) * 1e-6, "ms");
  out.SetLayer("dsms.consume.busy_s", consume_ns * 1e-9, "s");
  out.SetLayer("dsms.consume.ns_per_pkt", consume_ns / pkts, "ns");
  out.SetLayer("dsms.consume.batch_us_p50", Percentile(per_batch, 0.5) * 1e-3,
               "us");
  out.SetLayer("dsms.consume.batch_us_p99",
               Percentile(per_batch, 0.99) * 1e-3, "us");
  double finish_total = 0.0;
  const double base_ns = tracer->TotalNs("dsms.consume.count") / pkts;
  for (std::size_t p = 0; p < kNumPlans; ++p) {
    const std::string name = kDecayedPlans[p].name;
    const double ns = tracer->TotalNs("dsms.consume." + name) / pkts;
    out.SetLayer("dsms.consume.ns_per_pkt." + name, ns, "ns");
    if (p > 0) {
      out.SetLayer("udaf." + name + ".self_ns_per_pkt", ns - base_ns, "ns");
    }
    const double fin = Median(tracer->Durations("dsms.finish." + name)) * 1e-6;
    out.SetLayer("dsms.finish_ms." + name, fin, "ms");
    finish_total += fin;
  }
  out.SetLayer("dsms.finish_ms", finish_total, "ms");

  // Engine counters and exact state sizes over one full window.
  {
    const Window& w = windows.front();
    double state_total = 0.0;
    for (std::size_t p = 0; p < kNumPlans; ++p) {
      auto exec = plans[p]->NewExecution();
      for (const auto& b : w.batches) exec->Consume(b);
      std::vector<std::uint8_t> image;
      std::string err;
      exec->CheckpointBytes(&image, &err);
      out.SetLayer(std::string("dsms.state_bytes.") + kDecayedPlans[p].name,
                   static_cast<double>(image.size()), "bytes");
      state_total += static_cast<double>(image.size());
      if (p == 0) {
        out.SetLayer("dsms.selectivity",
                     static_cast<double>(exec->tuples_aggregated()) /
                     static_cast<double>(exec->packets_consumed()),
                     "ratio");
        out.SetLayer("dsms.low_evict_ratio", 0.0, "ratio");
        out.SetLayer("dsms.groups", static_cast<double>(exec->GroupCount()),
                     "count");
      }
    }
    out.SetLayer("dsms.state_bytes", state_total, "bytes");
  }

  std::vector<const PacketBatch*> views;
  for (const auto& w : windows) {
    for (const auto& b : w.batches) views.push_back(&b);
  }
  StageReplay(views, {"time/60"}, &out.layer);
  const double stages = out.layer["simd.filter_ns_per_pkt"].value +
                        out.layer["expr.key_eval_ns_per_pkt"].value +
                        out.layer["simd.hash_ns_per_pkt"].value;
  out.SetLayer("dsms.residual_ns_per_pkt", base_ns - stages, "ns");
  return out;
}

}  // namespace perfbench
