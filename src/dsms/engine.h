#ifndef FWDECAY_DSMS_ENGINE_H_
#define FWDECAY_DSMS_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dsms/agg.h"
#include "dsms/batch.h"
#include "dsms/column.h"
#include "dsms/expr.h"
#include "dsms/packet.h"
#include "dsms/parser.h"
#include "dsms/value.h"
#include "util/bytes.h"
#include "util/metrics.h"
#include "util/sched.h"

// Query compilation and execution for the mini DSMS.
//
// The pipeline mirrors the slice of GS the paper exercises: a stream
// selection (FROM TCP/UDP/PKT plus WHERE), a group-by over arbitrary
// scalar expressions (time buckets are just `time/60`), and per-group
// aggregates — built-in or UDAF. Like GS, the engine can split
// aggregation into two levels (Figure 2(a) vs 2(b)): a fixed-size
// direct-mapped low-level table absorbs most updates and evicts partial
// groups to the high level on collision. The high level is an
// open-addressing flat table over arena-backed group shells
// (DESIGN.md §13.1/§13.3), keyed by the 64-bit group hash the batch
// pipeline already computes.

namespace fwdecay::dsms {

/// Result table produced by QueryExecution::Finish().
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;

  /// Renders the table for human consumption.
  std::string ToString() const;
};

/// Overload-shedding policy: bounds the number of groups an execution
/// holds. When a new group would exceed `max_groups`, the engine evicts
/// the group with the smallest *forward-decayed weight* — the sum over
/// the group's tuples of g(t_i - L) = exp(decay_alpha * (t_i - landmark))
/// — and reports it through groups_shed()/tuples_shed() instead of
/// aborting. Forward decay makes this principled: the static weight of a
/// tuple only grows with its timestamp, so the minimum-weight group is
/// the one the decayed query already values least.
struct OverloadPolicy {
  /// Maximum live groups (low + high level); 0 disables shedding.
  std::size_t max_groups = 0;
  /// Exponential forward-decay rate for group weights; 0 degrades the
  /// weight to a plain tuple count (evict the smallest group).
  double decay_alpha = 0.0;
  /// Forward-decay landmark L (only the weight *scale* depends on it).
  double landmark = 0.0;
};

class QueryExecution;

/// A validated, bound query plan. Immutable and reusable: create any
/// number of executions from one compiled query.
class CompiledQuery {
 public:
  struct Options {
    /// Enables the GS-style two-level aggregation split.
    bool two_level = false;
    /// Number of slots in the low-level direct-mapped table.
    std::size_t low_level_slots = 4096;
  };

  /// Compiles GSQL text; returns nullptr and sets *error on failure.
  static std::unique_ptr<CompiledQuery> Compile(const std::string& gsql,
                                                std::string* error);
  static std::unique_ptr<CompiledQuery> Compile(const std::string& gsql,
                                                std::string* error,
                                                Options options);

  /// Compiles an already-parsed query.
  static std::unique_ptr<CompiledQuery> CompileParsed(Query query,
                                                      std::string* error,
                                                      Options options);

  /// Starts a fresh execution of this plan. The execution holds a
  /// reference to this plan: the CompiledQuery must outlive every
  /// QueryExecution created from it.
  std::unique_ptr<QueryExecution> NewExecution() const;

  const Options& options() const { return options_; }
  std::size_t num_aggregates() const { return agg_names_.size(); }

  /// Deterministic structural hash of the plan (clauses, options,
  /// aggregate slots). Stored in snapshots so Restore() can reject a
  /// snapshot taken under a different query.
  std::uint64_t Fingerprint() const;

 private:
  friend class QueryExecution;
  friend class PipelinedQueryExecution;  // router + merged Finish use the plan

  struct OutputItem {
    // Bound post-aggregation expression: kGroupRef/kAggRef placeholders
    // over the group key and finalized aggregates.
    std::unique_ptr<Expr> post;
    std::string column_name;
    std::string source_text;  // pre-binding text, for ORDER BY matching
  };

  CompiledQuery() = default;

  // Fills sel[0..n) with the ascending batch rows that pass the protocol
  // filter (vectorized byte compare over the column) and then WHERE;
  // returns n. `sel` must hold batch.size() entries. The one selection
  // stage shared by QueryExecution::Consume and the pipeline's router.
  std::size_t SelectRows(const PacketBatch& batch, std::uint32_t* sel,
                         BatchEvalScratch* scratch) const;

  // A result table carrying this plan's output column names, no rows.
  ResultSet EmptyResult() const;
  // The stable ORDER BY (group-key order, which the rows arrive in, stays
  // the tiebreaker), then LIMIT. Shared by QueryExecution::Finish and the
  // pipeline's merged Finish.
  void OrderAndLimit(std::vector<std::vector<Value>>* rows) const;

  Options options_;
  std::uint8_t protocol_filter_ = 0;     // 0 = all, else exact match
  std::unique_ptr<Expr> where_;          // may be null
  std::vector<std::unique_ptr<Expr>> group_exprs_;
  std::vector<std::string> agg_names_;   // aggregate function per slot
  // Argument expressions per aggregate slot.
  std::vector<std::vector<std::unique_ptr<Expr>>> agg_args_;
  std::vector<OutputItem> outputs_;
  std::unique_ptr<Expr> having_;         // bound post expr; may be null
  // Output column index + descending flag, applied in order.
  std::vector<std::pair<std::size_t, bool>> order_by_;
  std::optional<std::int64_t> limit_;
  // Some aggregate reads row determinators (AggState::UsesDeterminators);
  // otherwise neither the engine nor the pipeline router computes them.
  bool uses_determinators_ = false;
};

/// Mutable state of one run: feed packets, then collect results.
class QueryExecution {
 public:
  explicit QueryExecution(const CompiledQuery* plan);
  ~QueryExecution();

  QueryExecution(const QueryExecution&) = delete;
  QueryExecution& operator=(const QueryExecution&) = delete;

  /// Processes one packet. Implemented as a one-element batch through
  /// Consume(const PacketBatch&), so both entry points share one code
  /// path and produce bit-identical state.
  void Consume(const Packet& p);

  /// Processes a columnar batch: filter (protocol + WHERE) over the
  /// whole batch, group-key hashing over the surviving selection, then
  /// grouped aggregate updates over runs of consecutive equal-key rows.
  /// Produces exactly the state a Consume(Packet) loop over the same
  /// rows would — same FP accumulation order, same per-row determinators,
  /// same eviction and shedding decisions (DESIGN.md §8).
  void Consume(const PacketBatch& batch);

  /// Flushes the low level and produces the final result table, sorted
  /// by group key for determinism.
  ResultSet Finish();

  /// Packets that passed the filter so far.
  std::uint64_t tuples_aggregated() const { return tuples_aggregated_; }

  /// Packets offered to Consume() so far (before filtering). This is the
  /// input-stream position recorded in snapshots: recovery re-feeds the
  /// trace from this offset. Row `i` of the next batch is at position
  /// packets_consumed() + i, which its determinator hashes (agg.h).
  std::uint64_t packets_consumed() const { return packets_consumed_; }

  /// Distinct groups currently held (low + high level). O(1): both
  /// levels keep cached occupancy counts (audited by CheckInvariants),
  /// so the metrics flush can publish a group-count gauge on the hot
  /// path without walking the tables.
  std::size_t GroupCount() const { return high_group_count_ + low_occupied_; }

  /// Evictions from the low-level table (two-level mode only).
  std::uint64_t low_level_evictions() const { return low_level_evictions_; }

  /// Installs (or replaces) the overload-shedding policy. Takes effect
  /// on the next Consume(); group weights accumulate from the point the
  /// policy's decay parameters are set.
  void SetOverloadPolicy(const OverloadPolicy& policy) { policy_ = policy; }
  const OverloadPolicy& overload_policy() const { return policy_; }

  /// Groups evicted (and tuples lost inside them) by overload shedding.
  std::uint64_t groups_shed() const { return groups_shed_; }
  std::uint64_t tuples_shed() const { return tuples_shed_; }

  /// Writes a crash-safe snapshot of the full execution state — both
  /// group-table levels, every aggregate accumulator, the shedding
  /// policy and counters, and the input-stream position — to `path` via
  /// write-to-temp + fsync + atomic rename. On failure returns false
  /// with *error set; any existing snapshot at `path` is untouched.
  bool Checkpoint(const std::string& path, std::string* error) const;

  /// Serializes the same FWDSNAP1 image Checkpoint() writes into *out
  /// instead of a file. The server embeds these images inside its own
  /// snapshot files (one per registered query) and uses them to clone
  /// executions for non-destructive result polls (DESIGN.md §11).
  bool CheckpointBytes(std::vector<std::uint8_t>* out,
                       std::string* error) const;

  /// Replaces this execution's state with the snapshot at `path`.
  /// Verifies the CRC32C frame and the plan fingerprint; on any failure
  /// returns false with *error set and leaves the execution unusable
  /// (callers discard it). Feeding the trace from packets_consumed()
  /// onward then reproduces the uninterrupted run exactly.
  bool Restore(const std::string& path, std::string* error);

  /// As Restore(), but from an in-memory FWDSNAP1 image (the bytes
  /// CheckpointBytes() produced). Same validation, same guarantees.
  bool RestoreBytes(const std::uint8_t* data, std::size_t size,
                    std::string* error);

  /// Representation audit of both group-table levels (DESIGN.md §7):
  /// every group is stored under the hash of its key, low-level slots sit
  /// at hash % slots, every flat-table group is reachable from its home
  /// slot through an unbroken linear-probe chain, no two groups share a
  /// key, aggregate arity matches the plan, group weights are
  /// non-negative forward-decay sums, the cached counts are exact, and an
  /// installed shedding bound is respected. Aborts via FWDECAY_CHECK on
  /// violation.
  void CheckInvariants() const;

  /// Returns the execution to its freshly-constructed state while
  /// retaining every capacity the previous run warmed up: the flat
  /// table's slot arrays and arena-backed group shells, low-level slot
  /// buffers, and all batch scratch. Tumbling windows reuse one
  /// execution per window through this instead of reallocating
  /// (DESIGN.md §13.3). Pending metric deltas are flushed first; the
  /// policy installed via SetOverloadPolicy() is kept.
  void Reset();

 private:
  friend class PipelinedQueryExecution;

  struct Group;
  struct LowSlot;

  // Looks the key up in the flat high table; admits a pooled shell
  // (shedding first under a bounded policy) when absent. The key is
  // copied into the shell's capacity-retaining vector, so the caller's
  // buffer survives for the next run.
  Group* FindOrCreateHighGroup(std::uint64_t hash,
                               const std::vector<Value>& key);
  // Applies one run of consecutive equal-key rows to a group: forward
  // weights per row in order, then one UpdateBatch per aggregate slot
  // over the run. The batched hot path — must not allocate per tuple
  // (scripts/lint.py rule `hotpath`).
  void UpdateGroup(Group& group, const PacketBatch& batch,
                   std::span<const std::uint64_t> dets, std::size_t run_begin,
                   std::size_t run_len);
  // Groups and aggregates a pre-filtered selection: sel_[0..n) holds the
  // surviving batch rows and dets their determinators (empty when the
  // plan reads none); key/argument columns are evaluated densely over it
  // and applied run by run.
  void AggregateSelection(const PacketBatch& batch,
                          std::span<const std::uint64_t> dets, std::size_t n);
  // Batched ingest body. With `routed_dets` null it filters the batch
  // and derives each surviving row's determinator from its position in
  // this execution's input. Non-null is the shard entry point: the
  // pipeline's router already applied protocol + WHERE, gathered only
  // this execution's rows, and computed (*routed_dets)[i] for batch row
  // i from the row's position in the router's input.
  void ConsumeBatch(const PacketBatch& batch,
                    const std::vector<std::uint64_t>* routed_dets);
  // Evicts every occupied low-level slot to the high level (the first
  // phase of Finish(); each pipeline shard flushes its own).
  void FlushLowLevel();
  // Sorts the high-level groups by key and appends one finalized output
  // row per group that passes HAVING to *rows. With `keys` non-null it
  // also appends each emitted row's group key (pointers into this
  // execution's groups, valid until it next ingests or resets), which
  // the pipeline's N-way merge orders the shards' rows by.
  void FinalizeGroups(std::vector<std::vector<Value>>* rows,
                      std::vector<const std::vector<Value>*>* keys);
  void EvictToHigh(LowSlot& slot);
  double ForwardWeight(double ts) const;
  void ShedLowestWeightGroup();
  // Publishes the counter deltas accumulated since the previous flush
  // into the process-wide metrics registry and refreshes the group-count
  // gauge + decayed tuple rate. Called every kMetricsFlushPeriod batches
  // plus at Finish()/destruction; a FWDECAY_METRICS=OFF build compiles
  // it (and its call sites) away entirely.
  void FlushMetrics();
  // Rebinds the counter/gauge handles to the per-shard labelled
  // families (fwdecay_shard_*{shard="i"}); called once per shard by
  // PipelinedQueryExecution before any ingest.
  void UseShardMetrics(std::size_t shard_index);
  bool SerializeGroup(const Group& group, ByteWriter* writer,
                      std::string* error) const;
  bool RestoreGroup(ByteReader* reader, Group* group);

  const CompiledQuery* plan_;
  OverloadPolicy policy_;
  std::uint64_t packets_consumed_ = 0;
  std::uint64_t tuples_aggregated_ = 0;
  std::uint64_t low_level_evictions_ = 0;
  std::uint64_t groups_shed_ = 0;
  std::uint64_t tuples_shed_ = 0;
  std::size_t high_group_count_ = 0;
  std::size_t low_occupied_ = 0;  // occupied low-level slots (cached)

  // --- Self-instrumentation (util/metrics.h; DESIGN.md §9) ------------
  // Resolved-once registry handles. The hot path touches only the plain
  // members above; FlushMetrics() publishes deltas every
  // kMetricsFlushPeriod batches and the ns-per-batch reservoir samples
  // one batch in kMetricsSamplePeriod, so steady-state ingest pays a few
  // scalar ops per batch and the acceptance bound (<=5% ns/packet) holds
  // even on the one-packet-per-batch path.
  struct MetricsHandles {
    metrics::Counter* packets = nullptr;
    metrics::Counter* batches = nullptr;
    metrics::Counter* tuples = nullptr;
    metrics::Counter* evictions = nullptr;
    metrics::Counter* groups_shed = nullptr;
    metrics::Counter* tuples_shed = nullptr;
    metrics::Gauge* groups = nullptr;
    metrics::DecayedRate* tuple_rate = nullptr;
    metrics::LatencyReservoir* batch_ns = nullptr;
  };
  static constexpr std::uint64_t kMetricsFlushPeriod = 64;
  static constexpr std::uint64_t kMetricsSamplePeriod = 64;
  MetricsHandles metrics_;
  std::uint64_t metrics_batch_seq_ = 0;
  // Counter values as of the previous FlushMetrics() (so a flush
  // publishes exact deltas; Restore() resyncs these to the restored
  // counters).
  std::uint64_t flushed_packets_ = 0;
  std::uint64_t flushed_batches_ = 0;
  std::uint64_t flushed_tuples_ = 0;
  std::uint64_t flushed_evictions_ = 0;
  std::uint64_t flushed_groups_shed_ = 0;
  std::uint64_t flushed_tuples_shed_ = 0;

  // Storage details live in the .cc (pimpl-free; concrete types are
  // private nested structs).
  std::vector<LowSlot> low_table_;
  // size-1 when the low table is a power of two (the 4096 default):
  // `hash & low_mask_` then equals `hash % size` bit for bit, without
  // the per-run integer division. 0 = size not a power of two, use %.
  std::size_t low_mask_ = 0;
  struct HighTable;
  std::unique_ptr<HighTable> high_;

  // Batched-ingest scratch, reused across Consume(batch) calls so the
  // steady state allocates nothing per batch. Pure working memory —
  // never part of a snapshot (FWDSNAP1 layout is unchanged).
  BatchEvalScratch batch_scratch_;
  std::vector<std::uint32_t> sel_;        // surviving batch rows
  std::vector<std::uint32_t> row_index_;  // iota over the selection
  std::vector<std::uint64_t> hashes_;     // group hash per selected row
  std::vector<std::uint64_t> dets_;       // determinator per selected row
  std::vector<ValueColumn> key_cols_;     // per group expr, dense
  // Per aggregate slot, per argument: dense column over the selection.
  std::vector<std::vector<ValueColumn>> arg_cols_;
  std::vector<Value> key_scratch_;        // run key under construction
  PacketBatch single_{1};                 // Consume(Packet) wrapper
};

/// Shared-nothing hash-partitioned execution (DESIGN.md §14) — the
/// engine's one parallel ingest path ("spsc-v2" in BENCH_ingest.json).
///
/// One routing stage (the caller's thread) filters each batch, hashes
/// the group keys, partitions the surviving rows by a *remixed* group
/// hash (simd::ShardIndexU64; independent of the low-level table's
/// `hash % slots` indexing, so routing does not bias slot occupancy),
/// gathers each shard's rows into a per-shard sub-batch, and transfers
/// that batch *whole* — by move, through a bounded SPSC ring — to the
/// shard's worker thread. Each worker owns its QueryExecution outright:
/// after construction no shard state is touched by two threads, so the
/// ingest path has no locks at all. Consumed batches flow back to the
/// router on a second SPSC ring for reuse, making the steady state
/// allocation-free end to end.
///
/// A group's key always routes to the same shard, so every group is
/// owned wholly by one shard. Finish() quiesces the pipeline (flush
/// partial sub-batches, signal stop, join workers), then finalizes the
/// shards in parallel — one thread per shard flushes that shard's low
/// level and turns its key-sorted groups into result rows — and
/// N-way-merges the disjoint, key-sorted row lists on the calling
/// thread before ORDER BY and LIMIT. Forward decay makes this exact:
/// group state is a sum of static weights g(t_i - L), so a partitioned
/// sum equals the stream's sum with no rescaling (Section VI-B).
/// For plans with a sampler, the router also computes each routed row's
/// determinator from the row's position in the router's input and ships
/// it with the row, so a sampler draws the same uniforms at any shard
/// count as in the single-threaded run. Single-level plans, samplers
/// included, are bit-identical to the single-threaded reference;
/// two-level plans match it exactly on integer-valued aggregates and on
/// the PRISAMP, WRSAMP and RESSAMP samples, whose merges are exact
/// (tests/spsc_ring_test.cc, tests/batch_exec_test.cc). With
/// an OverloadPolicy installed, each shard enforces `max_groups` on its
/// own table, so the pipeline retains at most num_shards * max_groups
/// groups.
///
/// Threading contract: Consume() from ONE router thread (the SPSC rings
/// are single-producer/single-consumer by construction); Quiesce(),
/// Finish() and the stat accessors from that same thread after ingest
/// stops. Consume() after Quiesce() aborts. packets_consumed() alone is
/// safe at any time.
class PipelinedQueryExecution {
 public:
  struct Options {
    std::size_t num_shards = 2;
    /// Slots per shard ring, a power of two >= 2. Bounds in-flight
    /// memory at ~2 * ring_capacity * batch bytes per shard and sets
    /// how far the router can run ahead before backpressure. Every row
    /// in flight is drained inside Quiesce(), so a deep ring behind a
    /// router faster than its busiest worker lengthens Finish() (DESIGN.md
    /// §14.2); 8 batches keep that drain short.
    std::size_t ring_capacity = 8;
    /// Rows per gathered sub-batch handed to a worker.
    std::size_t batch_capacity = PacketBatch::kDefaultCapacity;
  };

  /// The plan must outlive this object. Workers start immediately.
  PipelinedQueryExecution(const CompiledQuery& plan, const Options& options);
  ~PipelinedQueryExecution();

  PipelinedQueryExecution(const PipelinedQueryExecution&) = delete;
  PipelinedQueryExecution& operator=(const PipelinedQueryExecution&) = delete;

  /// Routes one batch: filter + hash + partition on the calling thread,
  /// full sub-batches handed to the shard workers. Single producer —
  /// see the threading contract above.
  void Consume(const PacketBatch& batch);

  /// Installs the policy on every shard (each bounds its own table, so
  /// the total bound is num_shards * max_groups). Must be called before
  /// the first Consume(): the ring handoff publishes it to the workers.
  void SetOverloadPolicy(const OverloadPolicy& policy);

  /// Drains the pipeline: flushes partial sub-batches, signals stop,
  /// joins the workers and freezes the shard-summed stats. Idempotent;
  /// Finish() calls it implicitly.
  void Quiesce();

  /// Quiesces, finalizes every shard on its own thread, and merges the
  /// shards' key-sorted rows. Call once, after ingest has stopped.
  ResultSet Finish();

  /// Packets offered to Consume() (router-level, pre-filter).
  std::uint64_t packets_consumed() const { return packets_offered_; }

  // Shard-summed counters; valid once Quiesce() has run.
  std::uint64_t tuples_aggregated() const;
  std::uint64_t low_level_evictions() const;
  std::uint64_t groups_shed() const;
  std::uint64_t tuples_shed() const;
  std::size_t GroupCount() const;

  std::size_t num_shards() const { return shards_.size(); }

  /// Group-table audit on every shard; valid once Quiesce() has run.
  void CheckInvariants() const;

 private:
  struct Shard;  // rings + worker + owned QueryExecution (engine.cc)

  void DispatchPending(Shard& shard);
  void WorkerLoop(Shard& shard);
  std::uint64_t SumQuiesced(std::uint64_t (QueryExecution::*getter)()
                                const) const;

  const CompiledQuery* plan_;
  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  sched::Atomic<bool> stop_{false};
  bool quiesced_ = false;
  bool finished_ = false;
  std::uint64_t packets_offered_ = 0;  // router-thread counter

  // Router scratch, capacity-retained across batches (single producer,
  // so plain members — no thread_local needed).
  BatchEvalScratch eval_scratch_;
  std::vector<std::uint32_t> sel_;
  std::vector<ValueColumn> key_cols_;
  std::vector<std::uint64_t> hashes_;
  std::vector<std::uint32_t> shard_ids_;
  std::vector<std::vector<std::uint32_t>> shard_rows_;
};

}  // namespace fwdecay::dsms

#endif  // FWDECAY_DSMS_ENGINE_H_

