#include "dsms/engine.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <numeric>
#include <span>
#include <thread>
#include <utility>

#include "core/decay.h"
#include "util/arena.h"
#include "util/bytes.h"
#include "util/check.h"
#include "util/crc32c.h"
#include "util/fault_fs.h"
#include "util/hash.h"
#include "util/simd.h"
#include "util/spsc_ring.h"

namespace fwdecay::dsms {

namespace {

std::string Lower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

// Seed of the group-key hash. util/simd.h's GroupHashI64 kernel bakes
// the same seed/combine algebra into its folded constants, so changing
// either side alone breaks the batched/per-tuple equivalence
// (simd_test covers the pairing).
constexpr std::uint64_t kGroupHashSeed = 0x12345678abcdef01ULL;

std::uint64_t HashKey(const std::vector<Value>& key) {
  std::uint64_t h = kGroupHashSeed;
  for (const Value& v : key) h = HashCombine(h, v.Hash());
  return h;
}

// Group hash per selected row — HashKey replicated over the dense key
// columns. Keys whose columns are all int64 (srcIP, time/60, ports and
// any tuple of them) are hashed over the raw arrays: column 0 through
// the vectorized kernel, which is bit-identical to
// HashCombine(seed, HashU64(k, 1)), and each later column folded in as
// HashCombine(h, HashU64(k, 1)) — exactly Value::Hash's int arm.
// Double, string and mixed keys walk the columns per row.
void ComputeGroupHashes(const std::vector<ValueColumn>& key_cols,
                        std::size_t num_groups, std::size_t n,
                        std::uint64_t* out) {
  bool all_i64 = num_groups > 0;
  for (std::size_t g = 0; g < num_groups; ++g) {
    all_i64 = all_i64 && key_cols[g].rep() == ValueColumn::Rep::kI64;
  }
  if (all_i64) {
    simd::GroupHashI64(key_cols[0].i64_data(), n, kGroupHashSeed, out);
    for (std::size_t g = 1; g < num_groups; ++g) {
      const std::int64_t* k = key_cols[g].i64_data();
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = HashCombine(out[i],
                             HashU64(static_cast<std::uint64_t>(k[i]), 1));
      }
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t h = kGroupHashSeed;
    for (std::size_t g = 0; g < num_groups; ++g) {
      h = HashCombine(h, key_cols[g][i].Hash());
    }
    out[i] = h;
  }
}

bool KeysEqual(const std::vector<Value>& a, const std::vector<Value>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

// Total order on group keys (mixed types ordered int < double < string
// per slot). Shared by Finish()'s output sort and the shedding scan's
// tie-break so both are deterministic regardless of hash-map iteration
// order.
bool KeyLess(const std::vector<Value>& a, const std::vector<Value>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Value& x = a[i];
    const Value& y = b[i];
    if (!(x == y)) {
      if (x.is_string() != y.is_string()) return y.is_string();
      return Compare(x, y) < 0;
    }
  }
  return a.size() < b.size();
}

// Binds an expression for post-aggregation evaluation: aggregate calls
// become kAggRef slots (appending their name and per-tuple argument
// expressions to the plan), and subtrees matching a GROUP BY expression
// (textually) or a GROUP BY alias become kGroupRef. Any raw column that
// survives is an error — it is neither aggregated nor grouped.
bool BindPostExpr(
    std::unique_ptr<Expr>& expr, const std::vector<std::string>& agg_names,
    const std::vector<std::string>& group_text,
    const std::vector<std::pair<std::string, int>>& alias_to_pos,
    std::vector<std::string>* slot_names,
    std::vector<std::vector<std::unique_ptr<Expr>>>* slot_args,
    std::string* error) {
  if (expr->kind == Expr::Kind::kCall) {
    const std::string name = Lower(expr->name);
    if (std::find(agg_names.begin(), agg_names.end(), name) !=
        agg_names.end()) {
      const int slot = static_cast<int>(slot_names->size());
      slot_names->push_back(name);
      slot_args->push_back(std::move(expr->args));
      expr = Expr::AggRef(slot);
      return true;
    }
  }
  if (expr->kind == Expr::Kind::kColumn) {
    const std::string col = Lower(expr->name);
    for (const auto& [alias, pos] : alias_to_pos) {
      if (alias == col) {
        expr = Expr::GroupRef(pos);
        return true;
      }
    }
  }
  const std::string text = expr->ToString();
  for (std::size_t i = 0; i < group_text.size(); ++i) {
    if (group_text[i] == text) {
      expr = Expr::GroupRef(static_cast<int>(i));
      return true;
    }
  }
  if (expr->kind == Expr::Kind::kColumn) {
    *error = "column '" + expr->name +
             "' is used outside an aggregate and does not match a GROUP BY "
             "expression or alias";
    return false;
  }
  for (auto& arg : expr->args) {
    if (!BindPostExpr(arg, agg_names, group_text, alias_to_pos, slot_names,
                      slot_args, error)) {
      return false;
    }
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Self-instrumentation (DESIGN.md §9)
// ---------------------------------------------------------------------------

namespace {

// Registry handles for the engine-wide metric families, resolved once.
// Per-shard executions rebind their counter handles to the labelled
// fwdecay_shard_* families via QueryExecution::UseShardMetrics(); the
// decayed tuple rate and the ns-per-batch reservoir stay shared (both
// are internally locked, and a process-wide view is what an operator
// wants from them).
struct EngineMetrics {
  metrics::Counter* packets;
  metrics::Counter* batches;
  metrics::Counter* tuples;
  metrics::Counter* evictions;
  metrics::Counter* groups_shed;
  metrics::Counter* tuples_shed;
  metrics::Gauge* groups;
  metrics::DecayedRate* tuple_rate;
  metrics::LatencyReservoir* batch_ns;
  metrics::Counter* plans_compiled;
  metrics::LatencyReservoir* compile_ns;
  metrics::Counter* checkpoints;
  metrics::Counter* checkpoint_bytes;
  metrics::LatencyReservoir* checkpoint_ns;
  metrics::Counter* restores;
  metrics::LatencyReservoir* restore_ns;

  static const EngineMetrics& Get() {
    static const EngineMetrics m = Create();
    return m;
  }

 private:
  static EngineMetrics Create() {
    auto& reg = metrics::MetricsRegistry::Instance();
    EngineMetrics m{};
    m.packets = reg.GetCounter("fwdecay_engine_packets_total",
                               "Packets offered to Consume() (pre-filter).");
    m.batches = reg.GetCounter("fwdecay_engine_batches_total",
                               "Batches processed (a Packet is a 1-batch).");
    m.tuples = reg.GetCounter("fwdecay_engine_tuples_total",
                              "Tuples that passed the filter and were "
                              "aggregated.");
    m.evictions = reg.GetCounter("fwdecay_engine_low_evictions_total",
                                 "Low-level slot evictions to the high "
                                 "table (two-level mode).");
    m.groups_shed = reg.GetCounter("fwdecay_engine_groups_shed_total",
                                   "Groups evicted by overload shedding.");
    m.tuples_shed = reg.GetCounter("fwdecay_engine_tuples_shed_total",
                                   "Tuples lost inside shed groups.");
    m.groups = reg.GetGauge("fwdecay_engine_groups",
                            "Live groups (low + high level) at the last "
                            "metrics flush.");
    m.tuple_rate = reg.GetDecayedRate(
        "fwdecay_engine_tuple_rate",
        "Forward-decayed tuple ingest rate (events/s; alpha=0.1).",
        /*alpha=*/0.1);
    m.batch_ns = reg.GetReservoir(
        "fwdecay_engine_batch_ns",
        "Consume() wall time per batch, ns (decayed reservoir; sampled "
        "1-in-64 batches).",
        /*k=*/256, /*alpha=*/0.015);
    m.plans_compiled = reg.GetCounter("fwdecay_plans_compiled_total",
                                      "GSQL plans successfully compiled.");
    m.compile_ns = reg.GetReservoir(
        "fwdecay_plan_compile_ns",
        "Parse-to-plan compile time, ns (decayed reservoir).",
        /*k=*/64, /*alpha=*/0.015);
    m.checkpoints = reg.GetCounter("fwdecay_checkpoint_total",
                                   "Snapshots successfully written.");
    m.checkpoint_bytes = reg.GetCounter(
        "fwdecay_checkpoint_bytes_total",
        "Total snapshot bytes handed to the atomic-write path.");
    m.checkpoint_ns = reg.GetReservoir(
        "fwdecay_checkpoint_ns",
        "Checkpoint() wall time incl. fsync+rename, ns (decayed "
        "reservoir).",
        /*k=*/64, /*alpha=*/0.015);
    m.restores = reg.GetCounter("fwdecay_restore_total",
                                "Snapshots successfully restored.");
    m.restore_ns = reg.GetReservoir(
        "fwdecay_restore_ns",
        "Restore() wall time (read + validate + rebuild), ns (decayed "
        "reservoir).",
        /*k=*/64, /*alpha=*/0.015);
    return m;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

std::unique_ptr<CompiledQuery> CompiledQuery::Compile(const std::string& gsql,
                                                      std::string* error) {
  return Compile(gsql, error, Options{});
}

std::unique_ptr<CompiledQuery> CompiledQuery::Compile(const std::string& gsql,
                                                      std::string* error,
                                                      Options options) {
  ParseResult parsed = ParseQuery(gsql);
  if (!parsed.ok()) {
    *error = parsed.error;
    return nullptr;
  }
  return CompileParsed(std::move(*parsed.query), error, options);
}

std::unique_ptr<CompiledQuery> CompiledQuery::CompileParsed(Query query,
                                                            std::string* error,
                                                            Options options) {
  // Compilation is cold, so it is timed unconditionally (no sampling).
  metrics::ScopedTimerSample compile_timer(
      EngineMetrics::Get().compile_ns,
      metrics::MetricsRegistry::Instance().NowSeconds());
  auto plan = std::unique_ptr<CompiledQuery>(new CompiledQuery());
  plan->options_ = options;

  // FROM clause: TCP and UDP are protocol-filtered views of the packet
  // stream; PKT (or anything else) is the raw stream.
  const std::string from = Lower(query.from);
  if (from == "tcp") {
    plan->protocol_filter_ = kProtoTcp;
  } else if (from == "udp") {
    plan->protocol_filter_ = kProtoUdp;
  } else {
    plan->protocol_filter_ = 0;
  }
  plan->where_ = std::move(query.where);

  // Group-by expressions, with alias -> position mapping.
  std::vector<std::pair<std::string, int>> alias_to_pos;
  std::vector<std::string> group_text;
  for (std::size_t i = 0; i < query.group_by.size(); ++i) {
    SelectItem& item = query.group_by[i];
    group_text.push_back(item.expr->ToString());
    if (!item.alias.empty()) {
      alias_to_pos.emplace_back(item.alias, static_cast<int>(i));
    }
    plan->group_exprs_.push_back(std::move(item.expr));
  }

  const std::vector<std::string> agg_names = AggRegistry::Instance().Names();

  for (SelectItem& item : query.select) {
    OutputItem out;
    out.source_text = item.expr->ToString();
    out.column_name = item.alias.empty() ? out.source_text : item.alias;
    if (!BindPostExpr(item.expr, agg_names, group_text, alias_to_pos,
                      &plan->agg_names_, &plan->agg_args_, error)) {
      return nullptr;
    }
    out.post = std::move(item.expr);
    plan->outputs_.push_back(std::move(out));
  }

  // HAVING: a post-aggregation predicate over group columns + aggregates.
  if (query.having != nullptr) {
    if (!BindPostExpr(query.having, agg_names, group_text, alias_to_pos,
                      &plan->agg_names_, &plan->agg_args_, error)) {
      return nullptr;
    }
    plan->having_ = std::move(query.having);
  }

  // ORDER BY: resolve each entry to an output column — by 1-based
  // position, by alias/column name, or by expression text.
  for (OrderItem& item : query.order_by) {
    std::size_t col = plan->outputs_.size();
    if (item.expr->kind == Expr::Kind::kLiteral &&
        item.expr->literal.is_int()) {
      const std::int64_t pos = item.expr->literal.AsInt();
      if (pos < 1 ||
          pos > static_cast<std::int64_t>(plan->outputs_.size())) {
        *error = "ORDER BY position out of range";
        return nullptr;
      }
      col = static_cast<std::size_t>(pos - 1);
    } else {
      const std::string text = item.expr->ToString();
      for (std::size_t i = 0; i < plan->outputs_.size(); ++i) {
        if (plan->outputs_[i].column_name == text ||
            plan->outputs_[i].source_text == text) {
          col = i;
          break;
        }
      }
      if (col == plan->outputs_.size()) {
        *error = "ORDER BY item '" + text +
                 "' does not name an output column";
        return nullptr;
      }
    }
    plan->order_by_.emplace_back(col, item.descending);
  }
  plan->limit_ = query.limit;

  if (plan->options_.two_level) {
    FWDECAY_CHECK_MSG(plan->options_.low_level_slots >= 2,
                      "two-level mode needs at least 2 low-level slots");
  }
  for (const std::string& name : plan->agg_names_) {
    plan->uses_determinators_ =
        plan->uses_determinators_ ||
        AggRegistry::Instance().Create(name)->UsesDeterminators();
  }
  EngineMetrics::Get().plans_compiled->Increment();
  return plan;
}

std::unique_ptr<QueryExecution> CompiledQuery::NewExecution() const {
  return std::make_unique<QueryExecution>(this);
}

std::size_t CompiledQuery::SelectRows(const PacketBatch& batch,
                                      std::uint32_t* sel,
                                      BatchEvalScratch* scratch) const {
  const std::size_t n_in = batch.size();
  std::size_t n = n_in;
  if (protocol_filter_ != 0) {
    n = simd::FilterByteEq(batch.protocol(), protocol_filter_, n_in, sel);
  } else {
    std::iota(sel, sel + n_in, 0u);
  }
  if (where_ != nullptr && n > 0) {
    n = EvalPredicateBatch(*where_, batch, sel, n, scratch);
  }
  return n;
}

std::uint64_t CompiledQuery::Fingerprint() const {
  std::uint64_t h = HashString("fwdsnap-plan", 7);
  h = HashCombine(h, options_.two_level ? 1 : 0);
  h = HashCombine(h, options_.low_level_slots);
  h = HashCombine(h, protocol_filter_);
  h = HashCombine(h, HashString(where_ ? where_->ToString() : ""));
  for (const auto& g : group_exprs_) {
    h = HashCombine(h, HashString(g->ToString()));
  }
  for (std::size_t slot = 0; slot < agg_names_.size(); ++slot) {
    h = HashCombine(h, HashString(agg_names_[slot]));
    for (const auto& arg : agg_args_[slot]) {
      h = HashCombine(h, HashString(arg->ToString()));
    }
  }
  for (const auto& out : outputs_) {
    h = HashCombine(h, HashString(out.post->ToString()));
    h = HashCombine(h, HashString(out.column_name));
  }
  h = HashCombine(h, HashString(having_ ? having_->ToString() : ""));
  for (const auto& [col, desc] : order_by_) {
    h = HashCombine(h, col);
    h = HashCombine(h, desc ? 1 : 0);
  }
  h = HashCombine(h, limit_.has_value()
                         ? static_cast<std::uint64_t>(*limit_) + 1
                         : 0);
  return h;
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

struct QueryExecution::Group {
  std::vector<Value> key;
  std::vector<std::unique_ptr<AggState>> aggs;
  // Forward-decayed weight Σ g(t_i - L) and tuple count, maintained for
  // the overload-shedding eviction rule (cheap: one add per update).
  double weight = 0.0;
  std::uint64_t tuples = 0;
};

struct QueryExecution::LowSlot {
  bool occupied = false;
  std::uint64_t hash = 0;
  Group group;
};

// Open-addressing flat high table (DESIGN.md §13.1). Two parallel slot
// arrays — cached key hash and group pointer (nullptr = empty) — probed
// linearly under a power-of-two mask, so a lookup touches one cache
// line of hashes before it ever dereferences a group. Group shells live
// out-of-line in a bump arena and are recycled through a free list:
// pointers stay stable across rehash (only the slot arrays move), and a
// shell released by shedding or a window Reset() keeps its key/agg
// vector capacities for the next admission. Tombstone-free: removal
// backward-shifts the probe chain, so layout is a pure function of the
// insertion sequence — but no observable order ever reads the layout
// (Finish/CheckpointBytes both sort by KeyLess, and the shed
// victim is a deterministic (weight, KeyLess) minimum).
struct QueryExecution::HighTable {
  std::vector<std::uint64_t> hashes;  // slot -> cached key hash
  std::vector<Group*> slots;          // slot -> shell, nullptr = empty
  std::size_t mask = 0;               // capacity - 1
  std::size_t size = 0;               // occupied slots

  util::Arena arena;                  // owns every shell's storage
  std::vector<Group*> free_shells;    // released, capacity-retaining
  std::vector<Group*> all_shells;     // every shell ever built (dtors)

  ~HighTable() {
    // Arena memory is freed wholesale; the shells' interior vectors are
    // ordinary heap objects and need their destructors.
    for (Group* g : all_shells) g->~Group();
  }

  Group* Find(std::uint64_t hash, const std::vector<Value>& key) const {
    if (slots.empty()) return nullptr;
    std::size_t s = hash & mask;
    while (slots[s] != nullptr) {
      if (hashes[s] == hash && KeysEqual(slots[s]->key, key)) {
        return slots[s];
      }
      s = (s + 1) & mask;
    }
    return nullptr;
  }

  // Inserts a shell whose key is already in place. The caller has
  // established absence via Find (restore paths may insert duplicates
  // from hostile snapshots; CheckInvariants rejects them afterwards,
  // exactly as the chained table did).
  void Insert(std::uint64_t hash, Group* g) {
    if (slots.empty() || (size + 1) * 8 > (mask + 1) * 7) Grow();
    InsertNoGrow(hash, g);
    ++size;
  }

  // Backward-shift deletion: close the hole by sliding back every chain
  // member that probed across it, so no tombstones accumulate and the
  // probe invariant (home..slot unbroken) is restored locally.
  void EraseSlot(std::size_t slot) {
    slots[slot] = nullptr;
    std::size_t hole = slot;
    std::size_t next = (slot + 1) & mask;
    while (slots[next] != nullptr) {
      const std::size_t home = hashes[next] & mask;
      if (((next - home) & mask) >= ((next - hole) & mask)) {
        slots[hole] = slots[next];
        hashes[hole] = hashes[next];
        slots[next] = nullptr;
        hole = next;
      }
      next = (next + 1) & mask;
    }
    --size;
  }

  Group* AcquireShell() {
    if (!free_shells.empty()) {
      Group* g = free_shells.back();
      free_shells.pop_back();
      return g;
    }
    // fwdecay: hotpath-cold(shell construction: once per peak live group, arena-backed)
    Group* g = arena.New<Group>();
    // fwdecay: hotpath-cold(destructor registry grows once per constructed shell)
    all_shells.push_back(g);
    return g;
  }

  // Empties a shell back into the pool. Vector capacities (key slots,
  // agg pointers) survive, so readmission after shedding or a window
  // turnover allocates nothing.
  void ReleaseShell(Group* g) {
    g->key.clear();
    g->aggs.clear();
    g->weight = 0.0;
    g->tuples = 0;
    // fwdecay: hotpath-cold(pool vector growth bounded by peak live shells)
    free_shells.push_back(g);
  }

  // Releases every group and empties the table; slot arrays, shells and
  // arena chunks are all retained for the next window.
  void Clear() {
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slots[s] != nullptr) {
        ReleaseShell(slots[s]);
        slots[s] = nullptr;
      }
    }
    size = 0;
  }

 private:
  void InsertNoGrow(std::uint64_t hash, Group* g) {
    std::size_t s = hash & mask;
    while (slots[s] != nullptr) s = (s + 1) & mask;
    slots[s] = g;
    hashes[s] = hash;
  }

  void Grow() {
    const std::size_t new_cap = slots.empty() ? 16 : (mask + 1) * 2;
    std::vector<Group*> old_slots = std::move(slots);
    std::vector<std::uint64_t> old_hashes = std::move(hashes);
    // fwdecay: hotpath-cold(table growth: amortized over 7/8ths of the new capacity)
    slots.assign(new_cap, nullptr);
    hashes.assign(new_cap, 0);
    mask = new_cap - 1;
    // Reinsert in ascending old-slot order: the rehashed layout is a
    // deterministic function of the old layout.
    for (std::size_t s = 0; s < old_slots.size(); ++s) {
      if (old_slots[s] != nullptr) InsertNoGrow(old_hashes[s], old_slots[s]);
    }
  }
};

QueryExecution::QueryExecution(const CompiledQuery* plan)
    : plan_(plan), high_(std::make_unique<HighTable>()) {
  if (plan_->options_.two_level) {
    low_table_.resize(plan_->options_.low_level_slots);
    const std::size_t slots = low_table_.size();
    if ((slots & (slots - 1)) == 0) low_mask_ = slots - 1;
  }
  const EngineMetrics& em = EngineMetrics::Get();
  metrics_.packets = em.packets;
  metrics_.batches = em.batches;
  metrics_.tuples = em.tuples;
  metrics_.evictions = em.evictions;
  metrics_.groups_shed = em.groups_shed;
  metrics_.tuples_shed = em.tuples_shed;
  metrics_.groups = em.groups;
  metrics_.tuple_rate = em.tuple_rate;
  metrics_.batch_ns = em.batch_ns;
}

QueryExecution::~QueryExecution() {
  // Short-lived executions may never hit a periodic flush; publish the
  // tail deltas so process-wide counters stay exact.
  FlushMetrics();
}

void QueryExecution::FlushMetrics() {
  if (!FWDECAY_METRICS_ENABLED) return;  // constant-folds away when OFF
  const std::uint64_t d_packets = packets_consumed_ - flushed_packets_;
  const std::uint64_t d_batches = metrics_batch_seq_ - flushed_batches_;
  const std::uint64_t d_tuples = tuples_aggregated_ - flushed_tuples_;
  const std::uint64_t d_evict = low_level_evictions_ - flushed_evictions_;
  const std::uint64_t d_gshed = groups_shed_ - flushed_groups_shed_;
  const std::uint64_t d_tshed = tuples_shed_ - flushed_tuples_shed_;
  flushed_packets_ = packets_consumed_;
  flushed_batches_ = metrics_batch_seq_;
  flushed_tuples_ = tuples_aggregated_;
  flushed_evictions_ = low_level_evictions_;
  flushed_groups_shed_ = groups_shed_;
  flushed_tuples_shed_ = tuples_shed_;
  if (d_packets > 0) metrics_.packets->Increment(d_packets);
  if (d_batches > 0) metrics_.batches->Increment(d_batches);
  if (d_tuples > 0) metrics_.tuples->Increment(d_tuples);
  if (d_evict > 0) metrics_.evictions->Increment(d_evict);
  if (d_gshed > 0) metrics_.groups_shed->Increment(d_gshed);
  if (d_tshed > 0) metrics_.tuples_shed->Increment(d_tshed);
  metrics_.groups->Set(static_cast<double>(GroupCount()));
  if (d_tuples > 0) {
    metrics_.tuple_rate->Mark(metrics::MetricsRegistry::Instance().NowSeconds(),
                              static_cast<double>(d_tuples));
  }
}

void QueryExecution::UseShardMetrics(std::size_t shard_index) {
  if (!FWDECAY_METRICS_ENABLED) return;
  FlushMetrics();  // anything recorded so far belongs to the global family
  const std::string label = "shard=\"" + std::to_string(shard_index) + "\"";
  auto& reg = metrics::MetricsRegistry::Instance();
  metrics_.packets =
      reg.GetCounter("fwdecay_shard_packets_total",
                     "Post-filter rows routed to this shard.", label);
  metrics_.batches =
      reg.GetCounter("fwdecay_shard_batches_total",
                     "Routed batch fragments applied on this shard.", label);
  metrics_.tuples = reg.GetCounter("fwdecay_shard_tuples_total",
                                   "Tuples aggregated on this shard.", label);
  metrics_.evictions =
      reg.GetCounter("fwdecay_shard_low_evictions_total",
                     "Low-level evictions on this shard.", label);
  metrics_.groups_shed =
      reg.GetCounter("fwdecay_shard_groups_shed_total",
                     "Groups shed by this shard's overload policy.", label);
  metrics_.tuples_shed =
      reg.GetCounter("fwdecay_shard_tuples_shed_total",
                     "Tuples lost inside groups shed by this shard.", label);
  metrics_.groups = reg.GetGauge("fwdecay_shard_groups",
                                 "Live groups held by this shard.", label);
  // tuple_rate / batch_ns stay bound to the shared engine-wide families.
}

namespace {

// Fills a (possibly recycled) agg-state vector with fresh states, one
// per plan slot, reusing the vector's capacity.
void FillAggStates(const std::vector<std::string>& names,
                   std::vector<std::unique_ptr<AggState>>* states) {
  states->clear();
  states->reserve(names.size());
  for (const std::string& name : names) {
    states->push_back(AggRegistry::Instance().Create(name));
  }
}

}  // namespace

QueryExecution::Group* QueryExecution::FindOrCreateHighGroup(
    std::uint64_t hash, const std::vector<Value>& key) {
  if (Group* g = high_->Find(hash, key)) return g;
  // A new group is about to be admitted; under a bounded-ingest policy
  // make room by shedding the lowest-weight incumbent instead of growing
  // without bound. The incoming group represents the newest tuples —
  // under forward decay the ones with the largest static weights — so
  // admitting it over the minimum-weight group is the principled choice.
  if (policy_.max_groups > 0) {
    while (high_group_count_ >= policy_.max_groups) ShedLowestWeightGroup();
  }
  Group* g = high_->AcquireShell();
  g->key = key;  // copy into the shell's retained capacity
  // fwdecay: hotpath-cold(new-group admission: states allocated once per group, not per row)
  FillAggStates(plan_->agg_names_, &g->aggs);
  high_->Insert(hash, g);
  ++high_group_count_;
  return g;
}

double QueryExecution::ForwardWeight(double ts) const {
  if (policy_.decay_alpha == 0.0) return 1.0;
  // Routed through the sanctioned g (scripts/analyze.py rule exp-pow):
  // core/decay.h owns the weight exponential and its rescaling algebra.
  return ExponentialG(policy_.decay_alpha).G(ts - policy_.landmark);
}

void QueryExecution::ShedLowestWeightGroup() {
  // Deterministic min scan: weight first, group key as tie-break, so the
  // shed victim does not depend on table layout (recovery replay must
  // reproduce the uninterrupted run exactly; the flat table's slot order
  // never influences which group loses the strict-minimum scan).
  std::size_t victim_slot = 0;
  const Group* victim = nullptr;
  for (std::size_t s = 0; s < high_->slots.size(); ++s) {
    const Group* g = high_->slots[s];
    if (g == nullptr) continue;
    if (victim == nullptr || g->weight < victim->weight ||
        (g->weight == victim->weight && KeyLess(g->key, victim->key))) {
      victim = g;
      victim_slot = s;
    }
  }
  FWDECAY_CHECK_MSG(victim != nullptr, "shedding from an empty group table");
  ++groups_shed_;
  tuples_shed_ += victim->tuples;
  high_->ReleaseShell(high_->slots[victim_slot]);
  high_->EraseSlot(victim_slot);
  --high_group_count_;
}

void QueryExecution::UpdateGroup(Group& group, const PacketBatch& batch,
                                 std::span<const std::uint64_t> dets,
                                 std::size_t run_begin, std::size_t run_len) {
  // Weights first, per row in stream order, then the aggregates — the
  // exact side-effect order of the old per-tuple loop, just regrouped:
  // per-slot agg states are independent, so interleaving slots per row
  // (old) and rows per slot (here) yield identical per-state sequences.
  const double* times = batch.time();
  for (std::size_t r = run_begin; r < run_begin + run_len; ++r) {
    group.weight += ForwardWeight(times[sel_[r]]);
  }
  group.tuples += run_len;
  const std::span<const std::uint32_t> rows(row_index_.data() + run_begin,
                                            run_len);
  for (std::size_t slot = 0; slot < plan_->agg_names_.size(); ++slot) {
    group.aggs[slot]->UpdateBatch(
        std::span<const ValueColumn>(arg_cols_[slot]), dets, rows);
  }
}

void QueryExecution::EvictToHigh(LowSlot& slot) {
  Group* target = FindOrCreateHighGroup(slot.hash, slot.group.key);
  for (std::size_t i = 0; i < target->aggs.size(); ++i) {
    // fwdecay: hotpath-cold(amortized-rare eviction; Merge runs once per evicted group, not per row)
    target->aggs[i]->Merge(*slot.group.aggs[i]);
  }
  target->weight += slot.group.weight;
  target->tuples += slot.group.tuples;
  slot.occupied = false;
  --low_occupied_;
  // The slot's key/agg vectors keep their capacity for the next tenant.
  slot.group.key.clear();
  slot.group.aggs.clear();
  slot.group.weight = 0.0;
  slot.group.tuples = 0;
  ++low_level_evictions_;
}

void QueryExecution::Consume(const Packet& p) {
  single_.Clear();
  single_.Append(p);
  Consume(single_);
}

void QueryExecution::Consume(const PacketBatch& batch) {
  ConsumeBatch(batch, /*routed_dets=*/nullptr);
}

void QueryExecution::ConsumeBatch(
    const PacketBatch& batch, const std::vector<std::uint64_t>* routed_dets) {
  // 1-in-kMetricsSamplePeriod batches get a wall-clock sample into the
  // decayed ns-per-batch reservoir; a null handle means the clock is
  // never read. The periodic FlushMetrics() below publishes counter
  // deltas. Both compile to nothing under FWDECAY_METRICS=OFF.
  metrics::LatencyReservoir* sampled_reservoir =
      (FWDECAY_METRICS_ENABLED &&
       metrics_batch_seq_ % kMetricsSamplePeriod == 0)
          ? metrics_.batch_ns
          : nullptr;
  metrics::ScopedTimerSample batch_timer(
      sampled_reservoir,
      sampled_reservoir != nullptr
          // fwdecay: hotpath-cold(1-in-64 sampled batch timer reads the clock)
          ? metrics::MetricsRegistry::Instance().NowSeconds()
          : 0.0);
  if (FWDECAY_METRICS_ENABLED &&
      ++metrics_batch_seq_ % kMetricsFlushPeriod == 0) {
    // fwdecay: hotpath-cold(1-in-64 periodic metrics flush)
    FlushMetrics();
  }

  // A routed batch holds only rows this shard owns, so counting them
  // keeps tuples_aggregated_ <= packets_consumed_ per shard.
  const std::size_t n_in = batch.size();
  const std::uint64_t position = packets_consumed_;
  packets_consumed_ += n_in;
  if (n_in == 0) return;

  sel_.resize(n_in);
  if (routed_dets != nullptr) {
    std::iota(sel_.begin(), sel_.end(), 0u);
    AggregateSelection(batch, *routed_dets, n_in);
    return;
  }
  const std::size_t n = plan_->SelectRows(batch, sel_.data(), &batch_scratch_);
  dets_.clear();
  if (plan_->uses_determinators_) {
    dets_.resize(n);
    const double* times = batch.time();
    for (std::size_t i = 0; i < n; ++i) {
      dets_[i] = RowDeterminator(position + sel_[i], times[sel_[i]]);
    }
  }
  AggregateSelection(batch, dets_, n);
}

void QueryExecution::AggregateSelection(const PacketBatch& batch,
                                        std::span<const std::uint64_t> dets,
                                        std::size_t n) {
  if (n == 0) return;
  tuples_aggregated_ += n;
  const std::size_t num_groups = plan_->group_exprs_.size();
  const std::size_t num_slots = plan_->agg_names_.size();

  // Evaluate group-key and aggregate-argument columns once per batch,
  // dense over the selection (column i = row sel_[i]).
  key_cols_.resize(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    EvalExprBatch(*plan_->group_exprs_[g], batch, sel_.data(), n,
                  &batch_scratch_, &key_cols_[g]);
  }
  arg_cols_.resize(num_slots);
  for (std::size_t slot = 0; slot < num_slots; ++slot) {
    const auto& args = plan_->agg_args_[slot];
    arg_cols_[slot].resize(args.size());
    for (std::size_t a = 0; a < args.size(); ++a) {
      EvalExprBatch(*args[a], batch, sel_.data(), n, &batch_scratch_,
                    &arg_cols_[slot][a]);
    }
  }

  // Group hash per selected row (vectorized for a single int64 key).
  hashes_.resize(n);
  ComputeGroupHashes(key_cols_, num_groups, n, hashes_.data());
  row_index_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    row_index_[i] = static_cast<std::uint32_t>(i);
  }

  // Apply runs of consecutive equal-key rows. A run resolves its group
  // once; re-resolving an identical key between the run's rows would be
  // side-effect-free (same slot, no eviction, no shed), so skipping the
  // re-resolution leaves every observable state bit-identical to the
  // per-row loop. Runs never span distinct keys, so eviction and
  // shedding still happen at exactly the per-tuple points.
  //
  // The dominant query shape — a single int64 group key — runs over the
  // column's raw array for both the run scan and the slot-hit compare;
  // the key is materialized into Values only when a slot is (re)filled.
  const std::int64_t* k0 =
      (num_groups == 1 && key_cols_[0].rep() == ValueColumn::Rep::kI64)
          ? key_cols_[0].i64_data()
          : nullptr;
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i + 1;
    if (k0 != nullptr) {
      while (j < n && hashes_[j] == hashes_[i] && k0[j] == k0[i]) ++j;
    } else {
      while (j < n && hashes_[j] == hashes_[i]) {
        bool same = true;
        for (std::size_t g = 0; g < num_groups; ++g) {
          if (!(key_cols_[g][j] == key_cols_[g][i])) {
            same = false;
            break;
          }
        }
        if (!same) break;
        ++j;
      }
    }
    const std::uint64_t hash = hashes_[i];

    Group* target = nullptr;
    if (!plan_->options_.two_level) {
      key_scratch_.clear();
      key_scratch_.reserve(num_groups);
      for (std::size_t g = 0; g < num_groups; ++g) {
        key_scratch_.push_back(key_cols_[g][i]);
      }
      target = FindOrCreateHighGroup(hash, key_scratch_);
    } else {
      LowSlot& slot =
          low_table_[low_mask_ != 0 ? (hash & low_mask_)
                                    : (hash % low_table_.size())];
      // Hit test straight against the columns (RowRef == Value mirrors
      // Value == Value), so a hit — the steady state — materializes no
      // Value at all.
      bool hit = slot.occupied && slot.hash == hash;
      if (hit) {
        for (std::size_t g = 0; g < num_groups; ++g) {
          if (!(key_cols_[g][i] == slot.group.key[g])) {
            hit = false;
            break;
          }
        }
      }
      if (!hit) {
        if (slot.occupied) EvictToHigh(slot);
        slot.occupied = true;
        ++low_occupied_;
        slot.hash = hash;
        slot.group.key.clear();  // buffer keeps its capacity
        for (std::size_t g = 0; g < num_groups; ++g) {
          slot.group.key.push_back(key_cols_[g][i]);
        }
        // fwdecay: hotpath-cold(low-slot admission: states allocated once per group, not per row)
        FillAggStates(plan_->agg_names_, &slot.group.aggs);
      }
      target = &slot.group;
    }
    UpdateGroup(*target, batch, dets, i, j - i);
    i = j;
  }
}

void QueryExecution::CheckInvariants() const {
  // High level: every group is slotted under the hash of its key and is
  // reachable from its home slot through an unbroken linear-probe chain
  // (the tombstone-free deletion contract), no key appears twice,
  // aggregate arity matches the plan, and the cached counts are exact.
  // A violation here is precisely the kind of corruption the
  // differential fuzzers cannot see until an affected group is queried —
  // and Restore() of a hostile snapshot must never leave one behind.
  const std::size_t cap = high_->slots.size();
  FWDECAY_CHECK_MSG(cap == 0 || (cap & (cap - 1)) == 0,
                    "flat-table capacity is not a power of two");
  FWDECAY_CHECK_MSG(high_->hashes.size() == cap,
                    "flat-table slot arrays diverged in length");
  std::size_t high_n = 0;
  std::vector<std::pair<std::uint64_t, const Group*>> seen;
  seen.reserve(high_->size);
  for (std::size_t s = 0; s < cap; ++s) {
    const Group* g = high_->slots[s];
    if (g == nullptr) continue;
    ++high_n;
    const std::uint64_t hash = high_->hashes[s];
    FWDECAY_CHECK_MSG(HashKey(g->key) == hash,
                      "group filed under the wrong hash");
    FWDECAY_CHECK_MSG(g->key.size() == plan_->group_exprs_.size(),
                      "group key arity differs from the plan");
    FWDECAY_CHECK_MSG(g->aggs.size() == plan_->agg_names_.size(),
                      "aggregate slot count differs from the plan");
    FWDECAY_CHECK_MSG(g->weight >= 0.0 && !std::isnan(g->weight),
                      "group forward-decay weight is negative or NaN");
    // Probe invariant: no empty slot between the key's home slot and
    // where the group actually sits, or Find() could never reach it.
    for (std::size_t p = hash & high_->mask; p != s;
         p = (p + 1) & high_->mask) {
      FWDECAY_CHECK_MSG(high_->slots[p] != nullptr,
                        "broken probe chain in the flat high table");
    }
    seen.emplace_back(hash, g);
  }
  // Equal keys imply equal hashes, so duplicate keys can only hide
  // inside equal-hash runs.
  std::sort(seen.begin(), seen.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i + 1 < seen.size(); ++i) {
    for (std::size_t j = i + 1;
         j < seen.size() && seen[j].first == seen[i].first; ++j) {
      FWDECAY_CHECK_MSG(!KeysEqual(seen[i].second->key, seen[j].second->key),
                        "duplicate group key in the flat high table");
    }
  }
  FWDECAY_CHECK_MSG(high_n == high_->size,
                    "flat-table occupancy count out of sync");
  FWDECAY_CHECK_MSG(high_n == high_group_count_,
                    "cached high-level group count out of sync");

  // Low level: the table's size is fixed by the plan options, and every
  // occupied slot sits at hash % slots with a key that re-hashes to the
  // stored hash.
  if (plan_->options_.two_level) {
    FWDECAY_CHECK_MSG(low_table_.size() == plan_->options_.low_level_slots,
                      "low-level table was resized after construction");
  } else {
    FWDECAY_CHECK_MSG(low_table_.empty(),
                      "low-level table allocated in one-level mode");
  }
  std::size_t low_n = 0;
  for (std::size_t s = 0; s < low_table_.size(); ++s) {
    const LowSlot& slot = low_table_[s];
    if (!slot.occupied) continue;
    ++low_n;
    FWDECAY_CHECK_MSG(slot.hash % low_table_.size() == s,
                      "low-level slot holds a group mapped elsewhere");
    FWDECAY_CHECK_MSG(HashKey(slot.group.key) == slot.hash,
                      "low-level slot hash diverged from its key");
    FWDECAY_CHECK_MSG(slot.group.key.size() == plan_->group_exprs_.size(),
                      "low-level group key arity differs from the plan");
    FWDECAY_CHECK_MSG(slot.group.aggs.size() == plan_->agg_names_.size(),
                      "low-level aggregate slot count differs from the plan");
    FWDECAY_CHECK_MSG(slot.group.weight >= 0.0 && !std::isnan(slot.group.weight),
                      "low-level group weight is negative or NaN");
  }
  FWDECAY_CHECK_MSG(low_n == low_occupied_,
                    "cached low-level occupancy count out of sync");

  // Counters and the shedding contract.
  FWDECAY_CHECK_MSG(tuples_aggregated_ <= packets_consumed_,
                    "more tuples aggregated than packets consumed");
  if (policy_.max_groups > 0) {
    FWDECAY_CHECK_MSG(high_group_count_ <= policy_.max_groups,
                      "overload policy group bound exceeded");
  }
}

void QueryExecution::FlushLowLevel() {
  for (LowSlot& slot : low_table_) {
    if (slot.occupied) EvictToHigh(slot);
  }
}

void QueryExecution::Reset() {
  // Publish the finished window's tail deltas before the counters
  // rewind; the flush baselines rewind with them so the next window's
  // first flush publishes exact deltas again.
  FlushMetrics();
  for (LowSlot& slot : low_table_) {
    if (!slot.occupied) continue;
    slot.occupied = false;
    slot.group.key.clear();
    slot.group.aggs.clear();
    slot.group.weight = 0.0;
    slot.group.tuples = 0;
  }
  low_occupied_ = 0;
  high_->Clear();
  high_group_count_ = 0;
  packets_consumed_ = 0;
  tuples_aggregated_ = 0;
  low_level_evictions_ = 0;
  groups_shed_ = 0;
  tuples_shed_ = 0;
  metrics_batch_seq_ = 0;
  flushed_packets_ = 0;
  flushed_batches_ = 0;
  flushed_tuples_ = 0;
  flushed_evictions_ = 0;
  flushed_groups_shed_ = 0;
  flushed_tuples_shed_ = 0;
}

void QueryExecution::FinalizeGroups(
    std::vector<std::vector<Value>>* rows,
    std::vector<const std::vector<Value>*>* keys) {
  std::vector<Group*> groups;
  groups.reserve(high_group_count_);
  for (Group* g : high_->slots) {
    if (g != nullptr) groups.push_back(g);
  }
  std::sort(groups.begin(), groups.end(), [](const Group* a, const Group* b) {
    return KeyLess(a->key, b->key);
  });

  for (Group* g : groups) {
    std::vector<Value> agg_values;
    agg_values.reserve(g->aggs.size());
    for (const auto& agg : g->aggs) agg_values.push_back(agg->Finalize());
    if (plan_->having_ != nullptr &&
        !EvalPostPredicate(*plan_->having_, agg_values, g->key)) {
      continue;
    }
    std::vector<Value> row;
    row.reserve(plan_->outputs_.size());
    for (const auto& out : plan_->outputs_) {
      row.push_back(EvalPostExpr(*out.post, agg_values, g->key));
    }
    rows->push_back(std::move(row));
    if (keys != nullptr) keys->push_back(&g->key);
  }
}

ResultSet CompiledQuery::EmptyResult() const {
  ResultSet result;
  for (const auto& out : outputs_) result.columns.push_back(out.column_name);
  return result;
}

void CompiledQuery::OrderAndLimit(
    std::vector<std::vector<Value>>* rows) const {
  // ORDER BY (stable, lexicographic over the listed columns); the rows
  // are already in group-key order, which remains the tiebreaker.
  if (!order_by_.empty()) {
    std::stable_sort(
        rows->begin(), rows->end(),
        [this](const std::vector<Value>& a, const std::vector<Value>& b) {
          for (const auto& [col, desc] : order_by_) {
            const int cmp = Compare(a[col], b[col]);
            if (cmp != 0) return desc ? cmp > 0 : cmp < 0;
          }
          return false;
        });
  }
  if (limit_.has_value() && rows->size() > static_cast<std::size_t>(*limit_)) {
    rows->resize(static_cast<std::size_t>(*limit_));
  }
}

ResultSet QueryExecution::Finish() {
  // Flush remaining low-level partial groups.
  FlushLowLevel();
  // Publish the tail counter deltas (including the evictions the flush
  // above just produced) before results are read.
  FlushMetrics();

  ResultSet result = plan_->EmptyResult();
  FinalizeGroups(&result.rows, /*keys=*/nullptr);
  plan_->OrderAndLimit(&result.rows);
  return result;
}

// ---------------------------------------------------------------------------
// Checkpoint / restore
// ---------------------------------------------------------------------------
//
// Snapshot file layout (normative byte-offset tables: DESIGN.md §6.2):
//   8 bytes   magic "FWDSNAP1"
//   u32       format version (2)
//   u32       CRC32C of the payload
//   u64       payload length
//   payload   versioned ByteWriter frame (plan fingerprint, counters,
//             shedding policy + counters, low slots, high groups)
// The file is written through FaultFs::AtomicWriteFile, so a crash at
// any byte leaves either the previous snapshot or this one, never a mix;
// the CRC catches torn or bit-rotted payloads at restore time.

namespace {

constexpr char kSnapshotMagic[8] = {'F', 'W', 'D', 'S', 'N', 'A', 'P', '1'};
// Version 2: sampler frames hold no generator state (their randomness
// hashes from each row's determinator). A version-1 image's sampler
// frames carry 32 bytes of xoshiro state first, so they are refused
// rather than parsed.
constexpr std::uint32_t kSnapshotVersion = 2;

}  // namespace

bool QueryExecution::SerializeGroup(const Group& group, ByteWriter* writer,
                                    std::string* error) const {
  writer->WriteU32(static_cast<std::uint32_t>(group.key.size()));
  for (const Value& v : group.key) v.SerializeTo(writer);
  writer->WriteDouble(group.weight);
  writer->WriteU64(group.tuples);
  for (std::size_t slot = 0; slot < group.aggs.size(); ++slot) {
    // Each aggregate gets its own length-prefixed frame so Restore can
    // hand it a bounded sub-reader and verify full consumption.
    ByteWriter agg_writer;
    if (!group.aggs[slot]->SerializeTo(&agg_writer)) {
      *error = "aggregate '" + plan_->agg_names_[slot] +
               "' does not support checkpointing";
      return false;
    }
    const std::vector<std::uint8_t>& frame = agg_writer.bytes();
    writer->WriteU32(static_cast<std::uint32_t>(frame.size()));
    writer->WriteBytes(frame.data(), frame.size());
  }
  return true;
}

bool QueryExecution::RestoreGroup(ByteReader* reader, Group* group) {
  std::uint32_t key_size = 0;
  if (!reader->ReadU32(&key_size) ||
      key_size != plan_->group_exprs_.size()) {
    return false;
  }
  group->key.clear();
  group->key.reserve(key_size);
  for (std::uint32_t i = 0; i < key_size; ++i) {
    auto v = Value::Deserialize(reader);
    if (!v) return false;
    group->key.push_back(std::move(*v));
  }
  if (!reader->ReadDouble(&group->weight) || !reader->ReadU64(&group->tuples)) {
    return false;
  }
  group->aggs.clear();
  group->aggs.reserve(plan_->agg_names_.size());
  for (const std::string& name : plan_->agg_names_) {
    std::uint32_t frame_len = 0;
    ByteReader frame(nullptr, 0);
    if (!reader->ReadU32(&frame_len) ||
        !reader->ReadSubReader(frame_len, &frame)) {
      return false;
    }
    std::unique_ptr<AggState> state = AggRegistry::Instance().Create(name);
    if (!state->RestoreFrom(&frame) || !frame.Exhausted()) return false;
    group->aggs.push_back(std::move(state));
  }
  return true;
}

bool QueryExecution::Checkpoint(const std::string& path,
                                std::string* error) const {
  // Cold path: timed unconditionally (serialize + CRC + atomic write,
  // i.e. the fsyncs dominate — see also fwdecay_faultfs_fsync_ns).
  metrics::ScopedTimerSample checkpoint_timer(
      EngineMetrics::Get().checkpoint_ns,
      metrics::MetricsRegistry::Instance().NowSeconds());
  std::vector<std::uint8_t> image;
  if (!CheckpointBytes(&image, error)) return false;
  if (!FaultFs::Instance().AtomicWriteFile(path, image, error)) {
    return false;
  }
  EngineMetrics::Get().checkpoints->Increment();
  EngineMetrics::Get().checkpoint_bytes->Increment(image.size());
  return true;
}

bool QueryExecution::CheckpointBytes(std::vector<std::uint8_t>* out,
                                     std::string* error) const {
  ByteWriter payload;
  payload.WriteU64(plan_->Fingerprint());
  payload.WriteU8(plan_->options_.two_level ? 1 : 0);
  payload.WriteU64(plan_->options_.low_level_slots);
  payload.WriteU64(packets_consumed_);
  payload.WriteU64(tuples_aggregated_);
  payload.WriteU64(low_level_evictions_);
  payload.WriteU64(groups_shed_);
  payload.WriteU64(tuples_shed_);
  payload.WriteU64(policy_.max_groups);
  payload.WriteDouble(policy_.decay_alpha);
  payload.WriteDouble(policy_.landmark);

  std::uint32_t occupied = 0;
  for (const LowSlot& slot : low_table_) {
    if (slot.occupied) ++occupied;
  }
  payload.WriteU32(occupied);
  for (std::size_t i = 0; i < low_table_.size(); ++i) {
    const LowSlot& slot = low_table_[i];
    if (!slot.occupied) continue;
    payload.WriteU64(i);
    payload.WriteU64(slot.hash);
    if (!SerializeGroup(slot.group, &payload, error)) return false;
  }

  // High groups in deterministic key order: snapshots of equal states
  // are byte-identical regardless of table history (insertion order,
  // rehashes, and backward-shift deletions never reach the wire).
  std::vector<const Group*> groups;
  groups.reserve(high_group_count_);
  for (const Group* g : high_->slots) {
    if (g != nullptr) groups.push_back(g);
  }
  std::sort(groups.begin(), groups.end(),
            [](const Group* a, const Group* b) {
              return KeyLess(a->key, b->key);
            });
  payload.WriteU32(static_cast<std::uint32_t>(groups.size()));
  for (const Group* g : groups) {
    if (!SerializeGroup(*g, &payload, error)) return false;
  }

  const std::vector<std::uint8_t>& body = payload.bytes();
  ByteWriter file;
  file.WriteBytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  file.WriteU32(kSnapshotVersion);
  file.WriteU32(Crc32c(body.data(), body.size()));
  file.WriteU64(body.size());
  file.WriteBytes(body.data(), body.size());
  *out = file.Take();
  return true;
}

bool QueryExecution::Restore(const std::string& path, std::string* error) {
  // Recovery replay time: the snapshot-load half is timed here; the
  // re-ingest half shows up in the ordinary Consume() counters as the
  // caller re-feeds the trace from packets_consumed().
  metrics::ScopedTimerSample restore_timer(
      EngineMetrics::Get().restore_ns,
      metrics::MetricsRegistry::Instance().NowSeconds());
  std::vector<std::uint8_t> bytes;
  if (!FaultFs::Instance().ReadFile(path, &bytes, error)) return false;
  return RestoreBytes(bytes.data(), bytes.size(), error);
}

bool QueryExecution::RestoreBytes(const std::uint8_t* data, std::size_t size,
                                  std::string* error) {
  ByteReader header(data, size);
  char magic[8] = {};
  std::uint32_t version = 0;
  std::uint32_t crc = 0;
  std::uint64_t payload_len = 0;
  ByteReader payload(nullptr, 0);
  for (char& c : magic) {
    std::uint8_t b = 0;
    if (!header.ReadU8(&b)) {
      *error = "snapshot truncated before header";
      return false;
    }
    c = static_cast<char>(b);
  }
  if (std::memcmp(magic, kSnapshotMagic, sizeof(magic)) != 0) {
    *error = "not a FWDSNAP1 snapshot";
    return false;
  }
  if (!header.ReadU32(&version)) {
    *error = "snapshot truncated before header";
    return false;
  }
  if (version != kSnapshotVersion) {
    *error = "unsupported snapshot format version " + std::to_string(version) +
             " (this build reads version " +
             std::to_string(kSnapshotVersion) + ")";
    return false;
  }
  if (!header.ReadU32(&crc) || !header.ReadU64(&payload_len) ||
      payload_len != header.Remaining() ||
      !header.ReadSubReader(payload_len, &payload)) {
    *error = "snapshot payload length mismatch";
    return false;
  }
  if (Crc32c(data + (size - payload_len), payload_len) != crc) {
    *error = "snapshot CRC mismatch (torn or corrupt write)";
    return false;
  }

  std::uint64_t fingerprint = 0;
  std::uint8_t two_level = 0;
  std::uint64_t low_slots = 0;
  if (!payload.ReadU64(&fingerprint) ||
      fingerprint != plan_->Fingerprint()) {
    *error = "snapshot was taken under a different query plan";
    return false;
  }
  if (!payload.ReadU8(&two_level) ||
      (two_level != 0) != plan_->options_.two_level ||
      !payload.ReadU64(&low_slots) ||
      low_slots != plan_->options_.low_level_slots) {
    *error = "snapshot engine options do not match this plan";
    return false;
  }
  std::uint64_t max_groups = 0;
  if (!payload.ReadU64(&packets_consumed_) ||
      !payload.ReadU64(&tuples_aggregated_) ||
      !payload.ReadU64(&low_level_evictions_) ||
      !payload.ReadU64(&groups_shed_) || !payload.ReadU64(&tuples_shed_) ||
      !payload.ReadU64(&max_groups) ||
      !payload.ReadDouble(&policy_.decay_alpha) ||
      !payload.ReadDouble(&policy_.landmark)) {
    *error = "snapshot counters truncated";
    return false;
  }
  policy_.max_groups = static_cast<std::size_t>(max_groups);

  low_table_.clear();
  low_occupied_ = 0;
  if (plan_->options_.two_level) {
    low_table_.resize(plan_->options_.low_level_slots);
  }
  high_->Clear();
  high_group_count_ = 0;

  std::uint32_t occupied = 0;
  if (!payload.ReadU32(&occupied) || occupied > low_table_.size()) {
    *error = "snapshot low-level table corrupt";
    return false;
  }
  for (std::uint32_t i = 0; i < occupied; ++i) {
    std::uint64_t index = 0;
    std::uint64_t hash = 0;
    if (!payload.ReadU64(&index) || index >= low_table_.size() ||
        !payload.ReadU64(&hash) || low_table_[index].occupied) {
      *error = "snapshot low-level table corrupt";
      return false;
    }
    LowSlot& slot = low_table_[index];
    if (!RestoreGroup(&payload, &slot.group)) {
      *error = "snapshot low-level group corrupt";
      return false;
    }
    slot.occupied = true;
    ++low_occupied_;
    slot.hash = hash;
  }

  std::uint32_t n_groups = 0;
  // A group frame is at least 24 bytes (key count + weight + tuples +
  // one length prefix); bound the declared count before the loop.
  if (!payload.ReadU32(&n_groups) || n_groups > payload.Remaining() / 20) {
    *error = "snapshot group count corrupt";
    return false;
  }
  for (std::uint32_t i = 0; i < n_groups; ++i) {
    Group* g = high_->AcquireShell();
    if (!RestoreGroup(&payload, g)) {
      high_->ReleaseShell(g);
      *error = "snapshot group corrupt";
      return false;
    }
    high_->Insert(HashKey(g->key), g);
    ++high_group_count_;
  }
  if (!payload.Exhausted()) {
    *error = "snapshot has trailing bytes";
    return false;
  }
  // The restored counters replace this execution's history; resync the
  // flush baselines so the next FlushMetrics() publishes only genuinely
  // new work (a baseline above the restored counter would underflow the
  // delta).
  flushed_packets_ = packets_consumed_;
  flushed_tuples_ = tuples_aggregated_;
  flushed_evictions_ = low_level_evictions_;
  flushed_groups_shed_ = groups_shed_;
  flushed_tuples_shed_ = tuples_shed_;
  EngineMetrics::Get().restores->Increment();
  return true;
}

// ---------------------------------------------------------------------------
// Pipelined execution (shared-nothing, DESIGN.md §14)
// ---------------------------------------------------------------------------

namespace {

// Seed for remixing the group hash into a shard index. Must be a
// *different* function of the key than the group hash itself: the
// low-level table indexes by `hash % slots`, so routing by the raw hash
// would correlate shard choice with slot index and skew low-table
// occupancy per shard.
constexpr std::uint64_t kShardRouteSeed = 0x5ca1ab1e0ddba11ULL;

}  // namespace

// One shard's sub-batch: the routed rows and, when the plan reads them,
// per row the determinator the router derived from the row's position in
// its own input.
struct RoutedBatch {
  PacketBatch rows;
  std::vector<std::uint64_t> dets;

  RoutedBatch(std::size_t capacity, bool with_dets) : rows(capacity) {
    if (with_dets) dets.reserve(capacity);
  }
  void Clear() {
    rows.Clear();
    dets.clear();
  }
};

struct PipelinedQueryExecution::Shard {
  // Router -> worker: full sub-batches; ownership moves with the batch.
  SpscRing<RoutedBatch> to_worker;
  // Worker -> router: consumed batches, Clear()'d for reuse.
  SpscRing<RoutedBatch> recycle;
  std::unique_ptr<QueryExecution> exec;
  // Router-side gather under construction (not yet published).
  RoutedBatch pending;
  sched::Thread worker;

  Shard(std::size_t ring_capacity, std::size_t batch_capacity, bool with_dets)
      : to_worker(ring_capacity),
        recycle(ring_capacity),
        pending(batch_capacity, with_dets) {}
};

PipelinedQueryExecution::PipelinedQueryExecution(const CompiledQuery& plan,
                                                 const Options& options)
    : plan_(&plan), options_(options) {
  FWDECAY_CHECK_MSG(options.num_shards > 0,
                    "PipelinedQueryExecution needs at least one shard");
  shards_.reserve(options.num_shards);
  shard_rows_.resize(options.num_shards);
  for (std::size_t s = 0; s < options.num_shards; ++s) {
    auto shard = std::make_unique<Shard>(
        options.ring_capacity, options.batch_capacity, plan.uses_determinators_);
    shard->exec = plan.NewExecution();
    shard->exec->UseShardMetrics(s);
    shards_.push_back(std::move(shard));
  }
  // Spawn last: a worker only touches its own (fully constructed) shard
  // plus stop_, and the spawn itself synchronizes-with the worker body.
  for (std::size_t s = 0; s < options.num_shards; ++s) {
    Shard* shard = shards_[s].get();
    shards_[s]->worker =
        sched::Thread([this, shard] { WorkerLoop(*shard); });
  }
}

PipelinedQueryExecution::~PipelinedQueryExecution() {
  if (!quiesced_) {
    // Abandoned without Finish(): stop the workers without flushing the
    // partial sub-batches. The ring destructors drain what remains.
    stop_.store(true, std::memory_order_release);
    for (auto& shard : shards_) {
      if (shard->worker.Joinable()) shard->worker.Join();
    }
  }
}

void PipelinedQueryExecution::Consume(const PacketBatch& batch) {
  // The workers are joined once quiesced: a later batch would be lost
  // in `pending` or spin forever on a full ring.
  FWDECAY_CHECK_MSG(!quiesced_,
                    "PipelinedQueryExecution::Consume after Quiesce/Finish");
  const std::uint64_t position = packets_offered_;
  packets_offered_ += batch.size();
  // Router-level offered-packet count goes to the engine-wide family;
  // the per-shard fwdecay_shard_* counters only see post-filter rows.
  EngineMetrics::Get().packets->Increment(batch.size());
  const std::size_t n_in = batch.size();
  if (n_in == 0) return;

  // Stage 1 — filter + hash on the router thread, the same algebra as
  // the single-thread reference: protocol filter, WHERE, group-key
  // columns, group hash; then the remixed shard index.
  sel_.resize(n_in);
  const std::size_t n = plan_->SelectRows(batch, sel_.data(), &eval_scratch_);
  if (n == 0) return;

  const std::size_t num_groups = plan_->group_exprs_.size();
  if (key_cols_.size() < num_groups) key_cols_.resize(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    EvalExprBatch(*plan_->group_exprs_[g], batch, sel_.data(), n,
                  &eval_scratch_, &key_cols_[g]);
  }
  hashes_.resize(n);
  ComputeGroupHashes(key_cols_, num_groups, n, hashes_.data());
  shard_ids_.resize(n);
  simd::ShardIndexU64(hashes_.data(), n, kShardRouteSeed,
                      static_cast<std::uint32_t>(shards_.size()),
                      shard_ids_.data());
  for (std::size_t s = 0; s < shards_.size(); ++s) shard_rows_[s].clear();
  for (std::size_t i = 0; i < n; ++i) {
    shard_rows_[shard_ids_[i]].push_back(sel_[i]);
  }

  // Stage 2 — gather each shard's rows (stream order preserved) into
  // that shard's pending sub-batch, each with the determinator of its
  // position in this router's input (if the plan reads them), exactly as
  // the single-threaded engine would derive it. Full sub-batches
  // transfer whole through the SPSC ring. Partial fills stay pending
  // across Consume() calls and are flushed by Quiesce().
  const double* times = batch.time();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const auto& rows = shard_rows_[s];
    if (rows.empty()) continue;
    Shard& shard = *shards_[s];
    std::size_t off = 0;
    while (off < rows.size()) {
      PacketBatch& pending = shard.pending.rows;
      const std::size_t take =
          std::min(pending.capacity() - pending.size(), rows.size() - off);
      pending.AppendSelected(batch, rows.data() + off, take);
      if (plan_->uses_determinators_) {
        for (std::size_t i = off; i < off + take; ++i) {
          shard.pending.dets.push_back(
              RowDeterminator(position + rows[i], times[rows[i]]));
        }
      }
      off += take;
      if (pending.full()) DispatchPending(shard);
    }
  }
}

void PipelinedQueryExecution::DispatchPending(Shard& shard) {
  if (shard.pending.rows.empty()) return;
  while (!shard.to_worker.TryPush(std::move(shard.pending))) {
    // Backpressure: the shard's ring is full; let its worker run. The
    // failed TryPush leaves `pending` untouched.
    if (sched::InScheduledRegion()) {
      sched::Yield();
    } else {
      // fwdecay: hotpath-cold(backpressure spin runs only when the bounded ring is full)
      std::this_thread::yield();
    }
  }
  if (!shard.recycle.TryPop(&shard.pending)) {
    const bool with_dets = plan_->uses_determinators_;
    // fwdecay: hotpath-cold(pool warm-up allocation; the steady state reuses recycled batches)
    shard.pending = RoutedBatch(options_.batch_capacity, with_dets);
  }
}

void PipelinedQueryExecution::WorkerLoop(Shard& shard) {
  RoutedBatch batch(1, /*with_dets=*/false);
  for (;;) {
    if (!shard.to_worker.TryPop(&batch)) {
      // stop_ is release-stored after the final DispatchPending, so a
      // true load followed by one more empty pop proves no batch can
      // still arrive.
      if (stop_.load(std::memory_order_acquire)) {
        if (!shard.to_worker.TryPop(&batch)) break;
      } else {
        if (sched::InScheduledRegion()) {
          sched::Yield();
        } else {
          std::this_thread::yield();
        }
        continue;
      }
    }
    shard.exec->ConsumeBatch(batch.rows, &batch.dets);
    batch.Clear();
    // Offer the cleared batch back to the router; dropping it when the
    // recycle ring is full is fine (the router allocates a fresh one).
    (void)shard.recycle.TryPush(std::move(batch));
  }
}

void PipelinedQueryExecution::SetOverloadPolicy(const OverloadPolicy& policy) {
  FWDECAY_CHECK_MSG(packets_offered_ == 0,
                    "SetOverloadPolicy must precede the first Consume()");
  // No worker has received a batch yet, so no worker touches its exec;
  // the first ring publish orders this write before any worker read.
  for (auto& shard : shards_) shard->exec->SetOverloadPolicy(policy);
}

void PipelinedQueryExecution::Quiesce() {
  if (quiesced_) return;
  quiesced_ = true;
  for (auto& shard : shards_) DispatchPending(*shard);
  stop_.store(true, std::memory_order_release);
  for (auto& shard : shards_) shard->worker.Join();
}

ResultSet PipelinedQueryExecution::Finish() {
  FWDECAY_CHECK_MSG(!finished_,
                    "PipelinedQueryExecution::Finish is one-shot");
  Quiesce();
  finished_ = true;
  // Each shard finalizes on its own thread: it flushes its low level
  // under its own policy (so per-shard shedding bounds apply through the
  // flush, exactly as in the single-threaded Finish), publishes its tail
  // metric deltas, then sorts and finalizes its groups with HAVING. Shard
  // key spaces are disjoint, so every group is finalized from exactly
  // the state the single-threaded run would hold — no aggregate Merge,
  // no FP reassociation, no re-shedding (Section VI-B).
  struct Part {
    std::vector<std::vector<Value>> rows;
    std::vector<const std::vector<Value>*> keys;
    std::size_t next = 0;
  };
  std::vector<Part> parts(shards_.size());
  std::vector<sched::Thread> finishers;
  finishers.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    finishers.emplace_back([exec = shards_[s]->exec.get(), part = &parts[s]] {
      exec->FlushLowLevel();
      exec->FlushMetrics();
      exec->FinalizeGroups(&part->rows, &part->keys);
    });
  }
  for (sched::Thread& finisher : finishers) finisher.Join();
  if (FWDECAY_METRICS_ENABLED) {
    EngineMetrics::Get().groups->Set(static_cast<double>(GroupCount()));
  }

  // N-way merge of the key-sorted shard lists: the keys are disjoint, so
  // taking the KeyLess-smallest head each step reproduces the single
  // execution's key order; ORDER BY and LIMIT then run on that order.
  ResultSet result = plan_->EmptyResult();
  std::size_t total = 0;
  for (const Part& part : parts) total += part.rows.size();
  result.rows.reserve(total);
  for (std::size_t r = 0; r < total; ++r) {
    Part* head = nullptr;
    for (Part& part : parts) {
      if (part.next < part.keys.size() &&
          (head == nullptr ||
           KeyLess(*part.keys[part.next], *head->keys[head->next]))) {
        head = &part;
      }
    }
    result.rows.push_back(std::move(head->rows[head->next++]));
  }
  plan_->OrderAndLimit(&result.rows);
  return result;
}

std::uint64_t PipelinedQueryExecution::SumQuiesced(
    std::uint64_t (QueryExecution::*getter)() const) const {
  FWDECAY_CHECK_MSG(quiesced_,
                    "pipeline stats are valid once Quiesce() has run");
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += (shard->exec.get()->*getter)();
  return total;
}

std::uint64_t PipelinedQueryExecution::tuples_aggregated() const {
  return SumQuiesced(&QueryExecution::tuples_aggregated);
}

std::uint64_t PipelinedQueryExecution::low_level_evictions() const {
  return SumQuiesced(&QueryExecution::low_level_evictions);
}

std::uint64_t PipelinedQueryExecution::groups_shed() const {
  return SumQuiesced(&QueryExecution::groups_shed);
}

std::uint64_t PipelinedQueryExecution::tuples_shed() const {
  return SumQuiesced(&QueryExecution::tuples_shed);
}

std::size_t PipelinedQueryExecution::GroupCount() const {
  FWDECAY_CHECK_MSG(quiesced_,
                    "pipeline stats are valid once Quiesce() has run");
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->exec->GroupCount();
  return total;
}

void PipelinedQueryExecution::CheckInvariants() const {
  FWDECAY_CHECK_MSG(quiesced_,
                    "the pipeline audit is valid once Quiesce() has run");
  for (const auto& shard : shards_) shard->exec->CheckInvariants();
}

std::string ResultSet::ToString() const {
  std::string s;
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (c > 0) s += "\t";
    s += columns[c];
  }
  s += "\n";
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) s += "\t";
      s += row[c].ToString();
    }
    s += "\n";
  }
  return s;
}

}  // namespace fwdecay::dsms
