#ifndef FWDECAY_DSMS_AGG_H_
#define FWDECAY_DSMS_AGG_H_

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dsms/column.h"
#include "dsms/value.h"
#include "util/bytes.h"
#include "util/hash.h"

// Aggregate-function framework of the mini DSMS.
//
// Mirrors the GS architecture the paper builds on (Section I/VIII): the
// engine ships with the built-in SQL aggregates (count, sum, avg, min,
// max) and exposes the same *UDAF* extension hook GS has — arbitrary
// C++ aggregation code invoked per tuple with evaluated arguments. The
// paper's entire experimental apparatus (weighted SpaceSaving, samplers,
// EH baselines) plugs in through this interface; see udafs.h.

namespace fwdecay::dsms {

// ValueColumn (one evaluated argument expression over a batch's
// selected rows, column-at-a-time layout; see EvalExprBatch in expr.h)
// now lives in dsms/column.h as a typed class.

/// The row's *determinator* (DESIGN.md §8.4): a 64-bit value the engine
/// hands aggregates with each row, a pure function of the row's
/// input-stream position and its timestamp. Samplers derive their
/// per-item uniform from it, so a sample depends on the input alone —
/// not on how many states were created before, nor on how the stream
/// was split across shards, low-level evictions or a checkpoint. The
/// timestamp is mixed in because positions restart at 0 when a tumbling
/// window reuses its execution through QueryExecution::Reset().
inline std::uint64_t RowDeterminator(std::uint64_t position, double time) {
  return HashU64(position, std::bit_cast<std::uint64_t>(time));
}

/// Per-group aggregation state. One instance per (group, aggregate call).
class AggState {
 public:
  virtual ~AggState() = default;

  /// True if Update/UpdateBatch read the row determinators. The engine
  /// computes determinators only for plans with such an aggregate; in
  /// other plans `det` is 0 and `dets` is empty.
  virtual bool UsesDeterminators() const { return false; }

  /// Folds one tuple's evaluated argument list into the state. `det` is
  /// the row's determinator (RowDeterminator).
  virtual void Update(std::span<const Value> args, std::uint64_t det) = 0;

  /// Folds a run of tuples from evaluated argument *columns*:
  /// args_columns[a][row] is argument `a` of the tuple at dense row
  /// index `row`, and dets[row] is that tuple's determinator (see
  /// UsesDeterminators); `rows` lists the (ascending) rows belonging to
  /// this state's group. The default implementation gathers each row
  /// into a reused scratch buffer and calls Update(), preserving
  /// per-tuple semantics bit for bit; hot aggregates override it with a
  /// tight column loop. Overrides must process rows in order: FP
  /// accumulation order defines the engine's bit-exactness contract
  /// (DESIGN.md §8.3).
  virtual void UpdateBatch(std::span<const ValueColumn> args_columns,
                           std::span<const std::uint64_t> dets,
                           std::span<const std::uint32_t> rows);

  /// Merges another state of the same concrete type (used by the
  /// two-level aggregation split when the low level evicts a partial
  /// group, and by distributed combination). Implementations may
  /// CHECK-fail if merging is not meaningful for them.
  virtual void Merge(AggState& other) = 0;

  /// Produces the output value for the group.
  virtual Value Finalize() const = 0;

  /// Writes the state's *exact* contents for engine checkpointing: a
  /// restored state must not just finalize to the same value, it must
  /// evolve identically under future updates (recovery-replay proves
  /// equality with the uninterrupted run bit for bit). Returns false if
  /// this aggregate does not support checkpointing; the engine then
  /// refuses to snapshot the plan rather than write a partial snapshot.
  virtual bool SerializeTo(ByteWriter* writer) const;

  /// Restores state written by SerializeTo into a freshly created
  /// instance of the same aggregate. Returns false on truncated or
  /// corrupt input (the instance is then unusable and must be dropped).
  virtual bool RestoreFrom(ByteReader* reader);

 private:
  // Row-gather buffer for the default UpdateBatch (reused across calls
  // so the batched path never allocates per tuple). Pure scratch: not
  // part of the aggregate's logical state, never serialized.
  std::vector<Value> update_scratch_;
};

/// Creates a fresh state for one group.
using AggFactory = std::function<std::unique_ptr<AggState>()>;

/// Name-to-factory registry. Built-in aggregates are pre-registered;
/// UDAFs are added with Register() — no query-language or engine changes
/// required, which is the deployment story of Section VI.
class AggRegistry {
 public:
  /// The process-wide registry (lazily constructed, never destroyed).
  static AggRegistry& Instance();

  /// Registers (or replaces) an aggregate under a lowercase name.
  void Register(const std::string& name, AggFactory factory);

  /// True if `name` (any case) is a known aggregate.
  bool Contains(const std::string& name) const;

  /// Creates a state; CHECK-fails for unknown names.
  std::unique_ptr<AggState> Create(const std::string& name) const;

  /// All registered lowercase names (for the planner's classifier).
  std::vector<std::string> Names() const;

 private:
  AggRegistry();

  std::vector<std::pair<std::string, AggFactory>> entries_;
};

}  // namespace fwdecay::dsms

#endif  // FWDECAY_DSMS_AGG_H_
