#include "dsms/agg.h"

#include <algorithm>
#include <cctype>
#include <unordered_set>

#include "util/check.h"

namespace fwdecay::dsms {

namespace {

std::string Lower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

// --- Built-in SQL aggregates -----------------------------------------------

class CountAgg : public AggState {
 public:
  void Update(std::span<const Value>, std::uint64_t) override { ++count_; }
  void UpdateBatch(std::span<const ValueColumn>, std::span<const std::uint64_t>,
                   std::span<const std::uint32_t> rows) override {
    count_ += static_cast<std::int64_t>(rows.size());
  }
  void Merge(AggState& other) override {
    count_ += static_cast<CountAgg&>(other).count_;
  }
  Value Finalize() const override { return Value(count_); }
  bool SerializeTo(ByteWriter* writer) const override {
    writer->WriteI64(count_);
    return true;
  }
  bool RestoreFrom(ByteReader* reader) override {
    return reader->ReadI64(&count_) && count_ >= 0;
  }

 private:
  std::int64_t count_ = 0;
};

class SumAgg : public AggState {
 public:
  void Update(std::span<const Value> args, std::uint64_t) override {
    FWDECAY_CHECK_MSG(!args.empty(), "sum() needs an argument");
    if (!args[0].is_int()) all_int_ = false;
    sum_ += args[0].AsDouble();
  }
  void UpdateBatch(std::span<const ValueColumn> args_columns,
                   std::span<const std::uint64_t>,
                   std::span<const std::uint32_t> rows) override {
    FWDECAY_CHECK_MSG(!args_columns.empty(), "sum() needs an argument");
    const ValueColumn& col = args_columns[0];
    // Row order preserved: FP addition order matches the per-tuple path.
    // Typed columns skip the per-row type test — a kI64 column is int in
    // every row (all_int_ unchanged), a kF64 column in none.
    switch (col.rep()) {
      case ValueColumn::Rep::kI64: {
        const std::int64_t* v = col.i64_data();
        for (std::uint32_t row : rows) sum_ += static_cast<double>(v[row]);
        return;
      }
      case ValueColumn::Rep::kF64: {
        if (!rows.empty()) all_int_ = false;
        const double* v = col.f64_data();
        for (std::uint32_t row : rows) sum_ += v[row];
        return;
      }
      case ValueColumn::Rep::kBoxed:
        break;
    }
    for (std::uint32_t row : rows) {
      if (!col[row].is_int()) all_int_ = false;
      sum_ += col[row].AsDouble();
    }
  }
  void Merge(AggState& other) override {
    auto& o = static_cast<SumAgg&>(other);
    sum_ += o.sum_;
    all_int_ = all_int_ && o.all_int_;
  }
  Value Finalize() const override {
    if (all_int_) return Value(static_cast<std::int64_t>(sum_));
    return Value(sum_);
  }
  bool SerializeTo(ByteWriter* writer) const override {
    writer->WriteDouble(sum_);
    writer->WriteU8(all_int_ ? 1 : 0);
    return true;
  }
  bool RestoreFrom(ByteReader* reader) override {
    std::uint8_t flag = 0;
    if (!reader->ReadDouble(&sum_) || !reader->ReadU8(&flag) || flag > 1) {
      return false;
    }
    all_int_ = flag != 0;
    return true;
  }

 private:
  double sum_ = 0.0;
  bool all_int_ = true;
};

class AvgAgg : public AggState {
 public:
  void Update(std::span<const Value> args, std::uint64_t) override {
    FWDECAY_CHECK_MSG(!args.empty(), "avg() needs an argument");
    sum_ += args[0].AsDouble();
    ++count_;
  }
  void UpdateBatch(std::span<const ValueColumn> args_columns,
                   std::span<const std::uint64_t>,
                   std::span<const std::uint32_t> rows) override {
    FWDECAY_CHECK_MSG(!args_columns.empty(), "avg() needs an argument");
    const ValueColumn& col = args_columns[0];
    switch (col.rep()) {
      case ValueColumn::Rep::kI64: {
        const std::int64_t* v = col.i64_data();
        for (std::uint32_t row : rows) sum_ += static_cast<double>(v[row]);
        break;
      }
      case ValueColumn::Rep::kF64: {
        const double* v = col.f64_data();
        for (std::uint32_t row : rows) sum_ += v[row];
        break;
      }
      case ValueColumn::Rep::kBoxed:
        for (std::uint32_t row : rows) sum_ += col[row].AsDouble();
        break;
    }
    count_ += static_cast<std::int64_t>(rows.size());
  }
  void Merge(AggState& other) override {
    auto& o = static_cast<AvgAgg&>(other);
    sum_ += o.sum_;
    count_ += o.count_;
  }
  Value Finalize() const override {
    return Value(count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_));
  }
  bool SerializeTo(ByteWriter* writer) const override {
    writer->WriteDouble(sum_);
    writer->WriteI64(count_);
    return true;
  }
  bool RestoreFrom(ByteReader* reader) override {
    return reader->ReadDouble(&sum_) && reader->ReadI64(&count_) &&
           count_ >= 0;
  }

 private:
  double sum_ = 0.0;
  std::int64_t count_ = 0;
};

/// count(distinct expr): exact distinct count over the argument's value
/// hashes (Section IV-D's undecayed special case; the decayed variant is
/// the FDDISTINCT UDAF).
class CountDistinctAgg : public AggState {
 public:
  void Update(std::span<const Value> args, std::uint64_t) override {
    FWDECAY_CHECK_MSG(!args.empty(), "count(distinct) needs an argument");
    seen_.insert(args[0].Hash());
  }
  void UpdateBatch(std::span<const ValueColumn> args_columns,
                   std::span<const std::uint64_t>,
                   std::span<const std::uint32_t> rows) override {
    FWDECAY_CHECK_MSG(!args_columns.empty(),
                      "count(distinct) needs an argument");
    const ValueColumn& col = args_columns[0];
    for (std::uint32_t row : rows) seen_.insert(col[row].Hash());
  }
  void Merge(AggState& other) override {
    auto& o = static_cast<CountDistinctAgg&>(other);
    seen_.insert(o.seen_.begin(), o.seen_.end());
  }
  Value Finalize() const override {
    return Value(static_cast<std::int64_t>(seen_.size()));
  }
  bool SerializeTo(ByteWriter* writer) const override {
    // Sorted so snapshots of equal states are byte-identical.
    std::vector<std::uint64_t> hashes(seen_.begin(), seen_.end());
    std::sort(hashes.begin(), hashes.end());
    writer->WriteU64(hashes.size());
    for (std::uint64_t h : hashes) writer->WriteU64(h);
    return true;
  }
  bool RestoreFrom(ByteReader* reader) override {
    std::uint64_t n = 0;
    if (!reader->ReadU64(&n) || n > reader->Remaining() / 8) return false;
    seen_.clear();
    seen_.reserve(n);
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      std::uint64_t h = 0;
      if (!reader->ReadU64(&h)) return false;
      if (i > 0 && h <= prev) return false;  // must be strictly ascending
      prev = h;
      seen_.insert(h);
    }
    return true;
  }

 private:
  std::unordered_set<std::uint64_t> seen_;
};

template <bool kIsMax>
class ExtremumAgg : public AggState {
 public:
  void Update(std::span<const Value> args, std::uint64_t) override {
    FWDECAY_CHECK_MSG(!args.empty(), "min()/max() needs an argument");
    Offer(args[0]);
  }
  void UpdateBatch(std::span<const ValueColumn> args_columns,
                   std::span<const std::uint64_t>,
                   std::span<const std::uint32_t> rows) override {
    FWDECAY_CHECK_MSG(!args_columns.empty(), "min()/max() needs an argument");
    const ValueColumn& col = args_columns[0];
    for (std::uint32_t row : rows) Offer(col[row]);
  }
  void Merge(AggState& other) override {
    auto& o = static_cast<ExtremumAgg&>(other);
    if (o.has_value_) Offer(o.best_);
  }
  Value Finalize() const override { return has_value_ ? best_ : Value(); }
  bool SerializeTo(ByteWriter* writer) const override {
    writer->WriteU8(has_value_ ? 1 : 0);
    if (has_value_) best_.SerializeTo(writer);
    return true;
  }
  bool RestoreFrom(ByteReader* reader) override {
    std::uint8_t flag = 0;
    if (!reader->ReadU8(&flag) || flag > 1) return false;
    has_value_ = flag != 0;
    if (has_value_) {
      auto v = Value::Deserialize(reader);
      if (!v) return false;
      best_ = std::move(*v);
    }
    return true;
  }

 private:
  void Offer(const Value& v) {
    if (!has_value_ || (kIsMax ? Compare(v, best_) > 0
                               : Compare(v, best_) < 0)) {
      best_ = v;
    }
    has_value_ = true;
  }

  Value best_;
  bool has_value_ = false;
};

}  // namespace

void AggState::UpdateBatch(std::span<const ValueColumn> args_columns,
                           std::span<const std::uint64_t> dets,
                           std::span<const std::uint32_t> rows) {
  // Gather each selected row into the member scratch and fall back to
  // the per-tuple Update — same call sequence, same state evolution,
  // no per-tuple allocation (the scratch buffer is reused).
  update_scratch_.resize(args_columns.size());
  for (std::uint32_t row : rows) {
    for (std::size_t a = 0; a < args_columns.size(); ++a) {
      update_scratch_[a] = args_columns[a][row];
    }
    Update(update_scratch_, dets.empty() ? 0 : dets[row]);
  }
}

bool AggState::SerializeTo(ByteWriter*) const {
  // Aggregates that predate checkpointing opt out by default; the engine
  // reports the plan as non-checkpointable instead of writing a partial
  // snapshot.
  return false;
}

bool AggState::RestoreFrom(ByteReader*) { return false; }

AggRegistry::AggRegistry() {
  Register("count", [] { return std::make_unique<CountAgg>(); });
  Register("count_distinct",
           [] { return std::make_unique<CountDistinctAgg>(); });
  Register("sum", [] { return std::make_unique<SumAgg>(); });
  Register("avg", [] { return std::make_unique<AvgAgg>(); });
  Register("min", [] { return std::make_unique<ExtremumAgg<false>>(); });
  Register("max", [] { return std::make_unique<ExtremumAgg<true>>(); });
}

AggRegistry& AggRegistry::Instance() {
  // Leaked singleton: trivially-destructible static storage per the
  // style rules on global objects.
  static AggRegistry& registry = *new AggRegistry();
  return registry;
}

void AggRegistry::Register(const std::string& name, AggFactory factory) {
  const std::string key = Lower(name);
  for (auto& [existing, f] : entries_) {
    if (existing == key) {
      f = std::move(factory);
      return;
    }
  }
  entries_.emplace_back(key, std::move(factory));
}

bool AggRegistry::Contains(const std::string& name) const {
  const std::string key = Lower(name);
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const auto& e) { return e.first == key; });
}

std::unique_ptr<AggState> AggRegistry::Create(const std::string& name) const {
  const std::string key = Lower(name);
  for (const auto& [existing, factory] : entries_) {
    if (existing == key) return factory();
  }
  FWDECAY_CHECK_MSG(false, "unknown aggregate function");
  return nullptr;
}

std::vector<std::string> AggRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, factory] : entries_) names.push_back(name);
  return names;
}

}  // namespace fwdecay::dsms
