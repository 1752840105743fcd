#include "dsms/udafs.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dsms/agg.h"
#include "sampling/biased_reservoir.h"
#include "sketch/backward_sum.h"
#include "sketch/dominance_norm.h"
#include "sketch/qdigest.h"
#include "sketch/sliding_hh.h"
#include "sketch/space_saving.h"
#include "util/check.h"
#include "util/hash.h"
#include "util/top_k_heap.h"

namespace fwdecay::dsms {

namespace {

// Renders a sample of numeric items as "v1,v2,..." sorted ascending.
std::string RenderSample(std::vector<double> items) {
  std::sort(items.begin(), items.end());
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", items[i]);
    out += buf;
  }
  return out;
}

std::size_t OptSize(std::span<const Value> args, std::size_t index,
                    std::size_t fallback) {
  if (args.size() <= index) return fallback;
  const std::int64_t v = args[index].AsInt();
  FWDECAY_CHECK_MSG(v > 0, "UDAF size parameter must be positive");
  return static_cast<std::size_t>(v);
}

double OptDouble(std::span<const Value> args, std::size_t index,
                 double fallback) {
  return args.size() <= index ? fallback : args[index].AsDouble();
}

// Column-indexed variants for UpdateBatch overrides: read one row's
// optional parameter straight out of the argument columns, so batched
// lazy initialization never gathers a per-row argument vector.
std::size_t OptColSize(std::span<const ValueColumn> args_columns,
                       std::size_t index, std::uint32_t row,
                       std::size_t fallback) {
  if (args_columns.size() <= index) return fallback;
  const std::int64_t v = args_columns[index][row].AsInt();
  FWDECAY_CHECK_MSG(v > 0, "UDAF size parameter must be positive");
  return static_cast<std::size_t>(v);
}

double OptColDouble(std::span<const ValueColumn> args_columns,
                    std::size_t index, std::uint32_t row, double fallback) {
  return args_columns.size() <= index ? fallback
                                      : args_columns[index][row].AsDouble();
}

// --- Samplers ---------------------------------------------------------------
//
// Sampler randomness is a pure function of the row (DESIGN.md §8.4):
// each item's uniform is HashToUnitOpen(HashU64(det, seed)) over the
// engine's per-row determinator, so no sampler holds a generator or
// snapshots one. Each sampler hashes under its own seed, so two samplers
// in one query draw independent uniforms for the same row.

constexpr std::uint64_t kPrisampSeed = 0x70726973616d7001ULL;
constexpr std::uint64_t kWrsampSeed = 0x7772736d706c6502ULL;
constexpr std::uint64_t kRessampSeed = 0x72657373616d7003ULL;
constexpr std::uint64_t kAggsampCoinSeed = 0x616767636f696e04ULL;
constexpr std::uint64_t kAggsampSlotSeed = 0x616767736c6f7405ULL;

enum class SampleScore {
  kPriority,  // PRISAMP: w / u (Theorem 6)
  kARes,      // WRSAMP: -log(-log u^(1/w)), monotone in the A-Res key
  kUniform,   // RESSAMP: u, i.e. unit-weight A-Res (Vitter's reservoir)
};

/// PRISAMP(item, weight [, k]), WRSAMP(item, weight [, k]) and
/// RESSAMP(item [, k]): bottom-k samplers over one TopKHeap that differ
/// only in their score. The heap keeps the items of largest score, and
/// a score depends only on the item's weight and determinator, so the
/// retained set is a function of the input multiset: Merge (take the
/// union, keep the top) is exact for any partition of the stream, up to
/// score ties, which need two 53-bit uniforms to collide.
/// PRISAMP keeps k+1 items and reports the top k — the (k+1)-th
/// priority is the estimator's threshold. Priorities w/u are kept in
/// the linear domain — weights such as exp(time % 60) stay well within
/// double range inside a one-minute group.
template <SampleScore kScore>
class HeapSamplerUdaf : public AggState {
 public:
  bool UsesDeterminators() const override { return true; }

  void Update(std::span<const Value> args, std::uint64_t det) override {
    FWDECAY_CHECK_MSG(args.size() >= kSizeArg, Usage());
    EnsureHeap(OptSize(args, kSizeArg, kDefaultK) + kExtra);
    double w = 1.0;
    if constexpr (kWeighted) {
      w = args[1].AsDouble();
      if (w <= 0.0) return;
    }
    heap_->Offer(Score(w, det), args[0].AsDouble());
  }

  void UpdateBatch(std::span<const ValueColumn> args_columns,
                   std::span<const std::uint64_t> dets,
                   std::span<const std::uint32_t> rows) override {
    FWDECAY_CHECK_MSG(args_columns.size() >= kSizeArg, Usage());
    if (rows.empty()) return;
    if (heap_ == nullptr) {
      EnsureHeap(OptColSize(args_columns, kSizeArg, rows.front(), kDefaultK) +
                 kExtra);
    }
    const ValueColumn& items = args_columns[0];
    for (std::uint32_t row : rows) {
      double w = 1.0;
      if constexpr (kWeighted) {
        w = args_columns[1][row].AsDouble();
        if (w <= 0.0) continue;
      }
      heap_->Offer(Score(w, dets[row]), items[row].AsDouble());
    }
  }

  void Merge(AggState& other) override {
    auto& o = static_cast<HeapSamplerUdaf&>(other);
    if (o.heap_ == nullptr) return;
    EnsureHeap(o.heap_->capacity());
    for (const auto& e : o.heap_->entries()) heap_->Offer(e.score, e.value);
  }

  Value Finalize() const override {
    if (heap_ == nullptr) return Value(std::string());
    auto sorted = heap_->SortedByScoreDesc();
    const std::size_t take = kExtra != 0 && sorted.size() == heap_->capacity()
                                 ? sorted.size() - kExtra
                                 : sorted.size();
    std::vector<double> items;
    for (std::size_t i = 0; i < take; ++i) items.push_back(sorted[i].value);
    return Value(RenderSample(std::move(items)));
  }

  bool SerializeTo(ByteWriter* writer) const override {
    writer->WriteU8(heap_ != nullptr ? 1 : 0);
    if (heap_ == nullptr) return true;
    writer->WriteU64(heap_->capacity());
    writer->WriteU32(static_cast<std::uint32_t>(heap_->size()));
    // Verbatim array order, so a restored heap is the same heap.
    for (const auto& e : heap_->entries()) {
      writer->WriteDouble(e.score);
      writer->WriteDouble(e.value);
    }
    return true;
  }

  bool RestoreFrom(ByteReader* reader) override {
    std::uint8_t flag = 0;
    if (!reader->ReadU8(&flag) || flag > 1) return false;
    heap_.reset();
    if (flag == 0) return true;
    std::uint64_t capacity = 0;
    std::uint32_t n = 0;
    if (!reader->ReadU64(&capacity) || capacity == 0 ||
        capacity > (std::uint64_t{1} << 26)) {
      return false;
    }
    if (!reader->ReadU32(&n) || n > capacity || n > reader->Remaining() / 16) {
      return false;
    }
    std::vector<TopKHeap<double>::Entry> entries;
    entries.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      TopKHeap<double>::Entry e{0.0, 0.0};
      if (!reader->ReadDouble(&e.score) || !reader->ReadDouble(&e.value)) {
        return false;
      }
      entries.push_back(e);
    }
    heap_ =
        std::make_unique<TopKHeap<double>>(static_cast<std::size_t>(capacity));
    return heap_->RestoreEntries(std::move(entries));
  }

 private:
  static constexpr bool kWeighted = kScore != SampleScore::kUniform;
  static constexpr std::size_t kSizeArg = kWeighted ? 2 : 1;
  static constexpr std::size_t kExtra =
      kScore == SampleScore::kPriority ? 1 : 0;
  static constexpr std::size_t kDefaultK = 64;

  static const char* Usage() {
    switch (kScore) {
      case SampleScore::kPriority:
        return "PRISAMP(item, weight [, k])";
      case SampleScore::kARes:
        return "WRSAMP(item, weight [, k])";
      case SampleScore::kUniform:
        return "RESSAMP(item [, k])";
    }
    return "";
  }

  static double Score(double w, std::uint64_t det) {
    switch (kScore) {
      case SampleScore::kPriority:
        return w / HashToUnitOpen(HashU64(det, kPrisampSeed));
      case SampleScore::kARes:
        return std::log(w) -
               std::log(-std::log(HashToUnitOpen(HashU64(det, kWrsampSeed))));
      case SampleScore::kUniform:
        return HashToUnitOpen(HashU64(det, kRessampSeed));
    }
    return 0.0;
  }

  void EnsureHeap(std::size_t capacity) {
    if (heap_ == nullptr) heap_ = std::make_unique<TopKHeap<double>>(capacity);
  }

  std::unique_ptr<TopKHeap<double>> heap_;
};

/// AGGSAMP(item [, k]): Aggarwal's biased reservoir (baseline). Both of
/// an arrival's draws — overwrite-or-append and the overwritten slot —
/// hash from its determinator. The reservoir is sequential: its state
/// depends on arrival order within the group, so it has no exact union
/// and Merge is approximate (see Merge).
class AggsampUdaf : public AggState {
 public:
  bool UsesDeterminators() const override { return true; }

  void Update(std::span<const Value> args, std::uint64_t det) override {
    FWDECAY_CHECK_MSG(!args.empty(), "AGGSAMP(item [, k])");
    if (sampler_ == nullptr) {
      sampler_ = std::make_unique<BiasedReservoirSampler<double>>(
          OptSize(args, 1, kDefaultK));
    }
    Offer(args[0].AsDouble(), det);
  }

  void Merge(AggState& other) override {
    // Approximate: re-offers the peer's retained items as new arrivals,
    // each with a determinator hashed from this reservoir's arrival count
    // and the item, so the merged state is still a function of the two
    // inputs. Fine for the two-level engine split (partial groups are
    // disjoint stream segments), but not the reservoir the whole stream
    // would have produced.
    auto& o = static_cast<AggsampUdaf&>(other);
    if (o.sampler_ == nullptr) return;
    if (sampler_ == nullptr) {
      sampler_ = std::make_unique<BiasedReservoirSampler<double>>(
          o.sampler_->capacity());
    }
    for (double v : o.sampler_->sample()) {
      Offer(v, HashU64(sampler_->seen(), std::bit_cast<std::uint64_t>(v)));
    }
  }

  Value Finalize() const override {
    if (sampler_ == nullptr) return Value(std::string());
    return Value(RenderSample(sampler_->sample()));
  }

  bool SerializeTo(ByteWriter* writer) const override {
    writer->WriteU8(sampler_ != nullptr ? 1 : 0);
    if (sampler_ != nullptr) {
      writer->WriteU64(sampler_->capacity());
      writer->WriteU64(sampler_->seen());
      writer->WriteU32(static_cast<std::uint32_t>(sampler_->sample().size()));
      for (double v : sampler_->sample()) writer->WriteDouble(v);
    }
    return true;
  }

  bool RestoreFrom(ByteReader* reader) override {
    std::uint8_t flag = 0;
    if (!reader->ReadU8(&flag) || flag > 1) return false;
    sampler_.reset();
    if (flag == 0) return true;
    std::uint64_t capacity = 0;
    std::uint64_t seen = 0;
    std::uint32_t n = 0;
    if (!reader->ReadU64(&capacity) || capacity == 0 ||
        capacity > (std::uint64_t{1} << 26)) {
      return false;
    }
    if (!reader->ReadU64(&seen) || !reader->ReadU32(&n) || n > capacity ||
        n > reader->Remaining() / 8) {
      return false;
    }
    std::vector<double> sample;
    sample.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      double v = 0.0;
      if (!reader->ReadDouble(&v)) return false;
      sample.push_back(v);
    }
    sampler_ = std::make_unique<BiasedReservoirSampler<double>>(
        static_cast<std::size_t>(capacity));
    return sampler_->RestoreState(seen, std::move(sample));
  }

 private:
  static constexpr std::size_t kDefaultK = 64;

  void Offer(double item, std::uint64_t det) {
    // The coin must lie in [0, 1): a full reservoir (fill == 1) always
    // overwrites.
    sampler_->Add(item, 1.0 - HashToUnitOpen(HashU64(det, kAggsampCoinSeed)),
                  HashU64(det, kAggsampSlotSeed));
  }

  std::unique_ptr<BiasedReservoirSampler<double>> sampler_;
};

// --- Heavy hitters ----------------------------------------------------------

std::string RenderHitters(const std::vector<HeavyHitter>& hitters) {
  std::string out;
  for (std::size_t i = 0; i < hitters.size(); ++i) {
    if (i > 0) out += " ";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%llu:%.1f",
                  static_cast<unsigned long long>(hitters[i].key),
                  hitters[i].estimate);
    out += buf;
  }
  return out;
}

/// FDHH(key, weight [, phi [, eps]]): forward-decayed heavy hitters via
/// weighted SpaceSaving (Theorem 2). The weight argument is the static
/// weight g(t_i - L) generated by the query.
class FdhhUdaf : public AggState {
 public:
  void Update(std::span<const Value> args, std::uint64_t) override {
    FWDECAY_CHECK_MSG(args.size() >= 2, "FDHH(key, weight [, phi [, eps]])");
    if (sketch_ == nullptr) {
      phi_ = OptDouble(args, 2, 0.05);
      const double eps = OptDouble(args, 3, 0.01);
      // fwdecay: hotpath-cold(one-time lazy sketch init on the group's first update)
      sketch_ = std::make_unique<WeightedSpaceSaving>(
          static_cast<std::size_t>(std::ceil(1.0 / eps)));
    }
    const double w = args[1].AsDouble();
    if (w <= 0.0) return;
    sketch_->Update(static_cast<std::uint64_t>(args[0].AsInt()), w);
  }

  void UpdateBatch(std::span<const ValueColumn> args_columns,
                   std::span<const std::uint64_t>,
                   std::span<const std::uint32_t> rows) override {
    FWDECAY_CHECK_MSG(args_columns.size() >= 2,
                      "FDHH(key, weight [, phi [, eps]])");
    if (rows.empty()) return;
    if (sketch_ == nullptr) {
      phi_ = OptColDouble(args_columns, 2, rows.front(), 0.05);
      const double eps = OptColDouble(args_columns, 3, rows.front(), 0.01);
      // fwdecay: hotpath-cold(one-time lazy sketch init on the group's first update)
      sketch_ = std::make_unique<WeightedSpaceSaving>(
          static_cast<std::size_t>(std::ceil(1.0 / eps)));
    }
    const ValueColumn& keys = args_columns[0];
    const ValueColumn& weights = args_columns[1];
    for (std::uint32_t row : rows) {
      const double w = weights[row].AsDouble();
      if (w <= 0.0) continue;
      sketch_->Update(static_cast<std::uint64_t>(keys[row].AsInt()), w);
    }
  }

  void Merge(AggState& other) override {
    auto& o = static_cast<FdhhUdaf&>(other);
    if (o.sketch_ == nullptr) return;
    if (sketch_ == nullptr) {
      phi_ = o.phi_;
      sketch_ = std::make_unique<WeightedSpaceSaving>(o.sketch_->capacity());
    }
    sketch_->Merge(*o.sketch_);
  }

  Value Finalize() const override {
    if (sketch_ == nullptr) return Value(std::string());
    return Value(RenderHitters(sketch_->Query(phi_)));
  }

  bool SerializeTo(ByteWriter* writer) const override {
    writer->WriteDouble(phi_);
    writer->WriteU8(sketch_ != nullptr ? 1 : 0);
    if (sketch_ != nullptr) sketch_->SerializeTo(writer);
    return true;
  }

  bool RestoreFrom(ByteReader* reader) override {
    std::uint8_t flag = 0;
    if (!reader->ReadDouble(&phi_) || !std::isfinite(phi_) || phi_ < 0.0) {
      return false;
    }
    if (!reader->ReadU8(&flag) || flag > 1) return false;
    sketch_.reset();
    if (flag != 0) {
      auto sketch = WeightedSpaceSaving::Deserialize(reader);
      if (!sketch) return false;
      sketch_ = std::make_unique<WeightedSpaceSaving>(std::move(*sketch));
    }
    return true;
  }

 private:
  double phi_ = 0.05;
  std::unique_ptr<WeightedSpaceSaving> sketch_;
};

/// UNARYHH(key [, phi [, eps]]): undecayed heavy hitters via the
/// unary-optimized SpaceSaving (the paper's "Unary HH").
class UnaryhhUdaf : public AggState {
 public:
  void Update(std::span<const Value> args, std::uint64_t) override {
    FWDECAY_CHECK_MSG(!args.empty(), "UNARYHH(key [, phi [, eps]])");
    if (sketch_ == nullptr) {
      phi_ = OptDouble(args, 1, 0.05);
      const double eps = OptDouble(args, 2, 0.01);
      // fwdecay: hotpath-cold(one-time lazy sketch init on the group's first update)
      sketch_ = std::make_unique<UnarySpaceSaving>(
          static_cast<std::size_t>(std::ceil(1.0 / eps)));
    }
    sketch_->Update(static_cast<std::uint64_t>(args[0].AsInt()));
  }

  void Merge(AggState&) override {
    FWDECAY_CHECK_MSG(false,
                      "UNARYHH does not support the two-level split; run it "
                      "one-level (as the paper does for holistic UDAFs)");
  }

  Value Finalize() const override {
    if (sketch_ == nullptr) return Value(std::string());
    return Value(RenderHitters(sketch_->Query(phi_)));
  }

  bool SerializeTo(ByteWriter* writer) const override {
    writer->WriteDouble(phi_);
    writer->WriteU8(sketch_ != nullptr ? 1 : 0);
    if (sketch_ != nullptr) sketch_->SerializeTo(writer);
    return true;
  }

  bool RestoreFrom(ByteReader* reader) override {
    std::uint8_t flag = 0;
    if (!reader->ReadDouble(&phi_) || !std::isfinite(phi_) || phi_ < 0.0) {
      return false;
    }
    if (!reader->ReadU8(&flag) || flag > 1) return false;
    sketch_.reset();
    if (flag != 0) {
      auto sketch = UnarySpaceSaving::Deserialize(reader);
      if (!sketch) return false;
      sketch_ = std::make_unique<UnarySpaceSaving>(std::move(*sketch));
    }
    return true;
  }

 private:
  double phi_ = 0.05;
  std::unique_ptr<UnarySpaceSaving> sketch_;
};

/// SWHH(time, key [, phi [, eps]]): the sliding-window/backward-decay HH
/// baseline; finalizes to the HH set over the whole group span.
class SwhhUdaf : public AggState {
 public:
  void Update(std::span<const Value> args, std::uint64_t) override {
    FWDECAY_CHECK_MSG(args.size() >= 2, "SWHH(time, key [, phi [, eps]])");
    if (sketch_ == nullptr) {
      phi_ = OptDouble(args, 2, 0.05);
      const double eps = OptDouble(args, 3, 0.01);
      // fwdecay: hotpath-cold(one-time lazy sketch init on the group's first update)
      sketch_ = std::make_unique<SlidingWindowHeavyHitters>(eps);
    }
    const double ts = args[0].AsDouble();
    last_ts_ = std::max(last_ts_, ts);
    if (first_ts_ < 0.0) first_ts_ = ts;
    sketch_->Update(ts, static_cast<std::uint64_t>(args[1].AsInt()));
  }

  void Merge(AggState&) override {
    FWDECAY_CHECK_MSG(false, "SWHH does not support the two-level split");
  }

  Value Finalize() const override {
    if (sketch_ == nullptr) return Value(std::string());
    const double window = std::max(last_ts_ - first_ts_, 1e-9) * 2.0;
    return Value(RenderHitters(sketch_->QueryWindow(last_ts_, window, phi_)));
  }

  bool SerializeTo(ByteWriter* writer) const override {
    writer->WriteDouble(phi_);
    writer->WriteDouble(first_ts_);
    writer->WriteDouble(last_ts_);
    writer->WriteU8(sketch_ != nullptr ? 1 : 0);
    if (sketch_ != nullptr) sketch_->SerializeTo(writer);
    return true;
  }

  bool RestoreFrom(ByteReader* reader) override {
    std::uint8_t flag = 0;
    if (!reader->ReadDouble(&phi_) || !std::isfinite(phi_) || phi_ < 0.0) {
      return false;
    }
    if (!reader->ReadDouble(&first_ts_) || !reader->ReadDouble(&last_ts_) ||
        !reader->ReadU8(&flag) || flag > 1) {
      return false;
    }
    sketch_.reset();
    if (flag != 0) {
      auto sketch = SlidingWindowHeavyHitters::Deserialize(reader);
      if (!sketch) return false;
      sketch_ =
          std::make_unique<SlidingWindowHeavyHitters>(std::move(*sketch));
    }
    return true;
  }

 private:
  double phi_ = 0.05;
  double first_ts_ = -1.0;
  double last_ts_ = 0.0;
  std::unique_ptr<SlidingWindowHeavyHitters> sketch_;
};

// --- Backward-decayed sum baseline ------------------------------------------

/// EHDSUM(time, value [, eps]): maintains the exponential-histogram pair
/// and finalizes to the backward *polynomial* decayed sum f(a)=(a+1)^-2
/// evaluated at the group's last timestamp — the Figure 2 baseline.
class EhdsumUdaf : public AggState {
 public:
  void Update(std::span<const Value> args, std::uint64_t) override {
    FWDECAY_CHECK_MSG(args.size() >= 2, "EHDSUM(time, value [, eps])");
    if (agg_ == nullptr) {
      const double eps = OptDouble(args, 2, 0.1);
      // fwdecay: hotpath-cold(one-time lazy sketch init on the group's first update)
      agg_ = std::make_unique<BackwardDecayedAggregator>(eps,
                                                         /*value_bits=*/16);
    }
    const double ts = args[0].AsDouble();
    last_ts_ = std::max(last_ts_, ts);
    agg_->Insert(ts, static_cast<std::uint64_t>(args[1].AsInt()));
  }

  void Merge(AggState&) override {
    FWDECAY_CHECK_MSG(false, "EHDSUM does not support the two-level split");
  }

  Value Finalize() const override {
    if (agg_ == nullptr) return Value(0.0);
    return Value(agg_->DecayedSum(
        last_ts_, [](double age) { return std::pow(age + 1.0, -2.0); }));
  }

  bool SerializeTo(ByteWriter* writer) const override {
    writer->WriteDouble(last_ts_);
    writer->WriteU8(agg_ != nullptr ? 1 : 0);
    if (agg_ != nullptr) agg_->SerializeTo(writer);
    return true;
  }

  bool RestoreFrom(ByteReader* reader) override {
    std::uint8_t flag = 0;
    if (!reader->ReadDouble(&last_ts_) || !reader->ReadU8(&flag) ||
        flag > 1) {
      return false;
    }
    agg_.reset();
    if (flag != 0) {
      auto agg = BackwardDecayedAggregator::Deserialize(reader);
      if (!agg) return false;
      agg_ = std::make_unique<BackwardDecayedAggregator>(std::move(*agg));
    }
    return true;
  }

 private:
  double last_ts_ = 0.0;
  std::unique_ptr<BackwardDecayedAggregator> agg_;
};

// --- Decayed min / max (Definition 6) ---------------------------------------

/// FDMIN/FDMAX(value, weight): tracks the extremum of weight * value —
/// the static product g(t_i - L) * v_i of Definition 6; divide by
/// g(t - L) downstream to obtain the decayed extremum at query time t.
template <bool kIsMax>
class FdExtremumUdaf : public AggState {
 public:
  void Update(std::span<const Value> args, std::uint64_t) override {
    FWDECAY_CHECK_MSG(args.size() >= 2, "FDMIN/FDMAX(value, weight)");
    const double w = args[1].AsDouble();
    if (w <= 0.0) return;
    Offer(w * args[0].AsDouble());
  }

  void UpdateBatch(std::span<const ValueColumn> args_columns,
                   std::span<const std::uint64_t>,
                   std::span<const std::uint32_t> rows) override {
    FWDECAY_CHECK_MSG(args_columns.size() >= 2, "FDMIN/FDMAX(value, weight)");
    const ValueColumn& values = args_columns[0];
    const ValueColumn& weights = args_columns[1];
    for (std::uint32_t row : rows) {
      const double w = weights[row].AsDouble();
      if (w <= 0.0) continue;
      Offer(w * values[row].AsDouble());
    }
  }

  void Merge(AggState& other) override {
    auto& o = static_cast<FdExtremumUdaf&>(other);
    if (o.has_value_) Offer(o.best_);
  }

  Value Finalize() const override { return Value(has_value_ ? best_ : 0.0); }

  bool SerializeTo(ByteWriter* writer) const override {
    writer->WriteDouble(best_);
    writer->WriteU8(has_value_ ? 1 : 0);
    return true;
  }

  bool RestoreFrom(ByteReader* reader) override {
    std::uint8_t flag = 0;
    if (!reader->ReadDouble(&best_) || !reader->ReadU8(&flag) || flag > 1) {
      return false;
    }
    has_value_ = flag != 0;
    return true;
  }

 private:
  void Offer(double scaled) {
    if (!has_value_ || (kIsMax ? scaled > best_ : scaled < best_)) {
      best_ = scaled;
    }
    has_value_ = true;
  }

  double best_ = 0.0;
  bool has_value_ = false;
};

// --- Quantiles and distinct -------------------------------------------------

/// FDQUANTILE(value, weight, phi [, bits [, eps]]): weighted q-digest
/// quantile under forward decay (Theorem 3).
class FdquantileUdaf : public AggState {
 public:
  void Update(std::span<const Value> args, std::uint64_t) override {
    FWDECAY_CHECK_MSG(args.size() >= 3,
                      "FDQUANTILE(value, weight, phi [, bits [, eps]])");
    if (digest_ == nullptr) {
      phi_ = args[2].AsDouble();
      const int bits = static_cast<int>(OptSize(args, 3, 16));
      const double eps = OptDouble(args, 4, 0.01);
      // fwdecay: hotpath-cold(one-time lazy sketch init on the group's first update)
      digest_ = std::make_unique<QDigest>(bits, eps);
    }
    const double w = args[1].AsDouble();
    if (w <= 0.0) return;
    digest_->Update(static_cast<std::uint64_t>(args[0].AsInt()), w);
  }

  void UpdateBatch(std::span<const ValueColumn> args_columns,
                   std::span<const std::uint64_t>,
                   std::span<const std::uint32_t> rows) override {
    FWDECAY_CHECK_MSG(args_columns.size() >= 3,
                      "FDQUANTILE(value, weight, phi [, bits [, eps]])");
    if (rows.empty()) return;
    if (digest_ == nullptr) {
      phi_ = args_columns[2][rows.front()].AsDouble();
      const int bits =
          static_cast<int>(OptColSize(args_columns, 3, rows.front(), 16));
      const double eps = OptColDouble(args_columns, 4, rows.front(), 0.01);
      // fwdecay: hotpath-cold(one-time lazy sketch init on the group's first update)
      digest_ = std::make_unique<QDigest>(bits, eps);
    }
    const ValueColumn& values = args_columns[0];
    const ValueColumn& weights = args_columns[1];
    for (std::uint32_t row : rows) {
      const double w = weights[row].AsDouble();
      if (w <= 0.0) continue;
      digest_->Update(static_cast<std::uint64_t>(values[row].AsInt()), w);
    }
  }

  void Merge(AggState& other) override {
    auto& o = static_cast<FdquantileUdaf&>(other);
    if (o.digest_ == nullptr) return;
    if (digest_ == nullptr) {
      phi_ = o.phi_;
      digest_ = std::make_unique<QDigest>(o.digest_->universe_bits(),
                                          o.digest_->eps());
    }
    digest_->Merge(*o.digest_);
  }

  Value Finalize() const override {
    if (digest_ == nullptr) return Value(std::int64_t{0});
    return Value(static_cast<std::int64_t>(digest_->Quantile(phi_)));
  }

  bool SerializeTo(ByteWriter* writer) const override {
    writer->WriteDouble(phi_);
    writer->WriteU8(digest_ != nullptr ? 1 : 0);
    if (digest_ != nullptr) digest_->SerializeTo(writer);
    return true;
  }

  bool RestoreFrom(ByteReader* reader) override {
    std::uint8_t flag = 0;
    // QDigest::Quantile CHECKs phi in [0, 1]; enforce it here so a
    // hostile snapshot fails restore instead of crashing Finalize.
    if (!reader->ReadDouble(&phi_) || !(phi_ >= 0.0 && phi_ <= 1.0)) {
      return false;
    }
    if (!reader->ReadU8(&flag) || flag > 1) return false;
    digest_.reset();
    if (flag != 0) {
      auto digest = QDigest::Deserialize(reader);
      if (!digest) return false;
      digest_ = std::make_unique<QDigest>(std::move(*digest));
    }
    return true;
  }

 private:
  double phi_ = 0.5;
  std::unique_ptr<QDigest> digest_;
};

/// FDDISTINCT(key, weight [, k]): decayed count-distinct via the
/// dominance-norm sketch (Theorem 4). Finalizes to the un-normalized
/// dominance norm; divide by g(t - L) downstream if needed.
class FddistinctUdaf : public AggState {
 public:
  void Update(std::span<const Value> args, std::uint64_t) override {
    FWDECAY_CHECK_MSG(args.size() >= 2, "FDDISTINCT(key, weight [, k])");
    if (sketch_ == nullptr) {
      // fwdecay: hotpath-cold(one-time lazy sketch init on the group's first update)
      sketch_ = std::make_unique<DominanceNormSketch>(OptSize(args, 2, 1024));
    }
    const double w = args[1].AsDouble();
    if (w <= 0.0) return;
    sketch_->Update(static_cast<std::uint64_t>(args[0].AsInt()), w);
  }

  void UpdateBatch(std::span<const ValueColumn> args_columns,
                   std::span<const std::uint64_t>,
                   std::span<const std::uint32_t> rows) override {
    FWDECAY_CHECK_MSG(args_columns.size() >= 2, "FDDISTINCT(key, weight [, k])");
    if (rows.empty()) return;
    if (sketch_ == nullptr) {
      // fwdecay: hotpath-cold(one-time lazy sketch init on the group's first update)
      sketch_ = std::make_unique<DominanceNormSketch>(
          OptColSize(args_columns, 2, rows.front(), 1024));
    }
    const ValueColumn& keys = args_columns[0];
    const ValueColumn& weights = args_columns[1];
    for (std::uint32_t row : rows) {
      const double w = weights[row].AsDouble();
      if (w <= 0.0) continue;
      sketch_->Update(static_cast<std::uint64_t>(keys[row].AsInt()), w);
    }
  }

  void Merge(AggState& other) override {
    auto& o = static_cast<FddistinctUdaf&>(other);
    if (o.sketch_ == nullptr) return;
    if (sketch_ == nullptr) {
      sketch_ = std::make_unique<DominanceNormSketch>(1024);
    }
    sketch_->Merge(*o.sketch_);
  }

  Value Finalize() const override {
    if (sketch_ == nullptr) return Value(0.0);
    return Value(sketch_->Estimate());
  }

  bool SerializeTo(ByteWriter* writer) const override {
    writer->WriteU8(sketch_ != nullptr ? 1 : 0);
    if (sketch_ != nullptr) sketch_->SerializeTo(writer);
    return true;
  }

  bool RestoreFrom(ByteReader* reader) override {
    std::uint8_t flag = 0;
    if (!reader->ReadU8(&flag) || flag > 1) return false;
    sketch_.reset();
    if (flag != 0) {
      auto sketch = DominanceNormSketch::Deserialize(reader);
      if (!sketch) return false;
      sketch_ = std::make_unique<DominanceNormSketch>(std::move(*sketch));
    }
    return true;
  }

 private:
  std::unique_ptr<DominanceNormSketch> sketch_;
};

}  // namespace

void RegisterPaperUdafs() {
  AggRegistry& r = AggRegistry::Instance();
  r.Register("prisamp", [] {
    return std::make_unique<HeapSamplerUdaf<SampleScore::kPriority>>();
  });
  r.Register("wrsamp", [] {
    return std::make_unique<HeapSamplerUdaf<SampleScore::kARes>>();
  });
  r.Register("ressamp", [] {
    return std::make_unique<HeapSamplerUdaf<SampleScore::kUniform>>();
  });
  r.Register("aggsamp", [] { return std::make_unique<AggsampUdaf>(); });
  r.Register("fdhh", [] { return std::make_unique<FdhhUdaf>(); });
  r.Register("unaryhh", [] { return std::make_unique<UnaryhhUdaf>(); });
  r.Register("swhh", [] { return std::make_unique<SwhhUdaf>(); });
  r.Register("ehdsum", [] { return std::make_unique<EhdsumUdaf>(); });
  r.Register("fdquantile", [] { return std::make_unique<FdquantileUdaf>(); });
  r.Register("fddistinct", [] { return std::make_unique<FddistinctUdaf>(); });
  r.Register("fdmin",
             [] { return std::make_unique<FdExtremumUdaf<false>>(); });
  r.Register("fdmax",
             [] { return std::make_unique<FdExtremumUdaf<true>>(); });
}

}  // namespace fwdecay::dsms
