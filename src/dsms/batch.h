#ifndef FWDECAY_DSMS_BATCH_H_
#define FWDECAY_DSMS_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dsms/packet.h"
#include "util/check.h"

// Columnar packet batches: the unit of the batched ingest path.
//
// A PacketBatch is a fixed-capacity structure-of-arrays transposition of
// Packet: one contiguous column per field. The batched evaluators
// (expr.h) and the engine's Consume(const PacketBatch&) walk these
// columns with plain indexed loops — no per-tuple dispatch, no per-tuple
// allocation — which is where the line-rate story of Section VI comes
// from once forward decay has made the per-item work O(1).

namespace fwdecay::dsms {

/// Fixed-capacity structure-of-arrays batch of packets.
///
/// Append() until full(), hand the batch to a consumer, Clear(), repeat.
/// Clear() keeps the column capacity, so a reused batch allocates only
/// on its first fill.
class PacketBatch {
 public:
  /// Default capacity: large enough to amortize per-batch setup, small
  /// enough to stay cache-resident across the evaluator passes.
  static constexpr std::size_t kDefaultCapacity = 1024;

  explicit PacketBatch(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {
    FWDECAY_CHECK_MSG(capacity > 0, "PacketBatch capacity must be positive");
    time_.reserve(capacity);
    src_ip_.reserve(capacity);
    dest_ip_.reserve(capacity);
    src_port_.reserve(capacity);
    dest_port_.reserve(capacity);
    len_.reserve(capacity);
    protocol_.reserve(capacity);
  }

  /// Appends one packet; returns false (batch unchanged) when full.
  bool Append(const Packet& p) {
    if (full()) return false;
    time_.push_back(p.time);
    src_ip_.push_back(p.src_ip);
    dest_ip_.push_back(p.dest_ip);
    src_port_.push_back(p.src_port);
    dest_port_.push_back(p.dest_port);
    len_.push_back(p.len);
    protocol_.push_back(p.protocol);
    return true;
  }

  /// Bulk gather: appends rows rows[0..n) of `src` in order. The
  /// pipeline's routing stage builds per-shard sub-batches with this —
  /// each column is resized once and filled through its raw pointer, no
  /// per-row Packet materialization and no per-element push_back. The
  /// caller guarantees the rows fit (size() + n <= capacity()) and are
  /// valid indices into src.
  void AppendSelected(const PacketBatch& src, const std::uint32_t* rows,
                      std::size_t n) {
    FWDECAY_DCHECK(size() + n <= capacity_);
    GatherInto(&time_, src.time_, rows, n);
    GatherInto(&src_ip_, src.src_ip_, rows, n);
    GatherInto(&dest_ip_, src.dest_ip_, rows, n);
    GatherInto(&src_port_, src.src_port_, rows, n);
    GatherInto(&dest_port_, src.dest_port_, rows, n);
    GatherInto(&len_, src.len_, rows, n);
    GatherInto(&protocol_, src.protocol_, rows, n);
  }

  /// Empties the batch; column capacity is retained.
  void Clear() {
    time_.clear();
    src_ip_.clear();
    dest_ip_.clear();
    src_port_.clear();
    dest_port_.clear();
    len_.clear();
    protocol_.clear();
  }

  std::size_t size() const { return time_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return time_.empty(); }
  bool full() const { return time_.size() >= capacity_; }

  /// Row-wise view of one packet (for AoS consumers and tests).
  Packet Get(std::size_t i) const {
    FWDECAY_DCHECK(i < size());
    Packet p;
    p.time = time_[i];
    p.src_ip = src_ip_[i];
    p.dest_ip = dest_ip_[i];
    p.src_port = src_port_[i];
    p.dest_port = dest_port_[i];
    p.len = len_[i];
    p.protocol = protocol_[i];
    return p;
  }

  // Column accessors (contiguous, size() entries each).
  const double* time() const { return time_.data(); }
  const std::uint32_t* src_ip() const { return src_ip_.data(); }
  const std::uint32_t* dest_ip() const { return dest_ip_.data(); }
  const std::uint16_t* src_port() const { return src_port_.data(); }
  const std::uint16_t* dest_port() const { return dest_port_.data(); }
  const std::uint32_t* len() const { return len_.data(); }
  const std::uint8_t* protocol() const { return protocol_.data(); }

 private:
  // dst grows by n in one resize (within the reserved capacity, so no
  // reallocation); the gathered values are then stored through the raw
  // pointer.
  template <typename T>
  static void GatherInto(std::vector<T>* dst, const std::vector<T>& src,
                         const std::uint32_t* rows, std::size_t n) {
    const std::size_t base = dst->size();
    dst->resize(base + n);
    T* out = dst->data() + base;
    const T* in = src.data();
    for (std::size_t i = 0; i < n; ++i) out[i] = in[rows[i]];
  }

  std::size_t capacity_;
  std::vector<double> time_;
  std::vector<std::uint32_t> src_ip_;
  std::vector<std::uint32_t> dest_ip_;
  std::vector<std::uint16_t> src_port_;
  std::vector<std::uint16_t> dest_port_;
  std::vector<std::uint32_t> len_;
  std::vector<std::uint8_t> protocol_;
};

}  // namespace fwdecay::dsms

#endif  // FWDECAY_DSMS_BATCH_H_
