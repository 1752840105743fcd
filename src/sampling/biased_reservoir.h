#ifndef FWDECAY_SAMPLING_BIASED_RESERVOIR_H_
#define FWDECAY_SAMPLING_BIASED_RESERVOIR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"
#include "util/random.h"

namespace fwdecay {

/// Aggarwal's biased reservoir sampling (VLDB'06) — the prior-art
/// baseline the paper compares against in Figure 3 and improves on with
/// Corollary 1.
///
/// Maintains a reservoir of capacity k whose inclusion probabilities
/// follow a *backward exponential* bias e^(-lambda r) in the item's
/// arrival index r, with lambda = 1/k: on each arrival, with probability
/// fill = size/k the new item overwrites a uniformly random slot;
/// otherwise it is appended.
///
/// Limitations (the ones forward decay removes, per Section V-C):
///  * the decay rate is tied to the reservoir size (lambda = 1/k);
///  * the bias is in the arrival *index*, so it matches time-decay only
///    for unit-spaced, in-order timestamps ("sequential integers" in the
///    paper's phrasing);
///  * only exponential bias is supported.
template <typename T>
class BiasedReservoirSampler {
 public:
  explicit BiasedReservoirSampler(std::size_t k) : k_(k) {
    FWDECAY_CHECK(k > 0);
    sample_.reserve(k);
  }

  /// Offers the next stream item (arrival order defines the bias).
  void Add(const T& item, Rng& rng) {
    const double coin = rng.NextDouble();
    Add(item, coin, rng.Next64());
  }

  /// As Add(item, rng), with both draws supplied by the caller: `coin`
  /// uniform in [0, 1) decides overwrite vs append, and `slot_bits` (64
  /// uniform bits) picks the overwritten slot by multiply-shift. A
  /// stateless caller derives both from a hash of the item's identity.
  void Add(const T& item, double coin, std::uint64_t slot_bits) {
    ++seen_;
    const double fill =
        static_cast<double>(sample_.size()) / static_cast<double>(k_);
    if (coin < fill) {
      sample_[static_cast<std::size_t>(
          (static_cast<__uint128_t>(slot_bits) * sample_.size()) >> 64)] =
          item;
    } else {
      sample_.push_back(item);
    }
  }

  /// Effective exponential decay rate of the maintained bias.
  double lambda() const { return 1.0 / static_cast<double>(k_); }

  const std::vector<T>& sample() const { return sample_; }
  std::uint64_t seen() const { return seen_; }
  std::size_t capacity() const { return k_; }

  /// Restores a checkpointed reservoir verbatim (slot order included).
  /// The fill level is probabilistic, so the only hard invariants are
  /// size <= k and size <= seen.
  bool RestoreState(std::uint64_t seen, std::vector<T> sample) {
    if (sample.size() > k_ || sample.size() > seen) return false;
    seen_ = seen;
    sample_ = std::move(sample);
    return true;
  }

  /// Representation audit (DESIGN.md §7): the fill level is
  /// probabilistic, so the hard invariants are exactly RestoreState()'s —
  /// never more items than capacity or than arrivals.
  void CheckInvariants() const {
    FWDECAY_CHECK_MSG(sample_.size() <= k_,
                      "biased reservoir overflows capacity");
    FWDECAY_CHECK_MSG(sample_.size() <= seen_,
                      "biased reservoir holds more items than were seen");
  }

 private:
  std::size_t k_;
  std::uint64_t seen_ = 0;
  std::vector<T> sample_;
};

}  // namespace fwdecay

#endif  // FWDECAY_SAMPLING_BIASED_RESERVOIR_H_
