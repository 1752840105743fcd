#ifndef FWDECAY_SAMPLING_RESERVOIR_H_
#define FWDECAY_SAMPLING_RESERVOIR_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/check.h"
#include "util/random.h"

// Classic (unweighted, undecayed) reservoir sampling — Vitter, TOMS 1985.
// This is the "no decay" baseline of the paper's Figure 3 experiments.

namespace fwdecay {

/// Algorithm R: uniform sample of k items without replacement, O(1) per
/// arrival (one random draw once the reservoir is full).
template <typename T>
class ReservoirSampler {
 public:
  explicit ReservoirSampler(std::size_t k) : k_(k) {
    FWDECAY_CHECK(k > 0);
    sample_.reserve(k);
  }

  /// Offers the next stream item.
  void Add(const T& item, Rng& rng) {
    ++seen_;
    if (sample_.size() < k_) {
      sample_.push_back(item);
      return;
    }
    const std::uint64_t j = rng.NextBounded(seen_);
    if (j < k_) sample_[j] = item;
  }

  const std::vector<T>& sample() const { return sample_; }
  std::uint64_t seen() const { return seen_; }
  std::size_t capacity() const { return k_; }

  /// Representation audit (DESIGN.md §7): Algorithm R keeps exactly
  /// min(k, seen) items — anything else means a lost or duplicated slot.
  void CheckInvariants() const {
    const std::uint64_t expect =
        seen_ < static_cast<std::uint64_t>(k_)
            ? seen_
            : static_cast<std::uint64_t>(k_);
    FWDECAY_CHECK_MSG(sample_.size() == expect,
                      "reservoir size is not min(k, seen)");
  }

 private:
  std::size_t k_;
  std::uint64_t seen_ = 0;
  std::vector<T> sample_;
};

/// Algorithm L (Li 1994): the skip-based accelerated reservoir sampler.
/// Equivalent distribution to Algorithm R but draws O(k log(n/k)) random
/// numbers total instead of one per item — the same acceleration idea the
/// paper cites for weighted sampling ("skip over" items, Section V-A).
template <typename T>
class SkipReservoirSampler {
 public:
  explicit SkipReservoirSampler(std::size_t k, Rng* rng)
      : k_(k), rng_(rng) {
    FWDECAY_CHECK(k > 0);
    FWDECAY_CHECK(rng != nullptr);
    sample_.reserve(k);
    w_ = std::exp(std::log(rng_->NextDoubleOpenZero()) /
                  static_cast<double>(k_));
  }

  /// Offers the next stream item; most calls only decrement the skip
  /// counter.
  void Add(const T& item) {
    ++seen_;
    if (sample_.size() < k_) {
      sample_.push_back(item);
      if (sample_.size() == k_) ScheduleNextSkip();
      return;
    }
    if (seen_ < next_accept_) return;
    sample_[rng_->NextBounded(k_)] = item;
    w_ *= std::exp(std::log(rng_->NextDoubleOpenZero()) /
                   static_cast<double>(k_));
    ScheduleNextSkip();
  }

  const std::vector<T>& sample() const { return sample_; }
  std::uint64_t seen() const { return seen_; }

  /// Representation audit (DESIGN.md §7): min(k, seen) items retained;
  /// w (the running acceptance key) stays in (0, 1); once full, the
  /// scheduled skip must lie in the future — a stale next_accept_ would
  /// make Add() accept every item, silently destroying uniformity.
  void CheckInvariants() const {
    const std::uint64_t expect =
        seen_ < static_cast<std::uint64_t>(k_)
            ? seen_
            : static_cast<std::uint64_t>(k_);
    FWDECAY_CHECK_MSG(sample_.size() == expect,
                      "skip-reservoir size is not min(k, seen)");
    FWDECAY_CHECK_MSG(w_ > 0.0 && w_ < 1.0,
                      "skip-reservoir acceptance key left (0, 1)");
    if (sample_.size() == k_) {
      FWDECAY_CHECK_MSG(next_accept_ > seen_,
                        "skip-reservoir scheduled skip is in the past");
    }
  }

 private:
  void ScheduleNextSkip() {
    const double u = rng_->NextDoubleOpenZero();
    const double skip = std::floor(std::log(u) / std::log1p(-w_));
    next_accept_ = seen_ + 1 + static_cast<std::uint64_t>(skip);
  }

  std::size_t k_;
  Rng* rng_;
  std::uint64_t seen_ = 0;
  std::uint64_t next_accept_ = 0;
  double w_ = 0.0;
  std::vector<T> sample_;
};

}  // namespace fwdecay

#endif  // FWDECAY_SAMPLING_RESERVOIR_H_
