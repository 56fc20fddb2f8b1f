// Fixed-memory latency histogram with nanosecond resolution.
//
// Values below 2^kSubBits are counted exactly; above that, each power of
// two is split into 2^kSubBits equal sub-buckets, so a bucket's width is
// at most 1/128 of its lower bound. A percentile spreads its bucket's
// samples evenly over the bucket's width and reads the rank's place in
// it, so it is within 0.8% of the exact value and moves continuously
// with the data rather than in bucket steps. Memory is fixed (about
// 60 KiB) whatever the number of samples, so a faster program does not
// pay for its extra samples in peak RSS.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

namespace pgssi::bench {

class LogHistogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr size_t kBuckets = kSub + (64 - kSubBits) * kSub;

  void Add(uint64_t v) {
    counts_[Index(v)]++;
    n_++;
    sum_ += static_cast<double>(v);
  }

  void Merge(const LogHistogram& o) {
    for (size_t i = 0; i < kBuckets; i++) counts_[i] += o.counts_[i];
    n_ += o.n_;
    sum_ += o.sum_;
  }

  uint64_t count() const { return n_; }
  double Mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0; }

  /// Nearest-rank percentile, p in (0, 100]: the smallest recorded value
  /// with at least p% of the samples at or below it (to bucket accuracy).
  double Percentile(double p) const {
    if (n_ == 0) return 0;
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(n_)));
    if (rank < 1) rank = 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; i++) {
      if (seen + counts_[i] >= rank) {
        if (i < kSub) return static_cast<double>(i);  // exact
        const double at = (static_cast<double>(rank - seen) - 0.5) /
                          static_cast<double>(counts_[i]);
        return Lower(i) + at * Width(i);
      }
      seen += counts_[i];
    }
    return Midpoint(kBuckets - 1);
  }

  void Clear() {
    counts_.fill(0);
    n_ = 0;
    sum_ = 0;
  }

  static size_t Index(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    const int e = 63 - std::countl_zero(v);  // e >= kSubBits
    const uint64_t sub = (v >> (e - kSubBits)) & (kSub - 1);
    return static_cast<size_t>(kSub + (e - kSubBits) * kSub + sub);
  }

  static double Midpoint(size_t i) {
    if (i < kSub) return static_cast<double>(i);
    return Lower(i) + (Width(i) - 1) / 2;
  }

 private:
  // Bucket i >= kSub holds the integers in [Lower(i), Lower(i) + Width(i)).
  static double Width(size_t i) {
    const int e = static_cast<int>((i - kSub) / kSub) + kSubBits;
    return std::ldexp(1.0, e - kSubBits);
  }
  static double Lower(size_t i) {
    const int e = static_cast<int>((i - kSub) / kSub) + kSubBits;
    const uint64_t sub = (i - kSub) % kSub;
    return std::ldexp(1.0, e) + static_cast<double>(sub) * Width(i);
  }

  std::array<uint64_t, kBuckets> counts_{};
  uint64_t n_ = 0;
  double sum_ = 0;
};

}  // namespace pgssi::bench
