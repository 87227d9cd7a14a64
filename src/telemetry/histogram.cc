#include "telemetry/histogram.h"

#include <cmath>

#include "util/check.h"

namespace alc::telemetry {

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kGateWait:
      return "gate_wait";
    case Phase::kLockWait:
      return "lock_wait";
    case Phase::kCpu:
      return "cpu";
    case Phase::kDisk:
      return "disk";
    case Phase::kCommit:
      return "commit";
  }
  return "?";
}

int LogHistogram::BucketIndex(double value) {
  // NaN and negatives fail the comparison and count as underflow, like 0.
  if (!(value >= kMinValue)) return -1;
  int exp = 0;
  // value/kMinValue = mantissa * 2^exp with mantissa in [0.5, 1), so the
  // octave is exp-1 and the mantissa carries the linear position inside it.
  // frexp is exact (it only splits the binary representation), which keeps
  // bucketing deterministic across platforms.
  const double mantissa = std::frexp(value / kMinValue, &exp);
  const int octave = exp - 1;
  if (octave >= kOctaves) return kNumBuckets;
  const int sub = static_cast<int>((mantissa * 2.0 - 1.0) * kSubBuckets);
  return octave * kSubBuckets + sub;
}

double LogHistogram::BucketLow(int index) {
  ALC_CHECK_GE(index, 0);
  ALC_CHECK_LT(index, kNumBuckets);
  const int octave = index >> kSubBucketBits;
  const int sub = index & (kSubBuckets - 1);
  return kMinValue * std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets,
                                octave);
}

double LogHistogram::BucketHigh(int index) {
  ALC_CHECK_GE(index, 0);
  ALC_CHECK_LT(index, kNumBuckets);
  return index + 1 < kNumBuckets ? BucketLow(index + 1)
                                 : kMinValue * std::ldexp(1.0, kOctaves);
}

void LogHistogram::Add(double value) {
  const int index = BucketIndex(value);
  if (index < 0) {
    ++underflow_;
  } else if (index >= kNumBuckets) {
    ++overflow_;
  } else {
    ++buckets_[static_cast<size_t>(index)];
  }
  ++count_;
  sum_ += value;
}

void LogHistogram::Merge(const LogHistogram& other) {
  // Nothing recorded means every bucket is zero: skip the bucket walk. The
  // sum is tested too, since a Subtract can leave rounding residue there.
  if (other.count_ == 0 && other.sum_ == 0.0) return;
  for (int i = 0; i < kNumBuckets; ++i) {
    buckets_[static_cast<size_t>(i)] += other.buckets_[static_cast<size_t>(i)];
  }
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  count_ += other.count_;
  sum_ += other.sum_;
}

void LogHistogram::Subtract(const LogHistogram& earlier) {
  if (earlier.count_ == 0 && earlier.sum_ == 0.0) return;  // see Merge
  for (int i = 0; i < kNumBuckets; ++i) {
    ALC_CHECK_GE(buckets_[static_cast<size_t>(i)],
                 earlier.buckets_[static_cast<size_t>(i)]);
    buckets_[static_cast<size_t>(i)] -= earlier.buckets_[static_cast<size_t>(i)];
  }
  ALC_CHECK_GE(underflow_, earlier.underflow_);
  ALC_CHECK_GE(overflow_, earlier.overflow_);
  ALC_CHECK_GE(count_, earlier.count_);
  underflow_ -= earlier.underflow_;
  overflow_ -= earlier.overflow_;
  count_ -= earlier.count_;
  sum_ -= earlier.sum_;
}

void LogHistogram::Clear() {
  buckets_.fill(0);
  underflow_ = 0;
  overflow_ = 0;
  count_ = 0;
  sum_ = 0.0;
}

double LogHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(count_);
  // Underflow range [0, kMinValue): interpolate linearly from zero.
  double cumulative = static_cast<double>(underflow_);
  if (target <= cumulative) {
    return underflow_ > 0
               ? kMinValue * (target / static_cast<double>(underflow_))
               : 0.0;
  }
  for (int i = 0; i < kNumBuckets; ++i) {
    const uint64_t in_bucket = buckets_[static_cast<size_t>(i)];
    if (in_bucket == 0) continue;
    const double next = cumulative + static_cast<double>(in_bucket);
    if (target <= next) {
      const double fraction =
          (target - cumulative) / static_cast<double>(in_bucket);
      const double low = BucketLow(i);
      return low + fraction * (BucketHigh(i) - low);
    }
    cumulative = next;
  }
  // Only overflow mass remains: report the histogram ceiling.
  return kMinValue * std::ldexp(1.0, kOctaves);
}

}  // namespace alc::telemetry
