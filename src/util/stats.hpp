// Streaming statistics used by the experiment harness.
#pragma once

#include <cstddef>

namespace gcr {

/// Streaming accumulator: count/mean/min/max without storing samples. The
/// mean is Welford's running update. Used for per-repetition aggregation in
/// benches.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace gcr
