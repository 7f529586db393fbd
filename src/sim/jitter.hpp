// OS jitter model (DESIGN.md §2.2).
//
// Commodity Linux 2.4 nodes exhibit scheduling noise: most interruptions are
// milliseconds, but page-outs, kswapd and cron produce occasional
// 100 ms – 1.5 s stragglers. Coordination steps (barrier arrival, signal
// handling) each draw one sample; a barrier over n processes therefore costs
// the *maximum* of n draws — which is why global coordination is spiky and
// grows with scale while per-group coordination stays flat (paper Figs 1, 5,
// 6). Modeled as lognormal body + uniform spike mixture.
#pragma once

#include "sim/time.hpp"
#include "util/rng.hpp"

namespace gcr::sim {

struct JitterParams {
  bool enabled = true;  ///< false: draw() returns 0 without consuming RNG
};

class JitterModel {
 public:
  static constexpr double kMedianS = 2e-3;  ///< lognormal median
  static constexpr double kSigma = 0.8;     ///< lognormal shape
  static constexpr double kSpikeProb = 0.05;  ///< heavy-straggler probability
  /// Uniform spike bounds (seconds).
  static constexpr double kSpikeMinS = 0.10;
  static constexpr double kSpikeMaxS = 6.00;

  explicit JitterModel(const JitterParams& params = {}) : params_(params) {}

  const JitterParams& params() const { return params_; }

  /// One coordination-step delay sample from the given process's stream.
  Time draw(gcr::Rng& rng) const {
    if (!params_.enabled) return 0;
    // Consume both variates unconditionally so the stream position does not
    // depend on the spike branch (keeps substreams comparable across runs).
    const double spike_roll = rng.next_double();
    const double body = rng.next_lognormal(std::log(kMedianS), kSigma);
    if (spike_roll < kSpikeProb) {
      const double spike =
          kSpikeMinS + (kSpikeMaxS - kSpikeMinS) * rng.next_double();
      return from_seconds(body + spike);
    }
    return from_seconds(body);
  }

 private:
  JitterParams params_;
};

}  // namespace gcr::sim
