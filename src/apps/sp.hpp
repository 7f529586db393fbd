// NPB SP (Scalar Penta-diagonal) skeleton workload.
//
// SP runs on a square process count (NPB restriction: 64, 81, 100, 121 in
// the paper). Modeled as a 2-D decomposition with ADI sweeps: every
// iteration exchanges faces with the x-neighbors (heavier) and y-neighbors
// (lighter), then computes. X-direction traffic is dominant, so trace-driven
// group formation discovers the process rows.
//
// Class C: 162³ grid, 400 iterations (we default to fewer modeled safe
// points with proportionally larger per-iteration work to keep event counts
// tractable; total compute/communication volumes are preserved).
#pragma once

#include <cstdint>

#include "apps/app.hpp"

namespace gcr::apps {

struct SpParams {
  int grid_points = 162;       ///< Class C problem size per dimension
  int niter = 400;             ///< NPB iteration count (Class C)
  int modeled_iters = 100;     ///< safe points; work scaled by niter/modeled
};

/// nranks must be a perfect square.
AppSpec make_sp(int nranks, const SpParams& params = {});

}  // namespace gcr::apps
