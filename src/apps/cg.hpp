// NPB CG (Conjugate Gradient) skeleton workload.
//
// NPB CG partitions the sparse matrix over a num_proc_rows × num_proc_cols
// grid (both powers of two). Every inner CG iteration does a transpose-
// reduce exchange along the process row (large messages) plus global dot
// products (tiny allreduces) — "non-stop message transfers throughout the
// execution; the application can not progress when there is no message"
// (paper §2.2). That property is what turns VCL's no-send windows into the
// Figure 2 gap cascades.
//
// Class C: na=150000, nonzer=15, 75 outer iterations.
#pragma once

#include <cstdint>

#include "apps/app.hpp"

namespace gcr::apps {

struct CgParams {
  std::int64_t na = 150000;   ///< matrix order (Class C)
  int nonzer = 15;            ///< nonzeros parameter (Class C)
  int outer_iters = 75;       ///< safe-point granularity
  int inner_steps = 26;       ///< CG steps per outer iteration (NPB: ~26)
};

/// nranks must be a power of two (NPB restriction).
AppSpec make_cg(int nranks, const CgParams& params = {});

}  // namespace gcr::apps
