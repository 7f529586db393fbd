#include "apps/sp.hpp"

#include <cmath>
#include <memory>

#include "util/assert.hpp"

namespace gcr::apps {
namespace {

constexpr int kTagXSweep = 30;
constexpr int kTagYSweep = 31;

/// Stencil sweeps are memory-bound on a P4.
constexpr double kFlopsPerS = 100e6;
constexpr std::int64_t kBaseMemBytes = 12 * 1024 * 1024;

struct SpShared {
  SpParams params;
  int side = 0;  ///< sqrt(nranks)
  std::int64_t x_face_bytes = 0;
  std::int64_t y_face_bytes = 0;
  double compute_per_iter_s = 0;
  std::uint64_t iters = 0;
};

sim::Co<void> sp_body(std::shared_ptr<SpShared> sh, mpi::AppHandle h) {
  const int side = sh->side;
  const int myrow = h.id() / side;
  const int mycol = h.id() % side;
  // Periodic neighbors (multi-partition sweeps wrap around).
  const mpi::RankId xplus = myrow * side + (mycol + 1) % side;
  const mpi::RankId xminus = myrow * side + (mycol + side - 1) % side;
  const mpi::RankId yplus = ((myrow + 1) % side) * side + mycol;
  const mpi::RankId yminus = ((myrow + side - 1) % side) * side + mycol;

  // Safe points at each ADI sweep (3 per iteration).
  const std::uint64_t total_steps = sh->iters * 3;
  for (std::uint64_t s = h.start_iteration(); s < total_steps; ++s) {
    co_await h.safepoint(s);
    switch (static_cast<int>(s % 3)) {
      case 0:
        // x-sweep: exchange with x-neighbors (dominant traffic), twice
        // (forward and backward substitution).
        for (int phase = 0; phase < 2; ++phase) {
          if (side > 1) {
            (void)co_await h.sendrecv(xplus, kTagXSweep, sh->x_face_bytes,
                                      xminus, kTagXSweep);
            (void)co_await h.sendrecv(xminus, kTagXSweep, sh->x_face_bytes,
                                      xplus, kTagXSweep);
          }
          co_await h.compute(sh->compute_per_iter_s / 6.0);
        }
        break;
      case 1:
        // y-sweep: lighter exchange with y-neighbors.
        if (side > 1) {
          (void)co_await h.sendrecv(yplus, kTagYSweep, sh->y_face_bytes,
                                    yminus, kTagYSweep);
          (void)co_await h.sendrecv(yminus, kTagYSweep, sh->y_face_bytes,
                                    yplus, kTagYSweep);
        }
        co_await h.compute(sh->compute_per_iter_s / 3.0);
        break;
      case 2:
        // z-sweep is local in this decomposition.
        co_await h.compute(sh->compute_per_iter_s / 3.0);
        break;
    }
  }
  co_await h.safepoint(total_steps);
}

}  // namespace

AppSpec make_sp(int nranks, const SpParams& params) {
  const int side = static_cast<int>(std::lround(std::sqrt(nranks)));
  GCR_CHECK_MSG(side * side == nranks, "NPB SP requires a square rank count");
  auto sh = std::make_shared<SpShared>();
  sh->params = params;
  sh->side = side;
  sh->iters = static_cast<std::uint64_t>(params.modeled_iters);

  const double gp = static_cast<double>(params.grid_points);
  const double scale = static_cast<double>(params.niter) /
                       static_cast<double>(params.modeled_iters);
  // Face: gp * (gp/side) cells, 5 solution variables, 8 bytes; x gets 2x.
  sh->x_face_bytes =
      static_cast<std::int64_t>(gp * gp / side * 5 * 8 * scale / 4);
  sh->y_face_bytes = sh->x_face_bytes / 2;

  // SP-C: ~900 flops per grid point per iteration.
  const double flops_per_iter = gp * gp * gp * 900.0 * scale;
  sh->compute_per_iter_s =
      flops_per_iter / static_cast<double>(nranks) / kFlopsPerS;

  AppSpec spec;
  spec.name = "sp";
  spec.iterations = sh->iters * 3;
  const std::int64_t mem =
      static_cast<std::int64_t>(gp * gp * gp) * 15 * 8 / nranks + kBaseMemBytes;
  spec.image_bytes = [mem](mpi::RankId) { return mem; };
  spec.body = [sh](mpi::AppHandle h) { return sp_body(sh, h); };
  return spec;
}

}  // namespace gcr::apps
