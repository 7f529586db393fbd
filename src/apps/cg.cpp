#include "apps/cg.hpp"

#include <memory>

#include "util/assert.hpp"

namespace gcr::apps {
namespace {

constexpr int kTagTranspose = 20;

/// Global dot product every k-th step.
constexpr std::uint64_t kAllreduceEvery = 3;
/// Per-step traffic in local-vector volumes: the transpose-reduce moves q,
/// then z/r updates and the irregular indexed gathers move several more
/// vector-lengths across the row (calibrated so Class C execution times on
/// Fast Ethernet land in the paper's range).
constexpr double kExchangeVolumeFactor = 7.0;
/// Sparse matvec runs memory-bound on a P4 (~10% of peak).
constexpr double kFlopsPerS = 150e6;
constexpr std::int64_t kBaseMemBytes = 6 * 1024 * 1024;

bool is_pow2(int v) { return v > 0 && (v & (v - 1)) == 0; }

int ilog2(int v) {
  int l = 0;
  while ((1 << (l + 1)) <= v) ++l;
  return l;
}

struct CgShared {
  CgParams params;
  int nranks = 0;
  int npcols = 0;  ///< power of two, low bits of the rank
  int nprows = 0;
  std::int64_t exchange_bytes = 0;
  double compute_per_step_s = 0;
};

// Safe points at every inner CG step (matvec + transpose exchange + dot):
// CG's communication is continuous, so fine-grained safe points mirror a
// checkpointer that can interrupt at any MPI call.
sim::Co<void> cg_body(std::shared_ptr<CgShared> sh, mpi::AppHandle h) {
  const int log_cols = ilog2(sh->npcols);
  const std::uint64_t total_steps =
      static_cast<std::uint64_t>(sh->params.outer_iters) *
      static_cast<std::uint64_t>(sh->params.inner_steps);
  for (std::uint64_t s = h.start_iteration(); s < total_steps; ++s) {
    co_await h.safepoint(s);
    // Local sparse matvec portion.
    co_await h.compute(sh->compute_per_step_s);
    // Transpose-reduce along the process row: pairwise exchange with
    // partners differing in one column bit (recursive halving).
    for (int j = 0; j < log_cols; ++j) {
      const mpi::RankId partner = h.id() ^ (1 << j);
      (void)co_await h.sendrecv(partner, kTagTranspose, sh->exchange_bytes,
                                partner, kTagTranspose);
    }
    // Global dot product (rho / alpha) — tiny but global. The transpose
    // exchanges dominate the traffic; dots are less frequent.
    if (s % kAllreduceEvery == 0) co_await h.allreduce(8);
  }
  co_await h.safepoint(total_steps);
}

}  // namespace

AppSpec make_cg(int nranks, const CgParams& params) {
  GCR_CHECK_MSG(is_pow2(nranks), "NPB CG requires a power-of-two rank count");
  auto sh = std::make_shared<CgShared>();
  sh->params = params;
  sh->nranks = nranks;
  const int l2 = ilog2(nranks);
  sh->npcols = 1 << ((l2 + 1) / 2);
  sh->nprows = nranks / sh->npcols;
  // Each rank owns na/nprows rows; the transpose exchange moves the local
  // vector segment (na/npcols doubles) across the row in log steps.
  sh->exchange_bytes = static_cast<std::int64_t>(
      kExchangeVolumeFactor * 8.0 *
      static_cast<double>(params.na) / sh->npcols);

  // Flops: nnz ~ na*(nonzer+1)^2 per matvec, split across ranks and inner
  // steps within an outer iteration.
  const double nnz = static_cast<double>(params.na) *
                     static_cast<double>((params.nonzer + 1)) *
                     static_cast<double>((params.nonzer + 1));
  const double flops_per_outer = 2.0 * nnz * 26.0 /  // 26 CG steps per NPB iter
                                 static_cast<double>(params.inner_steps);
  sh->compute_per_step_s =
      flops_per_outer / static_cast<double>(nranks) / kFlopsPerS;

  AppSpec spec;
  spec.name = "cg";
  spec.iterations = static_cast<std::uint64_t>(params.outer_iters) *
                    static_cast<std::uint64_t>(params.inner_steps);
  const std::int64_t matrix_bytes =
      static_cast<std::int64_t>(nnz) * 12;  // values + indices
  const std::int64_t vectors_bytes = 10 * 8 * params.na;
  const std::int64_t mem =
      (matrix_bytes + vectors_bytes) / nranks + kBaseMemBytes;
  spec.image_bytes = [mem](mpi::RankId) { return mem; };
  spec.body = [sh](mpi::AppHandle h) { return cg_body(sh, h); };
  return spec;
}

}  // namespace gcr::apps
