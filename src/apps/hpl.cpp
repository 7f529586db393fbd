#include "apps/hpl.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "util/assert.hpp"

namespace gcr::apps {
namespace {

constexpr int kTagPanelFact = 10;
constexpr int kTagPanelBcast = 11;
constexpr int kTagUBcast = 12;

constexpr std::int64_t kNb = 120;  ///< block size
/// Sustained per-process rate (P4 2.0 GHz).
constexpr double kFlopsPerS = 1.8e9;

struct HplShared {
  HplParams params;
  HplGrid grid;
  std::uint64_t iters;
  // Precomputed member lists per grid row / column: a rank's index is its
  // column in its row's list and its row in its column's.
  std::vector<std::vector<mpi::RankId>> row_members;
  std::vector<std::vector<mpi::RankId>> col_members;
};

// One HPL iteration is four safe-point steps (panel factorization, panel
// broadcast, U broadcast, update). Step-level safe points keep checkpoint
// trigger latency well below one iteration, approximating a system-level
// checkpointer that can interrupt at any MPI call.
sim::Co<void> hpl_body(std::shared_ptr<HplShared> sh, mpi::AppHandle h) {
  const HplGrid& g = sh->grid;
  const HplParams& prm = sh->params;
  const int myrow = g.row_of(h.id());
  const int mycol = g.col_of(h.id());
  const auto& my_row = sh->row_members[static_cast<std::size_t>(myrow)];
  const auto& my_col = sh->col_members[static_cast<std::size_t>(mycol)];

  const std::uint64_t total_steps = sh->iters * 4;
  for (std::uint64_t s = h.start_iteration(); s < total_steps; ++s) {
    co_await h.safepoint(s);
    const std::uint64_t k = s / 4;
    const int step = static_cast<int>(s % 4);
    const std::int64_t trailing =
        prm.n - static_cast<std::int64_t>(k) * kNb;
    const std::int64_t rows_loc = std::max<std::int64_t>(
        1, (trailing + g.p - 1) / g.p);
    const std::int64_t cols_loc = std::max<std::int64_t>(
        1, (trailing + g.q - 1) / g.q);
    const int panel_col = static_cast<int>(k) % g.q;
    const int pivot_row = static_cast<int>(k) % g.p;

    switch (step) {
      case 0:
        // Panel factorization inside the panel-owning process column:
        // factor + column-broadcast of the panel block.
        if (mycol == panel_col) {
          co_await h.compute(static_cast<double>(kNb) * kNb *
                             static_cast<double>(rows_loc) / kFlopsPerS);
          co_await h.bcast(my_col, myrow, pivot_row, rows_loc * kNb * 8,
                           kTagPanelFact);
        }
        break;
      case 1:
        // Panel broadcast along every process row.
        co_await h.bcast(my_row, mycol, panel_col, rows_loc * kNb * 8,
                         kTagPanelBcast);
        break;
      case 2:
        // U broadcast (row swaps) along every process column.
        co_await h.bcast(my_col, myrow, pivot_row, cols_loc * kNb * 8,
                         kTagUBcast);
        break;
      case 3:
        // Trailing update: 2·NB·rows·cols flops per process.
        co_await h.compute(2.0 * static_cast<double>(kNb) *
                           static_cast<double>(rows_loc) *
                           static_cast<double>(cols_loc) / kFlopsPerS);
        break;
    }
  }
  co_await h.safepoint(total_steps);
}

}  // namespace

HplGrid hpl_grid(int nranks, int grid_rows) {
  GCR_CHECK(nranks > 0 && grid_rows > 0);
  int p = std::min(grid_rows, nranks);
  while (p > 1 && nranks % p != 0) --p;
  return HplGrid{p, nranks / p};
}

AppSpec make_hpl(int nranks, const HplParams& params) {
  auto sh = std::make_shared<HplShared>();
  sh->params = params;
  sh->grid = hpl_grid(nranks, params.grid_rows);
  sh->iters = static_cast<std::uint64_t>(params.n / kNb);
  sh->row_members.resize(static_cast<std::size_t>(sh->grid.p));
  sh->col_members.resize(static_cast<std::size_t>(sh->grid.q));
  for (int r = 0; r < nranks; ++r) {
    sh->row_members[static_cast<std::size_t>(sh->grid.row_of(r))].push_back(r);
    sh->col_members[static_cast<std::size_t>(sh->grid.col_of(r))].push_back(r);
  }

  AppSpec spec;
  spec.name = "hpl";
  const std::int64_t mem =
      8 * params.n * params.n / nranks + kHplBaseMemBytes;
  spec.image_bytes = [mem](mpi::RankId) { return mem; };
  spec.body = [sh](mpi::AppHandle h) { return hpl_body(sh, h); };
  return spec;
}

}  // namespace gcr::apps
