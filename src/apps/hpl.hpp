// HPL (High-Performance Linpack) skeleton workload.
//
// Reproduces HPL's process-grid communication structure on a P×Q grid with
// row-major rank mapping (rank = row*Q + col), per the paper's setup
// (N=20000/56000, NB=120, P=8). Each of the N/NB iterations:
//   1. panel factorization inside the panel-owning process COLUMN
//      (column-broadcast of the factored panel block),
//   2. panel broadcast along every process ROW,
//   3. U broadcast along every process COLUMN (row swaps),
//   4. trailing-matrix update (compute).
// Column traffic dominates (step 1+3), which is why trace-driven group
// formation discovers the grid columns {r : r mod Q == c} — exactly the
// paper's Table 1.
//
// Only the communication/computation *structure* is executed; no numerics.
// Memory model: 8·N²/nranks + runtime base (drives image sizes).
#pragma once

#include <cstdint>

#include "apps/app.hpp"

namespace gcr::apps {

struct HplParams {
  std::int64_t n = 20000;       ///< matrix order
  /// P (paper fixes P=8). Nothing sets it; it stays because perfbench
  /// reads it, until the next benchmark change.
  int grid_rows = 8;
};

/// Per-process runtime footprint added to every HPL image.
inline constexpr std::int64_t kHplBaseMemBytes = 12 * 1024 * 1024;

/// Process-grid geometry helpers (row-major mapping).
struct HplGrid {
  int p = 0;  ///< rows
  int q = 0;  ///< cols
  int row_of(mpi::RankId r) const { return r / q; }
  int col_of(mpi::RankId r) const { return r % q; }
  mpi::RankId at(int row, int col) const { return row * q + col; }
};

/// Chooses P×Q for nranks: P = min(grid_rows, largest divisor <= grid_rows).
HplGrid hpl_grid(int nranks, int grid_rows);

/// Builds the runnable spec for `nranks` processes.
AppSpec make_hpl(int nranks, const HplParams& params = {});

}  // namespace gcr::apps
