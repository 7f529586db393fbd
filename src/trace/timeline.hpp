// ASCII timeline rendering (paper Figure 2).
//
// Rows are processes, columns are time bins. Glyphs:
//   '.'  no activity
//   '#'  message activity (send/deliver) in the bin
//   '-'  inside a checkpoint window, NO activity  -> a "gap" (blocked)
//   'C'  inside a checkpoint window, WITH activity -> progress during ckpt
// The paper's observation: with a non-blocking coordinated protocol at small
// scale, checkpoint windows are full of 'C' (progress); at large scale they
// turn into '-' runs (the application is effectively paused).
#pragma once

#include <string>
#include <vector>

#include "trace/record.hpp"

namespace gcr::trace {

struct TimelineOptions {
  sim::Time begin = 0;
  sim::Time end = 0;          ///< 0 = max record time
  int columns = 100;
  std::vector<mpi::RankId> ranks;  ///< empty = first 4 ranks seen
};

/// Renders the trace + checkpoint windows as multi-line ASCII art.
std::string render_timeline(const Trace& trace,
                            const std::vector<CkptWindow>& windows,
                            const TimelineOptions& options);

/// Fraction of (rank, bin) cells inside checkpoint windows that have no
/// message activity — the paper's "gap" measure. Computed over ALL ranks
/// appearing in `windows`, at `bins_per_second` resolution.
double gap_fraction(const Trace& trace, const std::vector<CkptWindow>& windows,
                    double bins_per_second);

}  // namespace gcr::trace
