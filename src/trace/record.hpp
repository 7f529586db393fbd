// Trace records produced by the communication tracer.
//
// The paper's group formation (Algorithm 2) reads send records of the form
// (source, destination, size); the timeline diagrams (Figure 2) also use
// delivery events and checkpoint windows. Nothing reads consumes, so the
// tracer records none.
#pragma once

#include <cstdint>
#include <vector>

#include "mpi/message.hpp"
#include "sim/time.hpp"

namespace gcr::trace {

enum class EventKind : std::uint8_t {
  kSend = 0,
  kDeliver = 1,
};

struct TraceRecord {
  sim::Time time = 0;
  EventKind kind = EventKind::kSend;
  mpi::RankId rank = 0;  ///< the rank where the event happened
  mpi::RankId peer = 0;  ///< the other endpoint
  int tag = 0;
  std::int64_t bytes = 0;
};

/// One checkpoint window on one rank, for timeline overlays.
struct CkptWindow {
  mpi::RankId rank = 0;
  sim::Time begin = 0;
  sim::Time end = 0;
};

using Trace = std::vector<TraceRecord>;

}  // namespace gcr::trace
