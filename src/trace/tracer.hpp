// Light-weight MPI communication tracer (paper §3.2 / §4).
//
// Attaches to the MiniMPI runtime as a passive Observer — the analogue of
// linking the tracer library into the application for a profiling run. The
// collected send records feed Algorithm 2 (group formation); the full event
// stream feeds the timeline renderer.
//
// Records land in one buffer in dispatch order; records() and take()
// return them stable-sorted by (time, rank), so each rank's own records
// keep their append order within a tick.
#pragma once

#include <algorithm>
#include <utility>

#include "mpi/hooks.hpp"
#include "mpi/rank.hpp"
#include "trace/record.hpp"

namespace gcr::trace {

class Tracer : public mpi::Observer {
 public:
  /// If `sends_only` is true, only send events are kept (cheapest mode,
  /// sufficient for group formation).
  explicit Tracer(bool sends_only = false) : sends_only_(sends_only) {}

  void on_send(const mpi::Rank& rank, const mpi::Message& msg,
               bool transmitted) override {
    // Suppressed re-sends never reach the wire; profiling runs are
    // failure-free anyway, so drop them for fidelity.
    if (!transmitted) return;
    records_.push_back(TraceRecord{rank.engine().now(), EventKind::kSend,
                                    rank.id(), msg.dst, msg.tag, msg.bytes});
  }

  void on_deliver(const mpi::Rank& rank, const mpi::Message& msg) override {
    if (sends_only_) return;
    records_.push_back(TraceRecord{rank.engine().now(), EventKind::kDeliver,
                                    rank.id(), msg.src, msg.tag, msg.bytes});
  }

  void on_consume(const mpi::Rank& rank, const mpi::Message& msg) override {
    if (sends_only_) return;
    records_.push_back(TraceRecord{rank.engine().now(), EventKind::kConsume,
                                    rank.id(), msg.src, msg.tag, msg.bytes});
  }

  /// The trace in (time, rank, append) order.
  Trace records() const { return sorted(records_); }
  Trace take() {
    Trace out = sorted(std::move(records_));
    clear();
    return out;
  }
  void clear() { records_.clear(); }

 private:
  static Trace sorted(Trace t) {
    std::stable_sort(t.begin(), t.end(),
                     [](const TraceRecord& a, const TraceRecord& b) {
                       if (a.time != b.time) return a.time < b.time;
                       return a.rank < b.rank;
                     });
    return t;
  }

  bool sends_only_;
  Trace records_;
};

}  // namespace gcr::trace
