// Light-weight MPI communication tracer (paper §3.2 / §4).
//
// Attaches to the MiniMPI runtime as a passive Observer — the analogue of
// linking the tracer library into the application for a profiling run. It
// records every transmitted send and, unless built send-only, every
// delivery. The send records feed Algorithm 2 (group formation), which is
// all a profiling run (exp::profile_app) needs, so its tracer is send-only;
// the timeline renderer and the gap-fraction analysis also read deliveries,
// so run_experiment's collect_trace tracer keeps them. Consumes are not
// recorded (nothing reads them).
//
// Records land in one buffer in dispatch order; records() and take()
// return them in (time, rank) order, so each rank's own records keep their
// append order within a tick. One engine dispatches in time order, so the
// buffer's time never decreases and only runs of equal time need ordering
// by rank: one linear pass, sorting just the runs that are out of order.
#pragma once

#include <algorithm>
#include <utility>

#include "mpi/hooks.hpp"
#include "mpi/rank.hpp"
#include "trace/record.hpp"
#include "util/assert.hpp"

namespace gcr::trace {

class Tracer : public mpi::Observer {
 public:
  /// `record_deliveries` false makes a send-only tracer.
  explicit Tracer(bool record_deliveries = true)
      : record_deliveries_(record_deliveries) {}

  void on_send(const mpi::Rank& rank, const mpi::Message& msg,
               bool transmitted) override {
    // Suppressed re-sends never reach the wire; profiling runs are
    // failure-free anyway, so drop them for fidelity.
    if (!transmitted) return;
    records_.push_back(TraceRecord{rank.engine().now(), EventKind::kSend,
                                    rank.id(), msg.dst, msg.tag, msg.bytes});
  }

  void on_deliver(const mpi::Rank& rank, const mpi::Message& msg) override {
    if (!record_deliveries_) return;
    records_.push_back(TraceRecord{rank.engine().now(), EventKind::kDeliver,
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
    auto run = t.begin();
    while (run != t.end()) {
      auto end = run + 1;
      bool in_rank_order = true;
      for (; end != t.end() && end->time == run->time; ++end) {
        if (end->rank < (end - 1)->rank) in_rank_order = false;
      }
      GCR_CHECK_MSG(end == t.end() || end->time > run->time,
                    "trace records out of time order");
      if (!in_rank_order) {
        std::stable_sort(run, end,
                         [](const TraceRecord& a, const TraceRecord& b) {
                           return a.rank < b.rank;
                         });
      }
      run = end;
    }
    return t;
  }

  bool record_deliveries_;
  Trace records_;
};

}  // namespace gcr::trace
