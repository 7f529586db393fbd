// Interposition interfaces — the analogue of LAM/MPI's CRTCP/CRMPI SSI
// modules (DESIGN.md §3). A checkpoint protocol installs ONE Interposer;
// passive Observers (the communication tracer, test probes) may be attached
// in any number.
#pragma once

#include "mpi/message.hpp"
#include "sim/co.hpp"

namespace gcr::mpi {

class Rank;

/// Passive taps on the message path; must not block or mutate.
class Observer {
 public:
  virtual ~Observer() = default;
  /// After the send-side bookkeeping, whether or not transmission happens
  /// (suppressed re-sends are reported with transmitted=false).
  virtual void on_send(const Rank& rank, const Message& msg, bool transmitted) {
    (void)rank; (void)msg; (void)transmitted;
  }
  /// At delivery to the destination node (before matching).
  virtual void on_deliver(const Rank& rank, const Message& msg) {
    (void)rank; (void)msg;
  }
  /// When the application's recv returns the message.
  virtual void on_consume(const Rank& rank, const Message& msg) {
    (void)rank; (void)msg;
  }
};

/// Active protocol hook. Exactly one may be installed on a Runtime.
class Interposer {
 public:
  virtual ~Interposer() = default;

  /// Called for every app-plane send after seq/cum_bytes are assigned and
  /// counters bumped, before transmission. May co_await (logging cost, send
  /// gates), may set msg.piggyback_rr, and decides transmission:
  /// return false to suppress the physical send (skip during re-execution).
  virtual sim::Co<bool> before_send(Rank& rank, Message& msg) = 0;

  /// Called at delivery of every message that passes the alive and
  /// incarnation checks, on both planes: an app-plane message after the
  /// duplicate check and the R counters, a control message (msg.is_ctrl())
  /// with neither. Non-blocking (runs inside the network delivery
  /// callback); work that takes simulated time goes to a spawned coroutine.
  virtual void on_deliver(Rank& rank, const Message& msg) = 0;

  /// Called when the app reaches a safe point (top of an iteration). The
  /// protocol may run a whole checkpoint here before returning.
  virtual sim::Co<void> at_safepoint(Rank& rank) = 0;

  /// Called when a rank (re)starts, before the app coroutine is spawned;
  /// the protocol launches its restore work here.
  virtual void rank_started(Rank& rank) = 0;

  /// Called when the app coroutine of a rank finishes normally.
  virtual void rank_finished(Rank& rank) { (void)rank; }

  /// Called after a rank is killed (failure injection), once its app
  /// coroutine is down. The protocol must stop any auxiliary coroutines
  /// still acting for the dead incarnation (restore drivers, exchange
  /// servers), roll back uncommitted checkpoint state, and unblock peers
  /// waiting on the dead rank. Non-blocking.
  virtual void rank_killed(Rank& rank) { (void)rank; }
};

}  // namespace gcr::mpi
