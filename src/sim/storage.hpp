// Storage devices: local disks, burst buffers, and shared checkpoint/PFS
// servers, with a fair-share contention model.
//
// A device admits up to `concurrency` transfers at once; admitted transfers
// FAIR-SHARE the device bandwidth (each progresses at bandwidth/n while n
// are active, progress resettled on every arrival and departure). Requests
// beyond the admission limit queue FIFO. `concurrency == 1` (the default)
// is a strict-FIFO single-slot device: the one admitted transfer gets the
// whole bandwidth, so a request completes latency + bytes/bandwidth after
// admission.
//
// write() and read() are the only entry points: each call queues for
// admission, then moves its bytes, and returns when they are durable (or
// in memory). Writers/readers are coroutines; kill-safety is two-layered:
// a waiter killed while queued releases its admission slot (Semaphore
// protocol), and a transfer killed mid-flight is removed from the
// fair-share set on unwind so the survivors immediately speed up (no
// stranded bandwidth).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/awaitables.hpp"
#include "sim/co.hpp"
#include "sim/engine.hpp"

namespace gcr::sim {

/// Device cost model. One instance describes one physical device (or one
/// server of a striped set); tier composition lives above (ckpt/tiers.hpp).
struct StorageParams {
  double bandwidth_Bps = 50e6;  ///< sustained sequential bandwidth (bytes/s)
  double latency_s = 5e-3;      ///< per-request setup (seek / RPC), serial
  /// Transfers served concurrently; they fair-share `bandwidth_Bps`.
  /// 1 = strict FIFO, one request at a time at full bandwidth.
  int concurrency = 1;
};

class StorageDevice {
 public:
  /// `engine` must outlive the device, and IO against the device must be
  /// issued from coroutines on it. Negative/zero bandwidth or concurrency
  /// is a configuration bug (asserted in the constructor).
  StorageDevice(Engine& engine, const StorageParams& params);

  /// Writes `bytes`; completes when the data is durable on this device.
  /// Queues FIFO behind the admission limit, then fair-shares bandwidth
  /// with the other admitted transfers. Kill-safe: a killed writer frees
  /// its slot and its bandwidth share.
  Co<void> write(std::int64_t bytes) {
    return transfer(bytes, /*is_write=*/true);
  }

  /// Reads `bytes`; completes when the data is in memory. Same queueing,
  /// fair-share, and kill-safety contract as write().
  Co<void> read(std::int64_t bytes) {
    return transfer(bytes, /*is_write=*/false);
  }

  std::int64_t bytes_written() const { return bytes_written_; }
  std::int64_t bytes_read() const { return bytes_read_; }
  /// Transfers currently sharing the device bandwidth.
  int active_transfers() const { return in_flight_; }
  /// High-water mark of concurrently admitted transfers over the run.
  int peak_active_transfers() const { return peak_in_flight_; }

 private:
  /// One admitted transfer in the fair-share set. `remaining` is settled
  /// lazily: it is exact only at settle points (arrival, departure, timer).
  struct Active {
    std::uint64_t id;
    double remaining;  ///< bytes still to move at the last settle point
    Trigger* done;     ///< fired when remaining reaches zero
  };

  /// Removes a killed transfer from the fair-share set on unwind (the
  /// completion path removes it first, making the guard a no-op).
  struct ShareGuard {
    StorageDevice* dev;
    std::uint64_t id;
    ~ShareGuard() { dev->abandon(id); }
  };

  Co<void> transfer(std::int64_t bytes, bool is_write);
  /// Fair-share stream: joins the active set, waits for the settled
  /// completion. Caller holds an admission permit throughout.
  Co<void> shared_transfer(std::int64_t bytes);

  /// Advances every active transfer's `remaining` to now at bandwidth/n.
  void settle();
  /// Fires and erases every active transfer whose remaining hit zero.
  void complete_ready();
  /// Arms the completion timer for the smallest remaining transfer;
  /// `resched_gen_` invalidates timers armed before a state change.
  void reschedule();
  void on_timer();
  void abandon(std::uint64_t id);

  Engine* engine_;
  StorageParams params_;
  Semaphore slot_;
  std::int64_t bytes_written_ = 0;
  std::int64_t bytes_read_ = 0;
  int in_flight_ = 0;
  int peak_in_flight_ = 0;

  // Fair-share state.
  std::vector<Active> active_;
  Time last_settle_ = 0;
  std::uint64_t resched_gen_ = 0;
  std::uint64_t next_xfer_id_ = 1;
};

}  // namespace gcr::sim
