// Application specification: what the experiment harness needs to run a
// workload under any checkpoint protocol.
//
// Application contract (required by the checkpoint protocols; the safe-point
// trigger these feed is DESIGN.md §5):
//  * call `co_await h.safepoint(k)` at the TOP of iteration k, before any
//    communication of that iteration, and once more after the last
//    iteration;
//  * per peer, receive messages in the order the peer sends them (standard
//    non-overtaking discipline) — the runtime asserts this.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "mpi/runtime.hpp"

namespace gcr::apps {

/// Request-level outcome of a service workload (apps/service.hpp), filled
/// after the run from the recorded arrival/completion times. Latency is
/// measured from the scheduled (open-loop) arrival to final completion, so
/// a restart that re-executes a request charges the request for the whole
/// outage. `slo_miss_rate` is the fraction of ISSUED requests that did not
/// complete within the SLO — late completions and never-completed requests
/// both count, so a truncated run cannot hide misses.
struct ServiceStats {
  std::uint64_t requests = 0;   ///< issued across all ranks
  std::uint64_t completed = 0;  ///< served at least once (final re-execution)
  std::uint64_t slo_misses = 0; ///< completed later than the SLO threshold
  double slo_miss_rate = 0;     ///< (slo_misses + never-completed) / requests
  double mean_latency_s = 0;    ///< over completed requests
  double p50_latency_s = 0;
  double p99_latency_s = 0;
  double p999_latency_s = 0;
  double max_latency_s = 0;
};

struct AppSpec {
  std::string name;
  mpi::AppBody body;                                 ///< per-rank coroutine
  std::function<std::int64_t(mpi::RankId)> image_bytes;  ///< memory model
  /// Set only by service workloads: snapshots request-level stats from the
  /// app's recorded arrival/completion times. Called by the experiment
  /// harness after the run; null for batch apps.
  std::function<ServiceStats()> service_stats;
};

}  // namespace gcr::apps
