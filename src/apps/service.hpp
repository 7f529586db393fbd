// Long-running elastic service workload (DESIGN.md §16).
//
// Unlike the batch apps (HPL/CG/SP), the service serves an OPEN-LOOP
// request stream: each rank's request arrival times are drawn up front
// from a seeded Poisson process, so load keeps arriving on the wall clock
// whether or not the service is keeping up — an outage builds a backlog
// that must drain at the service rate, which is exactly what availability
// and tail-latency metrics are supposed to expose. Each request may
// consult a peer replica (in-block sendrecv) or a remote partition
// (cross-block sendrecv), then computes for the service time; its
// completion is recorded against the scheduled arrival, and the SLO
// accounting in apps::ServiceStats is derived after the run.
//
// One request is one protocol iteration (safepoint), so checkpoints land
// between requests and a restore re-executes the requests after the cut;
// re-executed completions overwrite earlier ones, charging each request
// the full delay it actually experienced.
#pragma once

#include <cstdint>

#include "apps/app.hpp"

namespace gcr::apps {

struct ServiceParams {
  std::uint64_t requests = 200;     ///< per-rank request count
  double arrival_rate_hz = 2.0;     ///< per-rank mean arrival rate (Poisson)
  double service_s = 0.05;          ///< per-request compute time
  int cluster_width = 0;   ///< replica-block width (0 = one global block)
  double slo_s = 0.5;      ///< latency SLO threshold (arrival -> completion)
  std::int64_t mem_bytes = 64ll << 20;  ///< checkpoint image size per rank
  std::uint64_t seed = 1;  ///< arrival-process seed (substream per rank)
};

/// Builds the service app for `nranks` ranks. The returned spec's
/// `service_stats` hook snapshots request-level latency/SLO stats from the
/// recorded completions (call it after the run; calling it mid-run gives
/// the stats of what has completed so far).
AppSpec make_service(int nranks, const ServiceParams& params);

}  // namespace gcr::apps
