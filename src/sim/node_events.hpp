// Pluggable node-event models: faults and planned churn (DESIGN.md §9,
// §16.2).
//
// A NodeEventModel is a deterministic generator of node-level events in
// nondecreasing time order, drawn from seeded substreams so one run seed
// gives one history regardless of what else the simulation does. Faults
// are surprises the protocol must absorb; churn (drains, spot reclaims with
// a warning window, rejoins) is advance notice it may exploit. The recovery
// layer (core/recovery.hpp) maps each event to the checkpoint group hosting
// that node's rank and drives the kill/restore and drain/rejoin machinery;
// this layer knows nothing about groups or protocols.
//
// Fault models (make_fault_model; every event is a kFault):
//   * exp     — independent per-node Poisson processes (the classic
//     memoryless MTBF model; what most checkpoint-interval theory assumes);
//   * weibull — per-node renewal process with Weibull inter-arrivals.
//     shape < 1 reproduces the infant-mortality/bursty hazard measured in
//     real HPC failure traces; shape > 1 models wear-out; shape == 1 is
//     exponential;
//   * burst   — spatially correlated failures: cluster-wide burst
//     arrivals, each taking down a run of adjacent nodes within a short
//     window (switch/PDU/rack faults — many groups can be down at once);
//   * trace   — replay of an explicit schedule, inline or parsed from a
//     file of "time_s node" lines (real failure logs, directed tests).
//
// Churn models (make_churn_model; kDrain, kReclaim and kJoin events):
//   * drains  — cluster-wide Poisson process of planned drains, each
//     picking a uniform node; the node rejoins after `outage_s`
//     (maintenance reboots, capacity rebalancing);
//   * spot    — the same arrival process, but each drain is a preemptible-VM
//     reclaim carrying `warning_s` of advance notice before the node is
//     forcibly killed (EC2 spot / GCE preemptible semantics);
//   * rolling — a rolling upgrade: node i drains at start_s + i*step_s and
//     rejoins outage_s later, visiting every node exactly once;
//   * trace   — replay of an explicit inline schedule.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace gcr::sim {

enum class NodeEventKind {
  kFault,    ///< unplanned node failure
  kDrain,    ///< planned drain: graceful exit, no deadline
  kReclaim,  ///< forced reclaim: the node dies warning_s after this event
  kJoin,     ///< a previously departed node comes back
};

/// One node event at `at_s` (seconds of simulated time). `warning_s` is
/// meaningful for kReclaim only: the node survives until at_s + warning_s,
/// then is killed regardless. The default kind makes `{at_s, node}` a fault.
struct NodeEvent {
  double at_s = 0;
  int node = 0;
  NodeEventKind kind = NodeEventKind::kFault;
  double warning_s = 0;
};

/// Generator interface. bind() is called exactly once before the first
/// next(); `rng_for` returns a deterministic Rng substream per stream id
/// (models use ids 0..num_nodes-1 for per-node processes and ids >=
/// num_nodes for shared processes, so streams never collide).
class NodeEventModel {
 public:
  virtual ~NodeEventModel() = default;

  virtual void bind(int num_nodes,
                    const std::function<Rng(std::uint64_t)>& rng_for) = 0;

  /// Next event; times are nondecreasing across calls. nullopt once the
  /// stream is exhausted (the renewal and Poisson models never exhaust —
  /// the consumer stops pulling when the job finishes).
  virtual std::optional<NodeEvent> next() = 0;
};

enum class FaultModelKind { kNone, kExponential, kWeibull, kBurst, kTrace };

/// Stable short name ("exp", "weibull", "burst", "trace") for tables/CSV.
const char* fault_model_name(FaultModelKind kind);

/// Construction parameters for the built-in fault models. Only the fields
/// of the selected `kind` are read; everything is sweepable as a scenario
/// axis.
struct FaultModelParams {
  FaultModelKind kind = FaultModelKind::kNone;

  // kExponential / kWeibull: per-node renewal processes.
  double mtbf_s = 3600.0;      ///< mean time between failures of ONE node
  double weibull_shape = 0.7;  ///< <1 bursty hazard, 1 = exponential, >1 wear-out

  // kBurst: cluster-wide burst arrivals hitting adjacent nodes.
  double burst_mtbf_s = 3600.0;  ///< mean time between burst events
  int burst_max_nodes = 4;       ///< burst size is uniform in 1..max
  double burst_spread_s = 0.25;  ///< window over which one burst's kills land

  // kTrace: explicit schedule of kFault events. `schedule` wins if
  // non-empty; otherwise `trace_path` is loaded at model construction.
  std::vector<NodeEvent> schedule;
  std::string trace_path;
};

/// Builds the fault model described by `params`; nullptr for kNone. Aborts
/// on invalid parameters (non-positive scales, empty trace, a non-fault
/// event in the schedule).
std::unique_ptr<NodeEventModel> make_fault_model(
    const FaultModelParams& params);

/// Parses a fault trace: one "time_s node" pair per line, '#' starts a
/// comment, blank lines ignored. Aborts on malformed input. The result is
/// NOT sorted — make_fault_model sorts its copy.
std::vector<NodeEvent> parse_fault_trace(std::istream& in);

enum class ChurnModelKind { kNone, kDrains, kSpot, kRolling, kTrace };

/// Stable short name ("drains", "spot", "rolling", "trace") for tables/CSV.
const char* churn_model_name(ChurnModelKind kind);

/// Construction parameters for the built-in churn models. Only the fields
/// of the selected `kind` are read; everything is sweepable as a scenario
/// axis.
struct ChurnModelParams {
  ChurnModelKind kind = ChurnModelKind::kNone;

  // kDrains / kSpot: cluster-wide Poisson arrivals of drain/reclaim events.
  double drain_mtbd_s = 600.0;  ///< mean time between drains (whole cluster)
  double outage_s = 30.0;       ///< drain-to-rejoin gap (all models)
  double warning_s = 15.0;      ///< kSpot: reclaim notice before the kill

  // kRolling: sequential sweep over every node.
  double rolling_start_s = 60.0;  ///< first node drains here
  double rolling_step_s = 60.0;   ///< gap between successive node drains

  // kTrace: explicit schedule of kDrain, kReclaim and kJoin events.
  std::vector<NodeEvent> schedule;
};

/// Builds the churn model described by `params`; nullptr for kNone. Aborts
/// on invalid parameters (non-positive rates, empty trace, a fault in the
/// schedule).
std::unique_ptr<NodeEventModel> make_churn_model(
    const ChurnModelParams& params);

}  // namespace gcr::sim
