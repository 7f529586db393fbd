// Checkpoint scheduler — the mpirun side of the workflow (paper Figure 4;
// DESIGN.md §9):
// receives checkpoint requests "from the system or the user" and propagates
// them. Here it issues rounds at a fixed first time and optional interval,
// stopping once the job has finished.
//
// For the group protocol a round optionally staggers per-group requests
// (mpirun spawns one child per group; propagation is serialized), which also
// spreads checkpoint-server load across groups. Per-group intervals are one
// scheduler per group whose round requests that group alone
// (exp::run_experiment builds them).
#pragma once

#include <functional>

#include "core/group_protocol.hpp"
#include "core/vcl_protocol.hpp"
#include "mpi/runtime.hpp"

namespace gcr::core {

struct SchedulerOptions {
  double first_at_s = 60.0;  ///< time of the first checkpoint round
  double interval_s = 0.0;   ///< repeat period; 0 = one-shot
  /// Window over which one round's per-group requests are spread (group g
  /// is requested at offset spread·g/ngroups). Models mpirun spawning one
  /// child per group and the resulting cut misalignment between groups;
  /// 0 = simultaneous requests.
  double round_spread_s = 0;
  /// Stop after this many rounds (0 = unlimited). Used to force equal
  /// checkpoint counts across protocols (paper §5.3's fairness rule).
  int max_rounds = 0;
};

class CheckpointScheduler {
 public:
  /// `issue_round` is called once per round (e.g. request every group, or a
  /// VCL global round).
  CheckpointScheduler(mpi::Runtime& rt, std::function<void()> issue_round,
                      SchedulerOptions options)
      : rt_(&rt), issue_round_(std::move(issue_round)), options_(options) {}

  /// Convenience factory: rounds request every group of a GroupProtocol
  /// with the configured stagger. A staggered request names its group by
  /// leader rank, so a regroup before it fires cannot misdirect it.
  static CheckpointScheduler for_groups(mpi::Runtime& rt,
                                        GroupProtocol& protocol,
                                        SchedulerOptions options);

  /// Convenience factory: rounds are VCL global Chandy-Lamport rounds.
  static CheckpointScheduler for_vcl(mpi::Runtime& rt, VclProtocol& protocol,
                                     SchedulerOptions options);

  /// Arms the first round.
  void start();

 private:
  void tick();

  mpi::Runtime* rt_;
  std::function<void()> issue_round_;
  SchedulerOptions options_;
  int rounds_ = 0;
};

}  // namespace gcr::core
