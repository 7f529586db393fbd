#include "core/scheduler.hpp"

namespace gcr::core {

CheckpointScheduler CheckpointScheduler::for_groups(mpi::Runtime& rt,
                                                    GroupProtocol& protocol,
                                                    SchedulerOptions options) {
  GroupProtocol* p = &protocol;
  mpi::Runtime* r = &rt;
  const double spread = options.round_spread_s;
  return CheckpointScheduler(
      rt,
      [p, r, spread] {
        const group::GroupSet& groups = p->groups();
        const int ngroups = groups.num_groups();
        for (int g = 0; g < ngroups; ++g) {
          const mpi::RankId leader = groups.members(g).front();
          if (spread <= 0) {
            p->request_checkpoint(leader);
            continue;
          }
          const double offset = spread * g / ngroups;
          r->engine().call_after(sim::from_seconds(offset), [p, leader] {
            p->request_checkpoint(leader);
          });
        }
      },
      options);
}

CheckpointScheduler CheckpointScheduler::for_vcl(mpi::Runtime& rt,
                                                 VclProtocol& protocol,
                                                 SchedulerOptions options) {
  VclProtocol* p = &protocol;
  return CheckpointScheduler(rt, [p] { p->request_round(); }, options);
}

void CheckpointScheduler::start() {
  rt_->engine().call_after(sim::from_seconds(options_.first_at_s),
                           [this] { tick(); });
}

void CheckpointScheduler::tick() {
  if (rt_->job_finished()) return;
  if (options_.max_rounds > 0 && rounds_ >= options_.max_rounds) return;
  issue_round_();
  ++rounds_;
  if (options_.interval_s > 0) {
    rt_->engine().call_after(sim::from_seconds(options_.interval_s),
                             [this] { tick(); });
  }
}

}  // namespace gcr::core
