#include "core/scheduler.hpp"

#include "util/assert.hpp"

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
          if (spread <= 0) {
            p->request_group_checkpoint(g);
            continue;
          }
          // A staggered request names the group by its leader rank, not
          // its index: an elastic regroup before the request fires can
          // renumber (or dissolve) the group. Resolved at fire time; the
          // request is dropped if that rank no longer leads a group.
          const mpi::RankId leader = groups.members(g).front();
          const double offset = spread * g / ngroups;
          r->engine().call_after(sim::from_seconds(offset), [p, leader] {
            const group::GroupSet& now = p->groups();
            const int cur = now.group_of(leader);
            if (now.members(cur).front() == leader) {
              p->request_group_checkpoint(cur);
            }
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

void CheckpointScheduler::start_per_group(
    mpi::Runtime& rt, GroupProtocol& protocol,
    const std::vector<double>& interval_s) {
  GCR_CHECK(static_cast<int>(interval_s.size()) ==
            protocol.groups().num_groups());
  for (int g = 0; g < protocol.groups().num_groups(); ++g) {
    const double period = interval_s[static_cast<std::size_t>(g)];
    if (period <= 0) continue;  // group opted out of checkpointing
    rt.engine().call_after(sim::from_seconds(period), [&rt, &protocol, g,
                                                       period] {
      group_tick(&rt, &protocol, g, period);
    });
  }
}

void CheckpointScheduler::group_tick(mpi::Runtime* rt, GroupProtocol* protocol,
                                     int group, double interval_s) {
  if (rt->job_finished()) return;
  protocol->request_group_checkpoint(group);
  rt->engine().call_after(sim::from_seconds(interval_s),
                          [rt, protocol, group, interval_s] {
                            group_tick(rt, protocol, group, interval_s);
                          });
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
