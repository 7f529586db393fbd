// Ablation A4: per-group checkpoint intervals planned from measured costs
// and per-group MTBFs (paper §6: "group processor nodes that fail more
// frequently, and select a shorter checkpoint interval ... The above listed
// works do not support such feature"; §7: traces "give a hint to select a
// fixed optimal checkpoint interval").
//
// One flaky group fails randomly (short MTBF); the others are reliable. We
// compare three schedules under identical failure streams:
//   uniform-short : everyone checkpoints at the flaky group's pace
//   uniform-long  : everyone checkpoints at the reliable groups' pace
//   planned       : per-group Daly intervals from measured ckpt costs
#include "apps/hpl.hpp"
#include "bench_common.hpp"
#include "core/interval.hpp"
#include "sim/node_events.hpp"

using namespace gcr;
using bench::Mode;

namespace {

/// Fault schedule: exponential arrivals of mean mtbf_s[g] on group g's
/// first rank (mtbf_s[g] <= 0: group g never fails), one substream of
/// `seed` per group, stepped in whole nanoseconds up to the first arrival
/// past `max_sim_s`.
std::vector<sim::NodeEvent> group_faults(const group::GroupSet& groups,
                                         const std::vector<double>& mtbf_s,
                                         std::uint64_t seed,
                                         double max_sim_s) {
  std::vector<sim::NodeEvent> schedule;
  const sim::Time end = sim::from_seconds(max_sim_s);
  for (int g = 0; g < groups.num_groups(); ++g) {
    const double mtbf = mtbf_s[static_cast<std::size_t>(g)];
    if (mtbf <= 0) continue;
    Rng rng(mix_seed(seed, 0xFA11 + static_cast<std::uint64_t>(g)));
    sim::Time t = 0;
    do {
      t += sim::from_seconds(rng.next_exponential(mtbf));
      schedule.push_back({sim::to_seconds(t), groups.members(g).front()});
    } while (t <= end);
  }
  return schedule;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int n = static_cast<int>(cli.get_int("procs", 32, "process count"));
  const double flaky_mtbf =
      cli.get_double("flaky-mtbf", 90.0, "MTBF of group 0 (s)");
  const double solid_mtbf =
      cli.get_double("solid-mtbf", 3600.0, "MTBF of the other groups (s)");
  const int reps = cli.get_reps(3);
  const bool csv = cli.get_bool("csv", false, "emit CSV");
  const int jobs = cli.get_jobs();
  cli.finish();

  apps::HplParams hpl;
  exp::AppFactory app = [hpl](int nr) { return apps::make_hpl(nr, hpl); };
  const group::GroupSet groups =
      bench::groups_for(Mode::kGp, n, app, hpl.grid_rows);
  const int ngroups = groups.num_groups();

  // Measure per-group checkpoint cost with one profiling checkpoint.
  exp::ExperimentConfig probe;
  probe.app = app;
  probe.nranks = n;
  probe.groups = groups;
  probe.checkpoints = true;
  probe.schedule.first_at_s = 30.0;
  exp::ExperimentResult probe_res = exp::run_experiment(probe);
  const std::vector<double> cost =
      core::measured_group_ckpt_cost(probe_res.metrics, groups);

  std::vector<core::GroupReliability> rel(
      static_cast<std::size_t>(ngroups), core::GroupReliability{solid_mtbf});
  rel[0].mtbf_s = flaky_mtbf;
  const core::GroupIntervalPlan plan = core::plan_group_intervals(cost, rel);
  std::printf("measured ckpt cost/group ~%.2fs; planned intervals: flaky "
              "%.0fs, solid %.0fs, uniform %.0fs\n\n",
              cost[0], plan.interval_s[0], plan.interval_s.back(),
              plan.uniform_interval_s);

  std::vector<double> mtbf(static_cast<std::size_t>(ngroups), solid_mtbf);
  mtbf[0] = flaky_mtbf;

  struct Schedule {
    const char* name;
    std::vector<double> intervals;
  };
  std::vector<Schedule> schedules;
  schedules.push_back({"uniform-short",
                       std::vector<double>(static_cast<std::size_t>(ngroups),
                                           plan.interval_s[0])});
  schedules.push_back({"uniform-long",
                       std::vector<double>(static_cast<std::size_t>(ngroups),
                                           plan.interval_s.back())});
  schedules.push_back({"planned", plan.interval_s});

  exp::Scenario sc;
  sc.name = "hpl/planned-intervals";
  sc.axes = {exp::SweepAxis::indices("schedule", schedules.size())};
  sc.reps = reps;
  sc.config = [n, app, &groups, &schedules, &mtbf](
                  const exp::SweepPoint& point) {
    exp::ExperimentConfig cfg;
    cfg.app = app;
    cfg.nranks = n;
    cfg.seed = point.seed;
    cfg.groups = groups;
    cfg.per_group_intervals =
        schedules[static_cast<std::size_t>(point.get_int("schedule"))]
            .intervals;
    cfg.fault_model.schedule =
        group_faults(groups, mtbf, cfg.seed, cfg.max_sim_s);
    if (!cfg.fault_model.schedule.empty()) {
      cfg.fault_model.kind = sim::FaultModelKind::kTrace;
    }
    return cfg;
  };
  sc.collect = [](const exp::SweepPoint&, const exp::ExperimentResult& res,
                  exp::Collector& col) {
    col.add("exec", res.exec_time_s);
    col.add("records", static_cast<double>(res.metrics.ckpts.size()));
    col.add("fails", res.failures_injected);
    col.add("agg", res.metrics.aggregate_ckpt_time_s());
  };
  const exp::CampaignResult camp = exp::run_campaign(sc, {jobs});

  Table t({"schedule", "exec_s", "ckpt_records", "failures", "agg_ckpt_s"});
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    t.add_row({schedules[i].name, bench::cell_mean(camp.stat(i, "exec"), 1),
               bench::cell_mean(camp.stat(i, "records"), 0),
               bench::cell_mean(camp.stat(i, "fails"), 1),
               bench::cell_mean(camp.stat(i, "agg"), 1)});
  }
  bench::emit(
      "Ablation A4 - per-group planned intervals under a flaky group. "
      "Expect: planned ~ matches the best uniform schedule or beats both "
      "(short protection where failures are, low overhead elsewhere)",
      t, csv, camp.unfinished_runs);
  return 0;
}
