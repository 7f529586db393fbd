// Figure 13: effect of scale with remote checkpoint storage — GP vs
// MPICH-VCL, CG Class C, 16..128 processes, equal checkpoint counts.
//
// Paper: VCL checkpoints every 120 s; GP is forced to the same NUMBER of
// checkpoints (their execution times differ). Expect: GP's total execution
// time clearly below VCL's, with the gap growing with scale.
//
// Each (procs, seed) job chains three runs — VCL, a GP probe without
// checkpoints, then the fairness-matched GP run — so it uses the campaign's
// `job` hook instead of the one-config path.
#include <algorithm>

#include "apps/cg.hpp"
#include "bench_common.hpp"

using namespace gcr;
using bench::Mode;

namespace {

exp::ExperimentConfig make_config(const exp::AppFactory& app, int n,
                                  bool use_vcl,
                                  const std::optional<group::GroupSet>& groups,
                                  double first_at, double interval,
                                  int max_rounds, std::uint64_t seed) {
  exp::ExperimentConfig cfg;
  cfg.app = app;
  cfg.nranks = n;
  cfg.seed = seed;
  cfg.remote_storage = true;  // 4 shared checkpoint servers
  cfg.checkpoints = true;
  cfg.schedule.first_at_s = first_at;
  cfg.schedule.interval_s = interval;
  cfg.schedule.max_rounds = max_rounds;
  if (use_vcl) {
    cfg.protocol = exp::ProtocolKind::kVcl;
  } else {
    cfg.groups = groups;
    cfg.schedule.round_spread_s = 0.4;
  }
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto procs = cli.get_int_list("procs", {16, 32, 64, 128}, "counts");
  const double vcl_interval =
      cli.get_double("interval", 120.0, "VCL ckpt period (s)");
  const int reps = cli.get_reps(3);
  const bool csv = cli.get_bool("csv", false, "emit CSV");
  const int jobs = cli.get_jobs();
  cli.finish();

  exp::AppFactory app = [](int nr) { return apps::make_cg(nr); };
  auto cache = std::make_shared<bench::GroupCache>(app);

  exp::Scenario sc;
  sc.name = "cg/scale-vcl";
  sc.axes = {exp::SweepAxis::ints("procs", procs)};
  sc.reps = reps;
  sc.job = [app, cache, vcl_interval](const exp::SweepPoint& point,
                                      exp::Collector& col) {
    const int n = static_cast<int>(point.get_int("procs"));
    const group::GroupSet& gp_groups = cache->get(Mode::kGp, n);
    const exp::ExperimentResult vcl =
        col.run(make_config(app, n, /*use_vcl=*/true, std::nullopt,
                            vcl_interval, vcl_interval, 0, point.seed));
    // A watchdog-tripped run reports an abort horizon, not an execution
    // time, and poisons the fairness chain derived from it — drop the
    // whole (n, seed) job (no samples at all, so the GP and VCL columns
    // always average over the same seeds), matching the runner's
    // config-path behavior.
    if (!vcl.finished) return;
    // Force GP to the same checkpoint count by adapting the interval to
    // ITS expected execution time and capping the rounds (the paper's
    // fairness rule: "GP is then forced to take the same number of
    // checkpoints by using a different checkpoint interval").
    const int target = std::max(1, vcl.checkpoints_completed);
    const exp::ExperimentResult gp_probe =
        col.run(make_config(app, n, false, gp_groups, 1e9, 0, 0,
                            point.seed));  // no ckpts
    if (!gp_probe.finished) return;
    const double gp_interval =
        gp_probe.exec_time_s / static_cast<double>(target + 1);
    const exp::ExperimentResult gp =
        col.run(make_config(app, n, false, gp_groups, gp_interval,
                            gp_interval, target, point.seed));
    if (!gp.finished) return;
    col.add("vcl_exec", vcl.exec_time_s);
    col.add("vcl_ckpts", vcl.checkpoints_completed);
    col.add("gp_exec", gp.exec_time_s);
    col.add("gp_ckpts", gp.checkpoints_completed);
  };
  const exp::CampaignResult camp = exp::run_campaign(sc, {jobs});

  Table t({"procs", "GP_exec_s", "GP_ckpts", "VCL_exec_s", "VCL_ckpts"});
  for (std::size_t i = 0; i < procs.size(); ++i) {
    t.add_row({Table::num(procs[i]),
               bench::cell_mean(camp.stat(i, "gp_exec"), 1),
               bench::cell_mean(camp.stat(i, "gp_ckpts"), 1),
               bench::cell_mean(camp.stat(i, "vcl_exec"), 1),
               bench::cell_mean(camp.stat(i, "vcl_ckpts"), 1)});
  }
  bench::emit(
      "Figure 13 - GP vs MPICH-VCL at scale (CG Class C, remote storage, "
      "equal checkpoint counts). Expect: GP's edge grows with scale",
      t, csv, camp.unfinished_runs);
  return 0;
}
