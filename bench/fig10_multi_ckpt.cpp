// Figure 10: effect of multiple checkpoints. HPL N=56000, 128 processes,
// checkpoint intervals {0 (none), 60, 120, 180, 300} seconds, GP vs NORM.
//
// Paper shapes: with no checkpoints GP is slightly slower (logging); with
// more checkpoints GP catches up (crossover around the 180 s interval = 4
// checkpoints) and wins at 60/120 s — i.e. GP affords more checkpoints for
// the same total time, reducing expected work loss.
#include "apps/hpl.hpp"
#include "bench_common.hpp"

using namespace gcr;
using bench::Mode;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int n = static_cast<int>(cli.get_int("procs", 128, "process count"));
  const auto intervals =
      cli.get_int_list("intervals", {0, 60, 120, 180, 300}, "ckpt periods");
  const std::int64_t problem =
      cli.get_int("n", 56000, "HPL problem size (paper: 56000)");
  const int reps = cli.get_reps(3);
  const bool csv = cli.get_bool("csv", false, "emit CSV");
  const int jobs = cli.get_jobs();
  cli.finish();

  apps::HplParams hpl;
  hpl.n = problem;
  exp::AppFactory app = [hpl](int nr) { return apps::make_hpl(nr, hpl); };
  auto cache = std::make_shared<bench::GroupCache>(app, hpl.grid_rows);
  const std::vector<Mode> modes{Mode::kGp, Mode::kNorm};

  exp::Scenario sc;
  sc.name = "hpl/multi-ckpt";
  sc.axes = {exp::SweepAxis::ints("interval", intervals),
             exp::SweepAxis::enums("mode", modes)};
  sc.reps = reps;
  sc.config = [n, app, cache](const exp::SweepPoint& point) {
    exp::ExperimentConfig cfg;
    cfg.app = app;
    cfg.nranks = n;
    cfg.seed = point.seed;
    cfg.groups = cache->get(point.get_enum<Mode>("mode"), n);
    const double interval = point.get("interval");
    if (interval > 0) {
      cfg.checkpoints = true;
      cfg.schedule.first_at_s = interval;
      cfg.schedule.interval_s = interval;
      cfg.schedule.round_spread_s = 0.4;
    }
    return cfg;
  };
  sc.collect = [](const exp::SweepPoint&, const exp::ExperimentResult& res,
                  exp::Collector& col) {
    col.add("exec", res.exec_time_s);
    col.add("ckpts", res.checkpoints_completed);
  };
  const exp::CampaignResult camp = exp::run_campaign(sc, {jobs});
  auto stat = [&](std::size_t ii, Mode m, const char* metric) {
    return bench::cell_mean(
        camp.stat(sc.cell_index({ii, bench::mode_index(modes, m)}), metric),
        1);
  };

  Table t({"interval_s", "GP_exec_s", "GP_ckpts", "NORM_exec_s",
           "NORM_ckpts"});
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    t.add_row({Table::num(intervals[i]), stat(i, Mode::kGp, "exec"),
               stat(i, Mode::kGp, "ckpts"), stat(i, Mode::kNorm, "exec"),
               stat(i, Mode::kNorm, "ckpts")});
  }
  bench::emit(
      "Figure 10 - multiple checkpoints (HPL N=56000, 128 procs). Expect: "
      "GP slower with 0 checkpoints (logging), overtakes NORM as "
      "checkpoints multiply",
      t, csv, camp.unfinished_runs);
  return 0;
}
