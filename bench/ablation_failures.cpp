// Ablation A3: throughput under failures vs checkpoint interval — the
// paper's motivation in one experiment ("the proposed solution ... performs
// more checkpoints within the execution ... reducing work loss due to
// rollback recovery").
//
// One group fails mid-run; we sweep the checkpoint interval and compare
// total time-to-completion for GP vs NORM. Frequent NORM checkpoints cost
// global coordination; frequent GP checkpoints are cheap, so GP tolerates a
// short interval (small work loss) without slowing down.
#include "apps/hpl.hpp"
#include "bench_common.hpp"

using namespace gcr;
using bench::Mode;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int n = static_cast<int>(cli.get_int("procs", 32, "process count"));
  const auto intervals =
      cli.get_int_list("intervals", {15, 30, 60, 120}, "ckpt periods (s)");
  const double fail_at = cli.get_double("fail-at", 130.0, "failure time (s)");
  const int reps = cli.get_reps(3);
  const bool csv = cli.get_bool("csv", false, "emit CSV");
  const int jobs = cli.get_jobs();
  cli.finish();

  apps::HplParams hpl;
  exp::AppFactory app = [hpl](int nr) { return apps::make_hpl(nr, hpl); };
  auto cache = std::make_shared<bench::GroupCache>(app, hpl.grid_rows);
  const std::vector<Mode> modes{Mode::kGp, Mode::kNorm};

  exp::Scenario sc;
  sc.name = "hpl/failure-intervals";
  sc.axes = {exp::SweepAxis::ints("interval", intervals),
             exp::SweepAxis::enums("mode", modes)};
  sc.reps = reps;
  sc.config = [n, app, cache, fail_at](const exp::SweepPoint& point) {
    exp::ExperimentConfig cfg;
    cfg.app = app;
    cfg.nranks = n;
    cfg.seed = point.seed;
    cfg.groups = cache->get(point.get_enum<Mode>("mode"), n);
    cfg.checkpoints = true;
    cfg.schedule.first_at_s = point.get("interval");
    cfg.schedule.interval_s = point.get("interval");
    cfg.schedule.round_spread_s = 0.4;
    // One scheduled node fault via the fault-model subsystem; the node of
    // group 0's first rank maps back to group 0 for every grouping mode.
    cfg.fault_model.kind = sim::FaultModelKind::kTrace;
    cfg.fault_model.schedule = {{fail_at, cfg.groups->members(0).front()}};
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
      "Ablation A3 - time-to-completion with one mid-run group failure vs "
      "checkpoint interval (HPL). Expect: GP benefits from short intervals "
      "(cheap checkpoints, less lost work); NORM pays for them",
      t, csv, camp.unfinished_runs);
  return 0;
}
