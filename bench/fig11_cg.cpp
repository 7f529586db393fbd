// Figure 11: NPB CG Class C — summed checkpoint (11a) and restart (11b)
// times for 16..128 processes (powers of two; GP4 included as in the paper).
//
// Paper shapes: like HPL — GP's checkpoint cost ~ GP1's and far below NORM;
// GP's restart ~ NORM's and less variable than GP1's.
#include "apps/cg.hpp"
#include "bench_common.hpp"

using namespace gcr;
using bench::Mode;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto procs = cli.get_int_list("procs", {16, 32, 64, 128}, "counts");
  const int reps = cli.get_reps(3);
  const bool csv = cli.get_bool("csv", false, "emit CSV");
  const int jobs = cli.get_jobs();
  cli.finish();

  exp::AppFactory app = [](int nr) { return apps::make_cg(nr); };
  auto cache = std::make_shared<bench::GroupCache>(app);
  const std::vector<Mode> modes{Mode::kGp, Mode::kGp1, Mode::kGp4,
                                Mode::kNorm};

  exp::Scenario sc;
  sc.name = "cg/ckpt-restart";
  sc.axes = {exp::SweepAxis::ints("procs", procs),
             exp::SweepAxis::enums("mode", modes)};
  sc.reps = reps;
  sc.config = [app, cache](const exp::SweepPoint& point) {
    exp::ExperimentConfig cfg;
    cfg.app = app;
    cfg.nranks = static_cast<int>(point.get_int("procs"));
    cfg.seed = point.seed;
    cfg.groups = cache->get(point.get_enum<Mode>("mode"), cfg.nranks);
    cfg.checkpoints = true;
    cfg.schedule.first_at_s = 60.0;
    cfg.schedule.round_spread_s = 0.4;
    cfg.restart_after_finish = true;
    return cfg;
  };
  sc.collect = [](const exp::SweepPoint&, const exp::ExperimentResult& res,
                  exp::Collector& col) {
    col.add("ckpt", res.metrics.aggregate_ckpt_time_s());
    col.add("restart", res.restart_aggregate_s);
  };
  const exp::CampaignResult camp = exp::run_campaign(sc, {jobs});

  auto table_for = [&](const char* metric) {
    Table t({"procs", "GP_s", "GP1_s", "GP4_s", "NORM_s"});
    for (std::size_t i = 0; i < procs.size(); ++i) {
      std::vector<std::string> row{Table::num(procs[i])};
      for (std::size_t mi = 0; mi < modes.size(); ++mi) {
        row.push_back(
            bench::cell_mean(camp.stat(sc.cell_index({i, mi}), metric), 1));
      }
      t.add_row(row);
    }
    return t;
  };
  bench::emit("Figure 11a - CG Class C summed checkpoint time. Expect: GP ~ "
              "GP1 << NORM at scale",
              table_for("ckpt"), csv, camp.unfinished_runs);
  bench::emit("Figure 11b - CG Class C summed restart time. Expect: GP ~ "
              "NORM, GP1 above",
              table_for("restart"), csv, camp.unfinished_runs);
  return 0;
}
