// Figure 12: NPB SP Class C — summed checkpoint (12a) and restart (12b)
// times for square process counts 64, 81, 100, 121 (GP4 omitted, as in the
// paper: "not appropriate for SP's system size").
//
// Paper shapes: same story as CG — GP's checkpoint ~ GP1 and below NORM;
// GP's restart ~ NORM, GP1 higher and more variable.
#include "apps/sp.hpp"
#include "bench_common.hpp"

using namespace gcr;
using bench::Mode;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto procs = cli.get_int_list("procs", {64, 81, 100, 121}, "counts");
  const int reps = cli.get_reps(3);
  const bool csv = cli.get_bool("csv", false, "emit CSV");
  const int jobs = cli.get_jobs();
  cli.finish();

  exp::AppFactory app = [](int nr) { return apps::make_sp(nr); };
  auto cache = std::make_shared<bench::GroupCache>(app);
  const std::vector<Mode> modes{Mode::kGp, Mode::kGp1, Mode::kNorm};

  exp::Scenario sc;
  sc.name = "sp/ckpt-restart";
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
    Table t({"procs", "GP_s", "GP1_s", "NORM_s"});
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
  bench::emit("Figure 12a - SP Class C summed checkpoint time",
              table_for("ckpt"), csv, camp.unfinished_runs);
  bench::emit("Figure 12b - SP Class C summed restart time",
              table_for("restart"), csv, camp.unfinished_runs);
  return 0;
}
