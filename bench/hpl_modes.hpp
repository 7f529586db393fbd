// Shared scenario for the paper's HPL experiments (Figures 5-9): one
// checkpoint at t=60 s, optional immediate whole-application restart after
// the run (paper §5.1's measurement protocol), swept over process counts
// and the four grouping modes, averaged over seeds.
#pragma once

#include "apps/hpl.hpp"
#include "bench_common.hpp"

namespace gcr::bench {

struct HplSweepOptions {
  std::vector<std::int64_t> procs{16, 32, 48, 64, 80, 96, 112, 128};
  std::vector<Mode> modes{Mode::kGp, Mode::kGp1, Mode::kGp4, Mode::kNorm};
  int reps = 5;
  double ckpt_at_s = 60.0;
  double round_spread_s = 0.4;  ///< mpirun per-group propagation window
  bool restart_after_finish = true;
  apps::HplParams hpl{};
};

/// Declarative procs × modes × seeds sweep; `collect` receives every
/// finished run (watchdog-tripped runs are counted by the campaign runner
/// instead). Cells are (procs index, mode index), row-major.
template <class Fn>
exp::Scenario hpl_scenario(std::string name, const HplSweepOptions& opt,
                           Fn collect) {
  const apps::HplParams hpl = opt.hpl;
  exp::AppFactory app = [hpl](int nr) { return apps::make_hpl(nr, hpl); };
  // GP: trace-derived groups with G = grid rows (the paper matches P=8);
  // shared across jobs so the profiling run happens once per process count.
  auto cache = std::make_shared<GroupCache>(app, /*gp_max_size=*/hpl.grid_rows);

  exp::Scenario sc;
  sc.name = std::move(name);
  sc.axes = {exp::SweepAxis::ints("procs", opt.procs), mode_axis(opt.modes)};
  sc.reps = opt.reps;
  sc.config = [opt, app, cache](const exp::SweepPoint& point) {
    exp::ExperimentConfig cfg;
    cfg.app = app;
    cfg.nranks = static_cast<int>(point.get_int("procs"));
    cfg.seed = point.seed;
    cfg.groups = cache->get(mode_at(point), cfg.nranks);
    cfg.checkpoints = true;
    cfg.schedule.first_at_s = opt.ckpt_at_s;
    cfg.schedule.round_spread_s = opt.round_spread_s;
    cfg.restart_after_finish = opt.restart_after_finish;
    return cfg;
  };
  sc.collect = [collect](const exp::SweepPoint& point,
                         const exp::ExperimentResult& res,
                         exp::Collector& col) {
    collect(static_cast<int>(point.get_int("procs")), mode_at(point), res,
            col);
  };
  return sc;
}

}  // namespace gcr::bench
