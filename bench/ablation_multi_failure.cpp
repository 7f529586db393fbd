// Ablation A5: protocol comparison under CONCURRENT failures — the regime
// the paper's evaluation (single isolated group failures) never reaches.
//
// Sweeps the pluggable fault models (sim/node_events.hpp) against
// NORM/GP/GP1:
//   exp      independent per-node exponential faults,
//   weibull  bursty hazard (shape < 1, as measured in real HPC traces),
//   burst    spatially correlated multi-node bursts (several groups down at
//            once; recoveries queue and exchanges defer),
//   trace    replay of an explicit schedule — by default a built-in
//            schedule with same-instant and mid-recovery faults; pass
//            --trace FILE to replay a real failure log ("time_s node"
//            lines).
//
// Expect: GP's damage is one group per fault, so it rides out overlapping
// recoveries (some arrivals are even absorbed by an already-down group);
// NORM restarts everything on every fault and thrashes when faults cluster.
// The `ovl` columns count overlap events: arrivals absorbed by a down group
// plus restores aborted by a re-failure.
#include "apps/hpl.hpp"
#include "bench_common.hpp"
#include "sim/node_events.hpp"

using namespace gcr;
using bench::Mode;

namespace {

/// Fault-kind list from a comma-separated --fault-models value.
std::vector<sim::FaultModelKind> parse_kinds(const std::string& csv) {
  std::vector<sim::FaultModelKind> kinds;
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t end = csv.find(',', start);
    if (end == std::string::npos) end = csv.size();
    const std::string name = csv.substr(start, end - start);
    bool found = false;
    for (sim::FaultModelKind k :
         {sim::FaultModelKind::kExponential, sim::FaultModelKind::kWeibull,
          sim::FaultModelKind::kBurst, sim::FaultModelKind::kTrace}) {
      if (name == sim::fault_model_name(k)) {
        kinds.push_back(k);
        found = true;
      }
    }
    GCR_CHECK_MSG(found, ("unknown fault model: " + name).c_str());
    start = end + 1;
  }
  return kinds;
}

/// Built-in trace: two same-instant pair failures, a fault landing inside
/// the previous recovery window, and a late isolated fault.
std::vector<sim::NodeEvent> demo_schedule(int nranks) {
  const int q = nranks / 4;
  return {{60.0, 0},       {60.0, 2 * q},  {61.0, q},
          {130.0, 0},      {130.5, 1},     {200.0, 3 * q}};
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int n = static_cast<int>(cli.get_int("procs", 32, "process count"));
  const double interval =
      cli.get_double("interval", 30.0, "ckpt period (s)");
  const double mtbf =
      cli.get_double("mtbf", 2000.0, "per-node MTBF (s; exp/weibull)");
  const double shape =
      cli.get_double("shape", 0.7, "weibull shape (<1 = bursty hazard)");
  const double burst_mtbf =
      cli.get_double("burst-mtbf", 120.0, "mean time between bursts (s)");
  const int burst_max = static_cast<int>(
      cli.get_int("burst-max", 4, "max adjacent nodes per burst"));
  const double burst_spread =
      cli.get_double("burst-spread", 0.25, "burst kill window (s)");
  const std::string trace_path = cli.get_string(
      "trace", "", "fault trace file for the trace model (default: built-in)");
  const std::vector<sim::FaultModelKind> kinds = parse_kinds(cli.get_string(
      "fault-models", "exp,weibull,burst,trace", "models to sweep"));
  const int reps = cli.get_reps(3);
  const bool csv = cli.get_bool("csv", false, "emit CSV");
  const int jobs = cli.get_jobs();
  cli.finish();

  apps::HplParams hpl;
  exp::AppFactory app = [hpl](int nr) { return apps::make_hpl(nr, hpl); };
  auto cache = std::make_shared<bench::GroupCache>(app, hpl.grid_rows);
  const std::vector<Mode> modes{Mode::kGp, Mode::kGp1, Mode::kNorm};

  sim::FaultModelParams base;
  base.mtbf_s = mtbf;
  base.weibull_shape = shape;
  base.burst_mtbf_s = burst_mtbf;
  base.burst_max_nodes = burst_max;
  base.burst_spread_s = burst_spread;
  if (!trace_path.empty()) {
    base.trace_path = trace_path;
  } else {
    base.schedule = demo_schedule(n);
  }

  exp::Scenario sc;
  sc.name = "hpl/multi-failure";
  sc.axes = {exp::SweepAxis::enums("fault_kind", kinds),
             exp::SweepAxis::enums("mode", modes)};
  sc.reps = reps;
  sc.config = [n, app, cache, interval, base](const exp::SweepPoint& point) {
    exp::ExperimentConfig cfg;
    cfg.app = app;
    cfg.nranks = n;
    cfg.seed = point.seed;
    cfg.groups = cache->get(point.get_enum<Mode>("mode"), n);
    cfg.checkpoints = true;
    cfg.schedule.first_at_s = interval;
    cfg.schedule.interval_s = interval;
    cfg.schedule.round_spread_s = 0.4;
    cfg.fault_model = base;
    cfg.fault_model.kind = point.get_enum<sim::FaultModelKind>("fault_kind");
    return cfg;
  };
  sc.collect = [](const exp::SweepPoint&, const exp::ExperimentResult& res,
                  exp::Collector& col) {
    col.add("exec", res.exec_time_s);
    col.add("fails", res.failures_injected);
    col.add("overlap", res.failures_absorbed + res.recoveries_aborted);
  };
  const exp::CampaignResult camp = exp::run_campaign(sc, {jobs});
  auto stat = [&](std::size_t ki, Mode m, const char* metric, int decimals) {
    return bench::cell_mean(
        camp.stat(sc.cell_index({ki, bench::mode_index(modes, m)}), metric),
        decimals);
  };

  Table t({"model", "GP_exec_s", "GP_fails", "GP_ovl", "GP1_exec_s",
           "GP1_fails", "GP1_ovl", "NORM_exec_s", "NORM_fails", "NORM_ovl"});
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    t.add_row({sim::fault_model_name(kinds[k]),
               stat(k, Mode::kGp, "exec", 1), stat(k, Mode::kGp, "fails", 1),
               stat(k, Mode::kGp, "overlap", 1),
               stat(k, Mode::kGp1, "exec", 1), stat(k, Mode::kGp1, "fails", 1),
               stat(k, Mode::kGp1, "overlap", 1),
               stat(k, Mode::kNorm, "exec", 1),
               stat(k, Mode::kNorm, "fails", 1),
               stat(k, Mode::kNorm, "overlap", 1)});
  }
  bench::emit(
      "Ablation A5 - time-to-completion under concurrent failures "
      "(exp/weibull/burst/trace fault models, HPL). Expect: GP degrades "
      "gracefully when faults overlap (per-group damage, queued "
      "recoveries); NORM restarts the world on every fault",
      t, csv, camp.unfinished_runs);
  return 0;
}
