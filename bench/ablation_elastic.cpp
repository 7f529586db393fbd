// Ablation: elastic service under churn — grouping mode × churn model ×
// storage tier (DESIGN.md §16).
//
// A long-running service app (apps/service.hpp: open-loop seeded arrival
// stream, per-request SLO) runs with periodic checkpoints while a churn
// model (sim/node_events.hpp) drains, reclaims and rejoins nodes: drains exit
// through a committed checkpoint (clean handoff), spot reclaims get a
// warning window that may or may not suffice, rolling visits every node
// once, and every departed node rejoins and is merged back by the
// traffic-affinity planner (core/elastic.hpp). Cells report availability,
// SLO-miss rate and tail latency next to the churn books.
//
// Expected shape: NORM pays the most per churn event (every drain commits
// the whole cluster's images and every departure splits the global group),
// GP1 pays the least coordination but logs everything; GP sits between.
// Spot reclaims under the drain tier commit faster, so a given warning
// window converts more reclaims from forced (group failure) to clean
// (checkpoint-on-warning) than the direct device does — availability and
// tail latency follow.
#include "apps/service.hpp"
#include "bench_common.hpp"
#include "sim/node_events.hpp"

using namespace gcr;
using bench::Mode;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int procs =
      static_cast<int>(cli.get_int("procs", 16, "process count"));
  const int reps = cli.get_reps(3);
  const bool csv = cli.get_bool("csv", false, "emit CSV");
  const int jobs = cli.get_jobs();
  const std::int64_t requests =
      cli.get_int("requests", 400, "requests per rank");
  const double rate_hz = cli.get_double("rate", 4.0, "arrivals per second");
  const double slo_s = cli.get_double("slo", 0.5, "per-request SLO (s)");
  const double ckpt_first = cli.get_double("first-at", 5.0, "first ckpt (s)");
  const double ckpt_every = cli.get_double("interval", 10.0, "ckpt period (s)");
  const double mtbd = cli.get_double("mtbd", 40.0,
                                     "mean time between drains/reclaims (s)");
  const double outage = cli.get_double("outage", 12.0,
                                       "departure-to-rejoin gap (s)");
  const double warning = cli.get_double("warning", 5.0,
                                        "spot reclaim notice (s)");
  cli.finish();

  const std::vector<Mode> modes{Mode::kNorm, Mode::kGp, Mode::kGp1};
  const std::vector<sim::ChurnModelKind> churns{sim::ChurnModelKind::kDrains,
                                                sim::ChurnModelKind::kSpot,
                                                sim::ChurnModelKind::kRolling};
  const std::vector<ckpt::StorageMode> storages{ckpt::StorageMode::kDirect,
                                                ckpt::StorageMode::kDrain};

  apps::ServiceParams sp;
  sp.requests = static_cast<std::uint64_t>(requests);
  sp.arrival_rate_hz = rate_hz;
  sp.slo_s = slo_s;
  sp.cluster_width = 4;  // blocks of replicas + rare cross-block traffic
  exp::AppFactory app = [sp](int nr) { return apps::make_service(nr, sp); };
  auto cache = std::make_shared<bench::GroupCache>(app, sp.cluster_width);

  exp::Scenario sc;
  sc.name = "ablation/elastic";
  sc.axes = {exp::SweepAxis::enums("mode", modes),
             exp::SweepAxis::enums("churn", churns),
             exp::SweepAxis::enums("storage", storages)};
  sc.reps = reps;
  sc.config = [&](const exp::SweepPoint& point) {
    exp::ExperimentConfig cfg;
    cfg.app = app;
    cfg.nranks = procs;
    cfg.seed = point.seed;
    cfg.groups = cache->get(point.get_enum<Mode>("mode"), procs);
    cfg.checkpoints = true;
    cfg.schedule.first_at_s = ckpt_first;
    cfg.schedule.interval_s = ckpt_every;
    cfg.schedule.round_spread_s = 0.2;
    cfg.storage.mode = point.get_enum<ckpt::StorageMode>("storage");
    cfg.churn.kind = point.get_enum<sim::ChurnModelKind>("churn");
    cfg.churn.drain_mtbd_s = mtbd;
    cfg.churn.outage_s = outage;
    cfg.churn.warning_s = warning;
    // Rolling sweep sized so every node is visited inside the nominal
    // service window (requests / rate seconds of arrivals).
    const double horizon =
        static_cast<double>(requests) / rate_hz;
    cfg.churn.rolling_start_s = 0.1 * horizon;
    cfg.churn.rolling_step_s =
        0.8 * horizon / static_cast<double>(procs);
    cfg.recovery.detect_s = 0.5;
    cfg.recovery.relaunch_s = 0.5;
    return cfg;
  };
  sc.collect = [](const exp::SweepPoint&, const exp::ExperimentResult& res,
                  exp::Collector& col) {
    col.add("exec", res.exec_time_s);
    col.add("avail", res.availability);
    col.add("slo_miss", res.service ? res.service->slo_miss_rate : 0.0);
    col.add("p50_ms", res.service ? res.service->p50_latency_s * 1e3 : 0.0);
    col.add("p99_ms", res.service ? res.service->p99_latency_s * 1e3 : 0.0);
    col.add("drains", static_cast<double>(res.drains_completed));
    col.add("recl_clean", static_cast<double>(res.reclaims_clean));
    col.add("recl_forced", static_cast<double>(res.reclaims_forced));
    col.add("joins", static_cast<double>(res.joins_completed));
    col.add("merges", static_cast<double>(res.merges_installed));
    col.add("failures", static_cast<double>(res.failures_injected));
  };

  const exp::CampaignResult camp = exp::run_campaign(sc, {jobs});

  Table t({"mode", "churn", "storage", "exec_s", "avail", "slo_miss",
           "p50_ms", "p99_ms", "drains", "recl_c", "recl_f", "joins",
           "merges", "fails"});
  for (std::size_t mi = 0; mi < modes.size(); ++mi) {
    for (std::size_t ci = 0; ci < churns.size(); ++ci) {
      for (std::size_t si = 0; si < storages.size(); ++si) {
        const std::size_t cell = sc.cell_index({mi, ci, si});
        t.add_row({bench::mode_name(modes[mi]),
                   sim::churn_model_name(churns[ci]),
                   ckpt::storage_mode_name(storages[si]),
                   bench::cell_mean(camp.stat(cell, "exec"), 1),
                   bench::cell_mean(camp.stat(cell, "avail"), 4),
                   bench::cell_mean(camp.stat(cell, "slo_miss"), 4),
                   bench::cell_mean(camp.stat(cell, "p50_ms"), 1),
                   bench::cell_mean(camp.stat(cell, "p99_ms"), 1),
                   bench::cell_mean(camp.stat(cell, "drains"), 1),
                   bench::cell_mean(camp.stat(cell, "recl_clean"), 1),
                   bench::cell_mean(camp.stat(cell, "recl_forced"), 1),
                   bench::cell_mean(camp.stat(cell, "joins"), 1),
                   bench::cell_mean(camp.stat(cell, "merges"), 1),
                   bench::cell_mean(camp.stat(cell, "failures"), 1)});
      }
    }
  }
  bench::emit(
      "Ablation - elastic service under churn (mode x churn model x "
      "storage tier). Expect: clean drains cost availability only for the "
      "outage; spot warnings convert to clean exits when the storage tier "
      "commits inside the window; NORM pays whole-cluster coordination per "
      "event",
      t, csv, camp.unfinished_runs);
  return 0;
}
