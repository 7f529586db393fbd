// Ablation: checkpoint storage tiers — direct device vs burst buffer vs
// burst buffer + async drain (DESIGN.md §13), across grouping modes.
//
// NORM/GP/GP1 × direct-PFS/bb/drain on the HPL workload with periodic
// checkpoints and one injected mid-run group failure, so every cell
// exercises the full write path (stage → commit → write-behind) AND the
// restore path (the failed group's ranks read from the fastest tier still
// holding their committed image — the killed nodes' staging buffers are
// lost, so tier modes restore from the burst buffer). "direct" writes
// every image straight into one PFS-speed shared device (fair-share,
// stripe-width concurrency); the tier modes put the burst buffer in front
// of that same PFS.
//
// Expected shape: burst-buffer commits cut the checkpoint (image-write)
// phase well below the direct-device time — the paper's storage-funnel
// bottleneck — while the drain mode keeps that gain and adds PFS
// durability in the background; restores in tier modes are served at
// burst-buffer speed instead of the slow shared device.
#include "bench_common.hpp"
#include "hpl_modes.hpp"

using namespace gcr;
using bench::Mode;

namespace {

exp::StorageConfig storage_config(ckpt::StorageMode mode, double bb_mbps,
                                  double pfs_mbps, double capacity_mb) {
  exp::StorageConfig s;
  s.mode = mode;
  s.burst_buffer_Bps = bb_mbps * 1e6;
  s.pfs_Bps = pfs_mbps * 1e6;
  s.burst_buffer_capacity_bytes = capacity_mb * 1e6;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int procs =
      static_cast<int>(cli.get_int("procs", 16, "process count"));
  const int reps = cli.get_reps(3);
  const bool csv = cli.get_bool("csv", false, "emit CSV");
  const int jobs = cli.get_jobs();
  const double ckpt_first = cli.get_double("first-at", 60.0, "first ckpt (s)");
  const double ckpt_every = cli.get_double("interval", 120.0, "ckpt period (s)");
  const double fail_at = cli.get_double("fail-at", 200.0,
                                        "group-0 failure time (s; <=0 = none)");
  const double bb_mbps = cli.get_double("bb-mbps", 400.0,
                                        "burst-buffer ingest (MB/s)");
  const double pfs_mbps = cli.get_double("pfs-mbps", 50.0,
                                         "PFS drain bandwidth (MB/s)");
  const double capacity_mb = cli.get_double(
      "bb-capacity-mb", 8000.0, "aggregate burst-buffer capacity (MB)");
  cli.finish();

  const std::vector<Mode> modes{Mode::kNorm, Mode::kGp, Mode::kGp1};
  const std::vector<ckpt::StorageMode> storages{
      ckpt::StorageMode::kDirect, ckpt::StorageMode::kBurstBuffer,
      ckpt::StorageMode::kDrain};

  apps::HplParams hpl;
  exp::AppFactory app = [hpl](int nr) { return apps::make_hpl(nr, hpl); };
  auto cache = std::make_shared<bench::GroupCache>(app, hpl.grid_rows);

  exp::Scenario sc;
  sc.name = "ablation/storage-tiers";
  sc.axes = {exp::SweepAxis::enums("mode", modes),
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
    cfg.schedule.round_spread_s = 0.4;
    const auto storage = point.get_enum<ckpt::StorageMode>("storage");
    cfg.storage = storage_config(storage, bb_mbps, pfs_mbps, capacity_mb);
    if (storage == ckpt::StorageMode::kDirect) {
      // Direct-PFS: every image funnels straight into one shared device at
      // PFS speed with fair-share contention — the storage bottleneck the
      // tier modes are built to absorb.
      cfg.remote_storage = true;
      cfg.remote_servers = 1;
      cfg.remote_bandwidth_Bps = pfs_mbps * 1e6;
      cfg.storage.direct_concurrency = cfg.storage.pfs_concurrency;
    }
    if (fail_at > 0) cfg.failures.push_back({/*group=*/0, /*at_s=*/fail_at});
    return cfg;
  };
  sc.collect = [](const exp::SweepPoint&, const exp::ExperimentResult& res,
                  exp::Collector& col) {
    col.add("exec", res.exec_time_s);
    double image_s = 0;
    for (const auto& rec : res.metrics.ckpts) image_s += rec.phases.checkpoint;
    col.add("image_s",
            res.metrics.ckpts.empty()
                ? 0.0
                : image_s / static_cast<double>(res.metrics.ckpts.size()));
    double restore_s = 0;
    for (const auto& rec : res.metrics.restarts) {
      restore_s += sim::to_seconds(rec.end - rec.begin);
    }
    col.add("restore_s",
            res.metrics.restarts.empty()
                ? 0.0
                : restore_s / static_cast<double>(res.metrics.restarts.size()));
    col.add("drains", static_cast<double>(res.tier_stats.drains_completed));
    col.add("evictions", static_cast<double>(res.tier_stats.evictions));
    col.add("reads_bb", static_cast<double>(res.tier_stats.reads_bb));
    col.add("reads_pfs", static_cast<double>(res.tier_stats.reads_pfs));
    col.add("bb_peak_mb", res.tier_stats.bb_bytes_peak / 1e6);
  };

  const exp::CampaignResult camp = exp::run_campaign(sc, {jobs});

  Table t({"mode", "storage", "exec_s", "image_s", "restore_s", "drains",
           "evict", "reads_bb", "reads_pfs", "bb_peak_MB"});
  for (std::size_t mi = 0; mi < modes.size(); ++mi) {
    for (std::size_t si = 0; si < storages.size(); ++si) {
      const std::size_t cell = sc.cell_index({mi, si});
      t.add_row({bench::mode_name(modes[mi]),
                 ckpt::storage_mode_name(storages[si]),
                 bench::cell_mean(camp.stat(cell, "exec"), 1),
                 bench::cell_mean(camp.stat(cell, "image_s"), 2),
                 bench::cell_mean(camp.stat(cell, "restore_s"), 2),
                 bench::cell_mean(camp.stat(cell, "drains"), 1),
                 bench::cell_mean(camp.stat(cell, "evictions"), 1),
                 bench::cell_mean(camp.stat(cell, "reads_bb"), 1),
                 bench::cell_mean(camp.stat(cell, "reads_pfs"), 1),
                 bench::cell_mean(camp.stat(cell, "bb_peak_mb"), 0)});
    }
  }
  bench::emit(
      "Ablation - checkpoint storage tiers (direct vs burst buffer vs "
      "bb+drain). Expect: tier modes cut the image phase and serve "
      "post-failure restores from the burst buffer",
      t, csv, camp.unfinished_runs);
  return 0;
}
