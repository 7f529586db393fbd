// Scale extrapolation: the Figure 5/13 story pushed past the paper's
// 32-node Gideon cluster, on modeled fabrics the paper could only
// speculate about.
//
// One checkpoint round over a block-local stencil, swept across process
// counts x fabric topology (flat switch, fat-tree, dragonfly) x protocol
// mode. Expected shape: NORM's global coordination (all-to-all bookmarks,
// global drain + barrier) grows superlinearly with scale while GP's
// group-local coordination stays flat, so the NORM-GP gap widens with
// procs on every fabric — and widens faster on routed fabrics, where the
// bookmark storm also contends for shared uplinks.
//
// GP here uses the stencil's natural block grouping (make_blocks matching
// cluster_width) rather than trace-derived formation: profiling a 4k-rank
// trace is exactly the cost the paper's Algorithm 2 amortizes away, and
// for a block-local stencil the derived answer IS the block partition.
#include <algorithm>
#include <string>
#include <vector>

#include "apps/simple.hpp"
#include "bench_common.hpp"

using namespace gcr;
using bench::Mode;

namespace {

constexpr int kBlockWidth = 8;  ///< stencil locality = GP group width

exp::AppFactory make_app() {
  return [](int nranks) {
    apps::Stencil1dParams p;
    p.iterations = 40;
    p.halo_bytes = 32 * 1024;
    p.compute_s = 0.005;
    p.mem_bytes = 4 * 1024 * 1024;
    p.cluster_width = kBlockWidth;
    return apps::make_stencil1d(nranks, p);
  };
}

group::GroupSet groups_for_scale(Mode mode, int nranks) {
  switch (mode) {
    case Mode::kGp: return group::make_blocks(nranks, kBlockWidth);
    case Mode::kGp1: return group::make_gp1(nranks);
    case Mode::kGp4: return group::make_sequential(nranks, 4);
    case Mode::kNorm: return group::make_norm(nranks);
  }
  return group::make_norm(nranks);
}

Mode parse_mode(const std::string& name) {
  if (name == "GP") return Mode::kGp;
  if (name == "GP1") return Mode::kGp1;
  if (name == "GP4") return Mode::kGp4;
  if (name == "NORM") return Mode::kNorm;
  GCR_CHECK_MSG(false, "unknown mode (want GP, GP1, GP4, or NORM)");
  return Mode::kNorm;  // unreachable
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::vector<std::int64_t> procs =
      cli.get_int_list("procs", {128, 512, 1024}, "process counts");
  const std::string topo_arg = cli.get_string(
      "topologies", "flat,fattree,dragonfly", "fabric kinds (comma list)");
  const std::string mode_arg =
      cli.get_string("modes", "NORM,GP,GP1", "protocol modes (comma list)");
  const int reps = cli.get_reps(3);
  const bool csv = cli.get_bool("csv", false, "emit CSV");
  const int jobs = cli.get_jobs();
  cli.finish();

  std::vector<sim::TopologyKind> topos;
  for (const std::string& t : split_list(topo_arg)) {
    topos.push_back(sim::parse_topology_kind(t));
  }
  std::vector<Mode> modes;
  for (const std::string& m : split_list(mode_arg)) {
    modes.push_back(parse_mode(m));
  }
  GCR_CHECK(!topos.empty() && !modes.empty());

  const exp::AppFactory app = make_app();

  exp::Scenario sc;
  sc.name = "scale/extrapolation";
  sc.axes = {exp::SweepAxis::ints("procs", procs),
             exp::SweepAxis::enums("topology", topos),
             exp::SweepAxis::enums("mode", modes)};
  sc.reps = reps;
  sc.config = [&](const exp::SweepPoint& point) {
    const int n = static_cast<int>(point.get_int("procs"));
    exp::ExperimentConfig config;
    config.app = app;
    config.nranks = n;
    config.seed = point.seed;
    config.groups = groups_for_scale(point.get_enum<Mode>("mode"), n);
    config.topology.kind = point.get_enum<sim::TopologyKind>("topology");
    // Adaptive (least-loaded) fat-tree uplinks: the bookmark storm is the
    // exact hotspot adaptive routing exists for. Dragonfly stays minimal.
    config.topology.fattree_routing = sim::FatTreeRouting::kAdaptive;
    config.checkpoints = true;
    config.schedule.first_at_s = 0.1;  // inside the ~0.4 s stencil run
    config.schedule.max_rounds = 1;
    // NORM's commit fan-out is O(n) control messages serialized at the
    // leader's NIC; past ~2k ranks it crosses more safe points than the
    // default margin of 2, so widen the target window with scale (while
    // keeping the target inside the stencil's 40 iterations).
    config.protocol_options.commit_margin = std::max(2, n / 256);
    return config;
  };
  sc.collect = [](const exp::SweepPoint&, const exp::ExperimentResult& res,
                  exp::Collector& col) {
    col.add("exec", res.exec_time_s);
    col.add("coord", res.metrics.mean_phases().coordination);
  };

  const exp::CampaignResult camp = exp::run_campaign(sc, {jobs});

  auto stat = [&](std::size_t pi, std::size_t ti, std::size_t mi,
                  const char* metric) -> const RunningStats& {
    return camp.stat(sc.cell_index({pi, ti, mi}), metric);
  };

  for (std::size_t ti = 0; ti < topos.size(); ++ti) {
    std::vector<std::string> headers = {"procs"};
    for (Mode m : modes) {
      headers.push_back(std::string(bench::mode_name(m)) + "_s");
    }
    for (Mode m : modes) {
      headers.push_back(std::string(bench::mode_name(m)) + "_coord_s");
    }
    Table t(headers);
    for (std::size_t pi = 0; pi < procs.size(); ++pi) {
      std::vector<std::string> row = {Table::num(procs[pi])};
      for (std::size_t mi = 0; mi < modes.size(); ++mi) {
        row.push_back(bench::cell_mean(stat(pi, ti, mi, "exec"), 2));
      }
      for (std::size_t mi = 0; mi < modes.size(); ++mi) {
        row.push_back(bench::cell_mean(stat(pi, ti, mi, "coord"), 4));
      }
      t.add_row(row);
    }
    bench::emit("Scale extrapolation - one checkpoint round, " +
                    std::string(sim::topology_kind_name(topos[ti])) +
                    " fabric. Expect: NORM coordination grows with procs, "
                    "GP stays flat",
                t, csv, camp.unfinished_runs);
  }
  return 0;
}
