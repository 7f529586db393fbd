// The benchmark's workloads, their set-up, and the per-job output checks.
// README.md records why each workload was chosen.
#include <algorithm>
#include <cmath>

#include "apps/cg.hpp"
#include "apps/hpl.hpp"
#include "apps/simple.hpp"
#include "bench.hpp"
#include "group/formation.hpp"
#include "group/strategies.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using gcr::exp::AppFactory;
using gcr::exp::ExperimentConfig;
using gcr::group::GroupSet;

/// Job seeds come from a pool of seeds known to complete: `per_mode` of
/// them, picked by a shuffle driven by the benchmark seed. `bad` lists the
/// pool members known to abort (README.md, "Known limits").
std::vector<std::uint64_t> pick_seeds(std::uint64_t bench_seed,
                                      std::uint64_t stream, int pool,
                                      int per_mode,
                                      const std::vector<std::uint64_t>& bad) {
  std::vector<std::uint64_t> candidates;
  for (int s = 1; s <= pool; ++s) {
    const auto seed = static_cast<std::uint64_t>(s);
    if (std::find(bad.begin(), bad.end(), seed) == bad.end()) {
      candidates.push_back(seed);
    }
  }
  gcr::Rng rng(gcr::mix_seed(bench_seed, stream));
  const int n = std::min<int>(per_mode, static_cast<int>(candidates.size()));
  for (int i = 0; i < n; ++i) {
    const std::size_t j =
        static_cast<std::size_t>(i) +
        static_cast<std::size_t>(rng.next_u64() %
                                 (candidates.size() - static_cast<std::size_t>(i)));
    std::swap(candidates[static_cast<std::size_t>(i)], candidates[j]);
  }
  candidates.resize(static_cast<std::size_t>(n));
  return candidates;
}

struct SetupResult {
  GroupSet gp;
  GroupSet norm;
  double profile_s = 0;
  double formation_s = 0;
  std::int64_t records = 0;
};

/// Trace-derived GP groups (exp::profile_app + Algorithm 2) and NORM.
SetupResult setup_traced(const AppFactory& app, int nranks, int max_group) {
  SetupResult s;
  const Clock::time_point t0 = Clock::now();
  const gcr::trace::Trace trace = gcr::exp::profile_app(app, nranks, 1);
  s.profile_s = seconds_since(t0);
  const Clock::time_point t1 = Clock::now();
  gcr::group::FormationOptions options;
  options.max_group_size = max_group;
  s.gp = gcr::group::form_groups_from_trace(nranks, trace, options);
  s.norm = gcr::group::make_norm(nranks);
  s.formation_s = seconds_since(t1);
  s.records = static_cast<std::int64_t>(trace.size());
  return s;
}

/// Runs `once` (which performs `batch` set-ups) and records its time per
/// set-up as the first set-up sample; `once` is kept in `w.setup_once` for
/// more samples later in the run.
template <class Fn>
SetupResult timed_setup(int batch, Workload& w, Fn once) {
  const auto timed = [once, batch](SetupResult& r) {
    const Clock::time_point t0 = Clock::now();
    r = once();
    return SetupTimes{seconds_since(t0) / batch, r.profile_s, r.formation_s};
  };
  w.setup_once = [timed] {
    SetupResult r;
    return timed(r);
  };
  SetupResult s;
  w.setup_samples.push_back(timed(s));
  return s;
}

void fill_groups(Workload& w, const SetupResult& s) {
  w.trace_records = s.records;
  w.gp_groups = s.gp.num_groups();
  w.gp_max_group = 0;
  for (int g = 0; g < s.gp.num_groups(); ++g) {
    w.gp_max_group =
        std::max(w.gp_max_group, static_cast<int>(s.gp.members(g).size()));
  }
}

/// One GP and one NORM job per picked seed, interleaved.
void add_jobs(Workload& w, const SetupResult& s, const ExperimentConfig& base,
              const std::vector<std::uint64_t>& gp_seeds,
              const std::vector<std::uint64_t>& norm_seeds) {
  for (std::size_t i = 0; i < std::max(gp_seeds.size(), norm_seeds.size());
       ++i) {
    if (i < gp_seeds.size()) {
      Job j{"GP", gp_seeds[i], base};
      j.config.seed = gp_seeds[i];
      j.config.groups = s.gp;
      w.jobs.push_back(std::move(j));
    }
    if (i < norm_seeds.size()) {
      Job j{"NORM", norm_seeds[i], base};
      j.config.seed = norm_seeds[i];
      j.config.groups = s.norm;
      w.jobs.push_back(std::move(j));
    }
  }
}

// --- cg-restart-128 --------------------------------------------------------
// NPB CG on the flat fabric, one checkpoint at t=60 s and a whole-application
// restart after finish (the Figure 11 protocol).
void make_cg_restart(std::uint64_t seed, bool small, Workload& w) {
  const int n = small ? 16 : 128;
  const AppFactory app = [](int nr) { return gcr::apps::make_cg(nr); };
  const SetupResult s =
      timed_setup(1, w, [app, n] { return setup_traced(app, n, 0); });
  fill_groups(w, s);

  ExperimentConfig base;
  base.app = app;
  base.nranks = n;
  base.checkpoints = true;
  base.schedule.first_at_s = 60.0;
  base.schedule.round_spread_s = 0.4;
  base.restart_after_finish = true;
  w.first_at_s = base.schedule.first_at_s;
  w.max_rounds = 1;
  add_jobs(w, s, base, pick_seeds(seed, 0xc6, 16, 6, {}),
           pick_seeds(seed, 0xc7, 16, 6, {}));
}

// --- fattree-storm-1024, fattree-storm-512 ---------------------------------
// The fig_scale_extrapolation config: a block-local stencil on an adaptive
// fat-tree, one checkpoint round; NORM's global bookmark storm against GP's
// blocks of 8. No restart: a whole-application restart at 1024 ranks costs
// about 19 s of host time per job and would bury the storm. At 512 ranks a
// NORM job is short enough to run four per mode, whose median over passes
// is steady enough for BENCHMARK.json (README.md, "Workloads and why").
constexpr int kBlockWidth = 8;

void make_fattree_storm(std::uint64_t seed, int n, int per_mode,
                        Workload& w) {
  const AppFactory app = [](int nranks) {
    gcr::apps::Stencil1dParams p;
    p.iterations = 40;
    p.halo_bytes = 32 * 1024;
    p.compute_s = 0.005;
    p.mem_bytes = 4 * 1024 * 1024;
    p.cluster_width = kBlockWidth;
    return gcr::apps::make_stencil1d(nranks, p);
  };
  // Set-up is two constructors (microseconds), so each sample times a
  // batch of them.
  constexpr int kBatch = 64;
  const SetupResult s = timed_setup(kBatch, w, [n] {
    SetupResult r;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kBatch; ++i) {
      r.gp = gcr::group::make_blocks(n, kBlockWidth);
      r.norm = gcr::group::make_norm(n);
    }
    r.formation_s = seconds_since(t0) / kBatch;
    return r;
  });
  fill_groups(w, s);

  ExperimentConfig base;
  base.app = app;
  base.nranks = n;
  base.topology.kind = gcr::sim::TopologyKind::kFatTree;
  base.topology.fattree_routing = gcr::sim::FatTreeRouting::kAdaptive;
  base.checkpoints = true;
  base.schedule.first_at_s = 0.1;
  base.schedule.max_rounds = 1;
  base.protocol_options.commit_margin = std::max(2, n / 256);
  w.first_at_s = base.schedule.first_at_s;
  w.max_rounds = 1;
  add_jobs(w, s, base, pick_seeds(seed, 0xf6, 16, per_mode, {}),
           pick_seeds(seed, 0xf7, 16, per_mode, {}));
}

// --- hpl-faults-drain-128 --------------------------------------------------
// HPL with periodic checkpoints through the burst buffer with PFS
// write-behind, under exponential node faults.
void make_hpl_faults(std::uint64_t seed, bool small, Workload& w) {
  const int n = small ? 16 : 128;
  const gcr::apps::HplParams hpl;
  const AppFactory app = [hpl](int nr) { return gcr::apps::make_hpl(nr, hpl); };
  const SetupResult s = timed_setup(1, w, [app, n, hpl] {
    return setup_traced(app, n, hpl.grid_rows);
  });
  fill_groups(w, s);

  ExperimentConfig base;
  base.app = app;
  base.nranks = n;
  base.checkpoints = true;
  base.schedule.first_at_s = 60.0;
  base.schedule.interval_s = 60.0;
  base.schedule.round_spread_s = 0.4;
  base.storage.mode = gcr::ckpt::StorageMode::kDrain;
  base.fault_model.kind = gcr::sim::FaultModelKind::kExponential;
  base.fault_model.mtbf_s = 20000.0;
  w.first_at_s = base.schedule.first_at_s;
  w.interval_s = base.schedule.interval_s;
  w.faults = true;
  // NORM seeds 36 and 51 abort with "commit target already passed".
  add_jobs(w, s, base, pick_seeds(seed, 0x86, 64, 32, {}),
           pick_seeds(seed, 0x87, 64, 32, {36, 51}));
}

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <class T>
std::uint64_t fnv(std::uint64_t h, const T& v) {
  return fnv(h, &v, sizeof v);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "cg-restart-128", "fattree-storm-1024", "fattree-storm-512",
      "hpl-faults-drain-128"};
  return names;
}

bool make_workload(const std::string& name, std::uint64_t seed, bool small,
                   Workload& out) {
  out = Workload{};
  out.name = name;
  if (name == "cg-restart-128") {
    make_cg_restart(seed, small, out);
  } else if (name == "fattree-storm-1024") {
    make_fattree_storm(seed, small ? 64 : 1024, 1, out);
  } else if (name == "fattree-storm-512") {
    make_fattree_storm(seed, small ? 64 : 512, 4, out);
  } else if (name == "hpl-faults-drain-128") {
    make_hpl_faults(seed, small, out);
  } else {
    return false;
  }
  return true;
}

JobOutcome outcome_of(const gcr::exp::ExperimentResult& r) {
  JobOutcome o;
  o.finished = r.finished;
  o.exec_s = r.exec_time_s;
  o.ckpt_s = r.metrics.aggregate_ckpt_time_s();
  o.restart_s = r.metrics.aggregate_restart_time_s();
  o.rounds_completed = r.checkpoints_completed;
  o.restart_records = static_cast<int>(r.restart_records.size());
  o.failures = r.failures_injected;
  o.recoveries_completed = r.recoveries_completed;
  o.recoveries_aborted = r.recoveries_aborted;
  for (const std::uint64_t e : r.shard_events) o.events += e;

  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv(h, o.finished);
  h = fnv(h, o.exec_s);
  h = fnv(h, o.events);
  h = fnv(h, r.app_messages);
  h = fnv(h, r.app_bytes);
  h = fnv(h, o.rounds_completed);
  h = fnv(h, o.failures);
  h = fnv(h, r.failures_absorbed);
  h = fnv(h, o.recoveries_completed);
  h = fnv(h, o.recoveries_aborted);
  const gcr::core::Metrics& m = r.metrics;
  for (const gcr::core::CkptRecord& c : m.ckpts) {
    h = fnv(h, c.rank);
    h = fnv(h, c.epoch);
    h = fnv(h, c.signal_at);
    h = fnv(h, c.begin);
    h = fnv(h, c.end);
    h = fnv(h, c.phases.lock_mpi);
    h = fnv(h, c.phases.coordination);
    h = fnv(h, c.phases.checkpoint);
    h = fnv(h, c.phases.finalize);
  }
  for (const gcr::core::RestartRecord& rr : m.restarts) {
    h = fnv(h, rr.rank);
    h = fnv(h, rr.begin);
    h = fnv(h, rr.end);
    h = fnv(h, rr.image_read_s);
    h = fnv(h, rr.exchange_s);
  }
  h = fnv(h, m.logged_messages);
  h = fnv(h, m.logged_bytes);
  h = fnv(h, m.flushed_bytes);
  h = fnv(h, m.resend_ops);
  h = fnv(h, m.resend_messages);
  h = fnv(h, m.resend_bytes);
  h = fnv(h, m.aborted_rounds);
  h = fnv(h, o.restart_records);
  const gcr::ckpt::TierStats& t = r.tier_stats;
  for (const std::int64_t v :
       {t.images_staged, t.drains_started, t.drains_completed,
        t.drains_abandoned, t.evictions, t.writer_stalls, t.bb_bytes_used,
        t.bb_bytes_peak, t.reads_local, t.reads_bb, t.reads_pfs}) {
    h = fnv(h, v);
  }
  o.digest = h;
  return o;
}

std::string check_job(const Workload& w, const Job& job, const JobOutcome& o) {
  const int n = job.config.nranks;
  if (!o.finished) return "job did not finish";
  int planned = w.max_rounds;
  if (w.interval_s > 0) {
    planned = static_cast<int>(
                  std::floor((o.exec_s - w.first_at_s) / w.interval_s)) +
              1;
  }
  // A fault aborts at most the one round in flight on its group.
  if (w.faults) planned -= o.failures;
  if (o.rounds_completed < planned) {
    return "completed " + std::to_string(o.rounds_completed) + " of " +
           std::to_string(planned) + " planned checkpoint rounds";
  }
  if (job.config.restart_after_finish && o.restart_records != n) {
    return "expected " + std::to_string(n) + " restart records, got " +
           std::to_string(o.restart_records);
  }
  if (w.faults &&
      o.failures != o.recoveries_completed + o.recoveries_aborted) {
    return "failures injected != recoveries completed + aborted";
  }
  return {};
}

}  // namespace perfbench
