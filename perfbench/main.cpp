// gcr end-to-end and per-layer benchmark (README.md).
//
//   gcr_perfbench --workload NAME --seed N --seconds S --trace 0|1 [--small]
//
// Builds the workload's inputs from --seed (timed: setup_s), then runs the
// workload's jobs one at a time, in passes, until --seconds have elapsed
// (at least one pass). --trace 0 reports the end-to-end metrics; --trace 1
// alternates untraced and traced passes and reports the per-layer metrics,
// writing its spans to spans/<workload>-seed<N>.jsonl beside the binary.
// --small runs the reduced-size variant the self-test uses. Per-job rows
// and metric lines go to stdout; the last line is one JSON object
// {correct, attempted, failed, metrics}. Exit code 0 unless the arguments
// are bad.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
};

/// Set-ups timed before the first job (the first builds the jobs' inputs);
/// --small times only that one.
constexpr int kSetupReps = 3;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "gcr_perfbench: %s\nusage: gcr_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--small]\nworkloads:",
               msg);
  for (const std::string& n : workload_names()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      a.trace = value() != "0";
    } else if (flag == "--small") {
      a.small = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Tallies checks across every job execution of the run.
struct Tally {
  long attempted = 0;
  long failed = 0;
  bool correct = true;

  void fail(const std::string& what) {
    correct = false;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
};

struct Pass {
  double wall_s = 0;
  std::vector<double> host_s;  ///< per job
  std::vector<double> rss_mb;  ///< per job: peak resident set of its process
  std::vector<JobOutcome> outcomes;
};

std::string job_label(const Job& j) {
  return j.mode + " seed " + std::to_string(j.seed);
}

void check(const Workload& w, const Job& job, const JobOutcome& o,
           Tally& tally) {
  ++tally.attempted;
  const std::string err = check_job(w, job, o);
  if (!err.empty()) {
    ++tally.failed;
    tally.fail(job_label(job) + ": " + err);
  }
}

/// Runs `fn` in a forked child and copies its result back through a pipe,
/// so the work starts from the parent's heap as it stands and leaves it
/// untouched; `rss_mb` gets the child's peak resident set. Returns false if
/// the child did not report (it crashed or aborted).
template <class Result, class Fn>
bool in_child(Fn fn, Result& out, double& rss_mb) {
  static_assert(std::is_trivially_copyable_v<Result>);
  std::fflush(stdout);
  std::fflush(stderr);
  int fds[2];
  if (pipe(fds) != 0) return false;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    const Result r = fn();
    const bool ok = write(fds[1], &r, sizeof r) == sizeof r;
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  std::size_t got = 0;
  auto* buf = reinterpret_cast<char*>(&out);
  while (got < sizeof out) {
    const ssize_t n = read(fds[0], buf + got, sizeof out - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
  return got == sizeof out && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

struct ChildReport {
  JobOutcome outcome;
  double host_s = 0;
};

/// Times one more set-up in a child, so the heap the jobs inherit stays put.
void sample_setup(Workload& w) {
  SetupTimes sample;
  double rss = 0;
  if (in_child(w.setup_once, sample, rss)) w.setup_samples.push_back(sample);
}

/// Runs one pass, each job in its own child process: every job starts
/// from the same heap, its peak resident set is its own, and a crash fails
/// only that job. Between jobs, set-up is timed again while its samples
/// total under a tenth of the run so far: set-up samples then span the run
/// instead of one short window, whose host speed may not be the run's.
Pass run_in_children(Workload& w, Clock::time_point run_start,
                     Tally& tally) {
  Pass p;
  for (const Job& job : w.jobs) {
    std::fprintf(stderr, "job %s\n", job_label(job).c_str());
    const auto run_job = [&job] {
      ChildReport c;
      const Clock::time_point t0 = Clock::now();
      const gcr::exp::ExperimentResult res =
          gcr::exp::run_experiment(job.config);
      c.host_s = seconds_since(t0);
      c.outcome = outcome_of(res);
      return c;
    };
    ChildReport r;
    double rss = 0;
    if (!in_child(run_job, r, rss)) {
      ++tally.attempted;
      ++tally.failed;
      tally.fail(job_label(job) + ": job process crashed");
    } else {
      check(w, job, r.outcome, tally);
    }
    p.host_s.push_back(r.host_s);
    p.rss_mb.push_back(rss);
    p.wall_s += r.host_s;
    p.outcomes.push_back(r.outcome);
    double setup_total = 0;
    for (const SetupTimes& x : w.setup_samples) setup_total += x.total_s;
    if (setup_total < 0.1 * seconds_since(run_start)) sample_setup(w);
  }
  return p;
}

/// Runs one untraced pass in this process: the reference the traced pass
/// beside it is compared with, under the same process model.
Pass run_in_process(const Workload& w, Tally& tally) {
  Pass p;
  for (const Job& job : w.jobs) {
    std::fprintf(stderr, "job %s\n", job_label(job).c_str());
    const Clock::time_point t0 = Clock::now();
    const gcr::exp::ExperimentResult res = gcr::exp::run_experiment(job.config);
    p.host_s.push_back(seconds_since(t0));
    p.wall_s += p.host_s.back();
    p.outcomes.push_back(outcome_of(res));
    check(w, job, p.outcomes.back(), tally);
  }
  return p;
}

std::vector<double> setup_field(const Workload& w,
                                double SetupTimes::*field) {
  std::vector<double> v;
  for (const SetupTimes& x : w.setup_samples) v.push_back(x.*field);
  return v;
}

/// Every pass must reproduce the first one's simulated outcomes exactly.
void check_same(const Workload& w, const Pass& ref, const Pass& p,
                const char* what, Tally& tally) {
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    if (ref.outcomes[i].digest != p.outcomes[i].digest) {
      tally.fail(job_label(w.jobs[i]) + ": " + what +
                 " digest differs from the first untraced pass");
    }
  }
}

/// One row per job: median host seconds over the untraced passes beside
/// the job's simulated outcome.
void print_jobs(const Workload& w, const std::vector<Pass>& passes) {
  const Pass& p = passes.front();
  std::printf("%-5s %6s %10s %12s %12s %12s %12s  %s\n", "mode", "seed",
              "host_s", "events", "sim_exec_s", "sim_ckpt_s", "sim_rst_s",
              "digest");
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    const JobOutcome& o = p.outcomes[i];
    std::vector<double> host;
    for (const Pass& q : passes) host.push_back(q.host_s[i]);
    std::printf("%-5s %6" PRIu64 " %10.4f %12" PRIu64
                " %12.4f %12.4f %12.4f  %016" PRIx64 "\n",
                w.jobs[i].mode.c_str(), w.jobs[i].seed, median(host),
                o.events, o.exec_s, o.ckpt_s, o.restart_s, o.digest);
  }
}

std::vector<Metric> end_to_end(const Workload& w,
                               const std::vector<Pass>& passes) {
  std::vector<double> walls;
  for (const Pass& p : passes) walls.push_back(p.wall_s);
  double rss = 0;
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    double r = 0;
    for (const Pass& p : passes) r = std::max(r, p.rss_mb[i]);
    rss += r;
  }
  double exec = 0, ckpt = 0;
  for (const JobOutcome& o : passes.front().outcomes) {
    exec += o.exec_s;
    ckpt += o.ckpt_s;
  }
  const double n = static_cast<double>(w.jobs.size());
  return {{"wall_s", median(walls), "s"},
          {"setup_s", median(setup_field(w, &SetupTimes::total_s)), "s"},
          {"peak_rss_mb", rss / n, "MB"},
          {"sim_exec_s", exec / n, "s"},
          {"sim_ckpt_s", ckpt / n, "s"}};
}

std::vector<Metric> per_layer(const Workload& w, const LayerStats& s,
                              double overhead_s) {
  const double jobs = static_cast<double>(w.jobs.size());
  const auto d = [](std::int64_t v) { return static_cast<double>(v); };
  const double loops = s.loop_s + s.restart_loop_s;
  std::vector<Metric> m = {
      {"trace.profile_s", median(setup_field(w, &SetupTimes::profile_s)),
       "s"},
      {"trace.records", d(w.trace_records), "count"},
      {"group.formation_s",
       median(setup_field(w, &SetupTimes::formation_s)), "s"},
      {"group.count", static_cast<double>(w.gp_groups), "count"},
      {"group.max_size", static_cast<double>(w.gp_max_group), "count"},
      {"sim.events", static_cast<double>(s.events), "count"},
      {"sim.loop_s", s.loop_s, "s"},
      {"sim.ns_per_event",
       s.events ? loops * 1e9 / static_cast<double>(s.events) : 0, "ns"},
      {"exp.build_s", s.build_s, "s"},
      {"exp.trace_overhead_s", overhead_s, "s"},
      {"sim.net.messages", d(s.net_messages), "count"},
      {"sim.net.bytes", d(s.net_bytes), "B"},
      {"sim.net.fabric_bytes_offered", d(s.fabric_offered), "B"},
      {"sim.net.fabric_bytes_dropped", d(s.fabric_dropped), "B"},
      {"mpi.app_messages", d(s.app_messages), "count"},
      {"mpi.app_bytes", d(s.app_bytes), "B"},
      {"mpi.sends", d(s.sends), "count"},
      {"mpi.suppressed_sends", d(s.suppressed_sends), "count"},
      {"mpi.deliveries", d(s.deliveries), "count"},
      {"mpi.consumes", d(s.consumes), "count"},
      {"core.ctrl_messages", d(s.net_messages - s.sends), "count"},
      {"core.logged_messages", d(s.logged_messages), "count"},
      {"core.logged_bytes", d(s.logged_bytes), "B"},
      {"core.resend_messages", d(s.resend_messages), "count"},
      {"core.hook.on_deliver_s", s.hook_on_deliver_s, "s"},
      {"core.hook.rank_started_s", s.hook_rank_started_s, "s"},
      {"core.hook.rank_killed_s", s.hook_rank_killed_s, "s"},
      {"core.hook.before_send_calls", d(s.before_send_calls), "count"},
      {"core.hook.safepoint_calls", d(s.safepoint_calls), "count"},
      {"core.restart_loop_s", s.restart_loop_s, "s"},
      // Simulated phase seconds, summed per process, mean over jobs: the
      // four add up to sim_ckpt_s.
      {"core.phase.lock_s", s.phase_lock_s / jobs, "s"},
      {"core.phase.coordination_s", s.phase_coord_s / jobs, "s"},
      {"core.phase.image_s", s.phase_image_s / jobs, "s"},
      {"core.phase.finalize_s", s.phase_finalize_s / jobs, "s"},
      // Simulated summed per-process restart time, mean over jobs.
      {"sim.restart_s", s.restart_s / jobs, "s"},
      {"core.recovery.failures", d(s.failures), "count"},
      {"core.recovery.completed", d(s.recoveries_completed), "count"},
      {"core.recovery.aborted", d(s.recoveries_aborted), "count"},
      {"ckpt.images_staged", d(s.images_staged), "count"},
      {"ckpt.drains_completed", d(s.drains_completed), "count"},
      {"ckpt.evictions", d(s.evictions), "count"},
      {"ckpt.writer_stalls", d(s.writer_stalls), "count"},
      {"ckpt.bb_bytes_peak", d(s.bb_bytes_peak), "B"},
      {"ckpt.reads_local", d(s.reads_local), "count"},
      {"ckpt.reads_bb", d(s.reads_bb), "count"},
      {"ckpt.reads_pfs", d(s.reads_pfs), "count"},
      {"sim.storage.bytes_written", d(s.storage_written), "B"},
      {"sim.storage.bytes_read", d(s.storage_read), "B"},
  };
  for (const char* mode : {"GP", "NORM"}) {
    const auto it = s.job_s.find(mode);
    m.push_back({std::string("exp.job_s.") + mode,
                 it == s.job_s.end() ? 0.0 : it->second, "s"});
  }
  return m;
}

void print_result(const Tally& t, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-32s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              t.correct ? "true" : "false", t.attempted, t.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// spans/<workload>-seed<N>[-small].jsonl in the binary's directory.
std::filesystem::path spans_path(const Args& a) {
  std::error_code ec;
  const std::filesystem::path dir =
      std::filesystem::read_symlink("/proc/self/exe", ec).parent_path() /
      "spans";
  std::filesystem::create_directories(dir, ec);
  return dir / (a.workload + "-seed" + std::to_string(a.seed) +
                (a.small ? "-small" : "") + ".jsonl");
}

void print_walls(const char* what, const std::vector<Pass>& passes) {
  std::printf("%s passes %zu, wall_s per pass:", what, passes.size());
  for (const Pass& p : passes) std::printf(" %.4f", p.wall_s);
  std::printf("\n");
}

int run(const Args& a) {
  Workload w;
  if (!make_workload(a.workload, a.seed, a.small, w)) {
    usage(("unknown workload " + a.workload).c_str());
  }
  // Hand the set-up's freed heap back, so the jobs' children do not start
  // from it (their peak resident set counts the parent's resident pages).
  malloc_trim(0);
  for (int i = 1; i < (a.small ? 1 : kSetupReps); ++i) sample_setup(w);
  std::printf("workload %s seed %" PRIu64 " jobs %zu setup_s %.4g%s\n",
              w.name.c_str(), a.seed, w.jobs.size(),
              median(setup_field(w, &SetupTimes::total_s)),
              a.small ? " (small)" : "");
  std::fflush(stdout);

  Tally tally;
  const Clock::time_point t0 = Clock::now();
  std::vector<Pass> passes;
  if (!a.trace) {
    do {
      passes.push_back(run_in_children(w, t0, tally));
      if (passes.size() > 1) {
        check_same(w, passes.front(), passes.back(), "untraced", tally);
      }
    } while (seconds_since(t0) < a.seconds);
    print_walls("untraced", passes);
    print_jobs(w, passes);
    // sim_restart_s is zero on a workload that never restarts, so it is
    // printed here and carried in the JSON only as the per-layer
    // sim.restart_s.
    double restart = 0;
    for (const JobOutcome& o : passes.front().outcomes) restart += o.restart_s;
    if (restart > 0) {
      std::printf("metric %-32s %.6g s\n", "sim_restart_s",
                  restart / static_cast<double>(w.jobs.size()));
    }
    print_result(tally, end_to_end(w, passes));
    return 0;
  }

  // Untraced and traced passes alternate in this process, so tracing
  // overhead compares neighbours in time under the same process model.
  SpanLog spans;
  std::vector<LayerStats> traced;
  std::vector<Pass> traced_passes;
  std::vector<double> overheads;
  do {
    passes.push_back(run_in_process(w, tally));
    if (passes.size() > 1) {
      check_same(w, passes.front(), passes.back(), "untraced", tally);
    }
    LayerStats stats;
    Pass p;
    const int root = spans.begin("workload." + w.name, -1);
    for (const Job& job : w.jobs) {
      std::fprintf(stderr, "traced job %s\n", job_label(job).c_str());
      p.outcomes.push_back(run_traced(job, spans, root, stats));
      check(w, job, p.outcomes.back(), tally);
    }
    spans.end(root);
    p.wall_s = spans.duration(root);
    check_same(w, passes.front(), p, "traced", tally);
    traced.push_back(std::move(stats));
    overheads.push_back(p.wall_s - passes.back().wall_s);
    traced_passes.push_back(std::move(p));
  } while (seconds_since(t0) < a.seconds);
  print_walls("untraced", passes);
  print_walls("traced", traced_passes);
  // Report the traced pass with the median wall time.
  std::vector<std::size_t> order(traced.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return traced_passes[x].wall_s < traced_passes[y].wall_s;
  });
  const std::size_t mid = order[(order.size() - 1) / 2];
  const std::filesystem::path path = spans_path(a);
  if (!spans.write_jsonl(path.string())) {
    std::fprintf(stderr, "gcr_perfbench: cannot write %s\n", path.c_str());
  }
  print_jobs(w, passes);
  print_result(tally, per_layer(w, traced[mid], median(overheads)));
  return 0;
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse(argc, argv));
}
