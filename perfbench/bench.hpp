// Shared types of the gcr end-to-end benchmark (see README.md).
//
// A workload is a fixed list of jobs; a job is one exp::run_experiment
// call. The untraced path calls run_experiment itself; the traced path
// (traced.cpp) rebuilds the same stack from the public constructors with
// spans and counters around each layer's calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "exp/experiment.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v);

struct Job {
  std::string mode;  ///< "GP" or "NORM"
  std::uint64_t seed = 0;
  gcr::exp::ExperimentConfig config;
};

/// Host seconds of one set-up and of its layers.
struct SetupTimes {
  double total_s = 0;
  double profile_s = 0;    ///< exp::profile_app, 0 without trace-derived GP
  double formation_s = 0;  ///< group::form_groups_from_trace or constructors
};

struct Workload {
  std::string name;
  std::vector<Job> jobs;
  /// Checkpoint period (0 = one-shot rounds), for the planned-round check.
  double first_at_s = 0;
  double interval_s = 0;
  int max_rounds = 0;
  bool faults = false;
  // Set-up: the times of each timed run (the first built the jobs' inputs)
  // and a way to time one more.
  std::vector<SetupTimes> setup_samples;
  std::function<SetupTimes()> setup_once;
  std::int64_t trace_records = 0;
  int gp_groups = 0;
  int gp_max_group = 0;
};

/// Builds `name`'s inputs from the benchmark seed, timing the set-up once
/// into `setup_samples`. `small` selects the reduced-size variant the
/// self-test runs. Returns false for an unknown name.
bool make_workload(const std::string& name, std::uint64_t seed, bool small,
                   Workload& out);

const std::vector<std::string>& workload_names();

/// Host-independent outcome of one job: everything the untraced and traced
/// runs must agree on, bit for bit.
struct JobOutcome {
  bool finished = false;
  double exec_s = 0;
  double ckpt_s = 0;     ///< Metrics::aggregate_ckpt_time_s
  double restart_s = 0;  ///< Metrics::aggregate_restart_time_s
  int rounds_completed = 0;
  int restart_records = 0;  ///< whole-application restart records
  int failures = 0;
  int recoveries_completed = 0;
  int recoveries_aborted = 0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
};

JobOutcome outcome_of(const gcr::exp::ExperimentResult& r);

/// Output checks of one job; returns an empty string when all pass,
/// otherwise the first failure.
std::string check_job(const Workload& w, const Job& job, const JobOutcome& o);

/// Per-layer counters and host times of one traced pass (sums over jobs).
struct LayerStats {
  std::map<std::string, double> job_s;  ///< per-mode job spans
  double build_s = 0;
  double loop_s = 0;
  double restart_loop_s = 0;
  std::uint64_t events = 0;
  std::int64_t net_messages = 0, net_bytes = 0;
  std::int64_t fabric_offered = 0, fabric_dropped = 0;
  std::int64_t app_messages = 0, app_bytes = 0;
  std::int64_t sends = 0, suppressed_sends = 0, deliveries = 0, consumes = 0;
  std::int64_t logged_messages = 0, logged_bytes = 0, resend_messages = 0;
  double hook_on_deliver_s = 0, hook_rank_started_s = 0,
         hook_rank_killed_s = 0;
  std::int64_t before_send_calls = 0, safepoint_calls = 0;
  double phase_lock_s = 0, phase_coord_s = 0, phase_image_s = 0,
         phase_finalize_s = 0;
  double restart_s = 0;  ///< simulated, Metrics::aggregate_restart_time_s
  std::int64_t failures = 0, recoveries_completed = 0, recoveries_aborted = 0;
  std::int64_t images_staged = 0, drains_completed = 0, evictions = 0,
               writer_stalls = 0, bb_bytes_peak = 0;
  std::int64_t reads_local = 0, reads_bb = 0, reads_pfs = 0;
  std::int64_t storage_written = 0, storage_read = 0;
};

/// In-memory span log: name, start, end (seconds from the log's origin) and
/// parent index (-1 for a root). Written out once, at the end.
class SpanLog {
 public:
  int begin(std::string name, int parent);
  void end(int span);
  double duration(int span) const;
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Runs one job on the traced stack, adding its counters to `stats` and
/// its spans under `parent`.
JobOutcome run_traced(const Job& job, SpanLog& spans, int parent,
                      LayerStats& stats);

}  // namespace perfbench
