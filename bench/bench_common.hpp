// Shared helpers for the figure-reproduction benches.
//
// Every bench declares a Scenario (exp/scenario.hpp), runs it on the
// campaign worker pool (exp/campaign.hpp, `--jobs`), and prints (a) the
// paper's expected qualitative shape, (b) a table of measured values, and
// optionally CSV (--csv).
//
// `--jobs J` runs J simulations concurrently, each on one engine thread;
// outputs are byte-identical for any J. Modes follow the paper's notation: GP
// (trace-derived groups), GP1 (uncoordinated + logging), GP4 (ad-hoc 4
// sequential-rank groups), NORM (global coordinated).
#pragma once

#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/experiment.hpp"
#include "exp/scenario.hpp"
#include "group/formation.hpp"
#include "group/strategies.hpp"
#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace gcr::bench {

enum class Mode { kGp, kGp1, kGp4, kNorm };

inline const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kGp: return "GP";
    case Mode::kGp1: return "GP1";
    case Mode::kGp4: return "GP4";
    case Mode::kNorm: return "NORM";
  }
  return "?";
}

/// The paper's group formations. GP derives groups from a profiling trace
/// (Algorithm 2) with the given max group size (0 = default floor(sqrt n)).
inline group::GroupSet groups_for(Mode mode, int nranks,
                                  const exp::AppFactory& app,
                                  int gp_max_size = 0) {
  switch (mode) {
    case Mode::kGp: return exp::derive_groups(app, nranks, gp_max_size);
    case Mode::kGp1: return group::make_gp1(nranks);
    case Mode::kGp4: return group::make_sequential(nranks, 4);
    case Mode::kNorm: return group::make_norm(nranks);
  }
  return group::make_norm(nranks);
}

/// Thread-safe memoized `groups_for` for campaign jobs: GP's profiling run
/// is expensive and deterministic per (mode, nranks), so concurrent jobs
/// share one derivation — the first job to need a key computes it, later
/// ones wait on it, and distinct keys derive in parallel.
class GroupCache {
 public:
  explicit GroupCache(exp::AppFactory app, int gp_max_size = 0)
      : app_(std::move(app)), gp_max_size_(gp_max_size) {}

  const group::GroupSet& get(Mode mode, int nranks) {
    Entry* entry;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto& slot = entries_[{static_cast<int>(mode), nranks}];
      if (!slot) slot = std::make_unique<Entry>();
      entry = slot.get();
    }
    std::call_once(entry->once, [&] {
      entry->groups = groups_for(mode, nranks, app_, gp_max_size_);
    });
    return entry->groups;
  }

 private:
  struct Entry {
    std::once_flag once;
    group::GroupSet groups;
  };
  exp::AppFactory app_;
  int gp_max_size_;
  std::mutex mu_;
  std::map<std::pair<int, int>, std::unique_ptr<Entry>> entries_;
};

/// Sweep axis over the paper's modes (values are the Mode enum, so points
/// round-trip through `mode_at`).
inline exp::SweepAxis mode_axis(const std::vector<Mode>& modes) {
  exp::SweepAxis axis;
  axis.name = "mode";
  for (Mode m : modes) {
    axis.values.push_back(static_cast<double>(static_cast<int>(m)));
  }
  return axis;
}

inline Mode mode_at(const exp::SweepPoint& point) {
  return static_cast<Mode>(point.get_int("mode"));
}

/// Position of a mode within a mode axis (for CampaignResult cell lookups).
inline std::size_t mode_index(const std::vector<Mode>& modes, Mode m) {
  for (std::size_t i = 0; i < modes.size(); ++i) {
    if (modes[i] == m) return i;
  }
  GCR_CHECK_MSG(false, "mode not in this sweep");
  return 0;  // unreachable
}

/// Table cells from campaign aggregates. A cell whose every run tripped the
/// watchdog has no samples; printing its 0.0 default would be
/// indistinguishable from a real measurement, so render "n/a" instead.
inline std::string cell_mean(const RunningStats& s, int decimals) {
  return s.count() ? Table::num(s.mean(), decimals) : std::string("n/a");
}
inline std::string cell_min(const RunningStats& s, int decimals) {
  return s.count() ? Table::num(s.min(), decimals) : std::string("n/a");
}
inline std::string cell_max(const RunningStats& s, int decimals) {
  return s.count() ? Table::num(s.max(), decimals) : std::string("n/a");
}

/// Prints the table and optional CSV, with a header naming the experiment.
/// A positive `unfinished_runs` (from CampaignResult) adds a warning line:
/// those runs hit the watchdog and are NOT part of the averages.
inline void emit(const std::string& title, const Table& table, bool csv,
                 int unfinished_runs = 0) {
  std::printf("== %s ==\n", title.c_str());
  table.print(std::cout);
  if (csv) {
    std::printf("-- csv --\n");
    table.print_csv(std::cout);
  }
  if (unfinished_runs > 0) {
    std::printf(
        "WARNING: %d run(s) tripped the watchdog (finished == false) and "
        "are excluded from the averages above\n",
        unfinished_runs);
  }
  std::printf("\n");
}

}  // namespace gcr::bench
