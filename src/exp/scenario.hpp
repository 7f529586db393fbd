// Declarative experiment sweeps (DESIGN.md §12).
//
// A Scenario names a sweep grid — axes × seeds — and how one point of that
// grid becomes an ExperimentConfig and which metrics its result contributes.
// `expand()` flattens the grid into independent jobs (seed innermost) that
// the campaign runner (exp/campaign.hpp) executes on a worker pool and
// merges back in job-index order, so aggregates never depend on how many
// workers ran.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "exp/experiment.hpp"

namespace gcr::exp {

/// One sweep dimension: a name plus the values it takes. Values are doubles
/// (exact for the integer parameters the benches sweep, up to 2^53).
struct SweepAxis {
  std::string name;
  std::vector<double> values;

  static SweepAxis ints(std::string name,
                        const std::vector<std::int64_t>& values);
  static SweepAxis reals(std::string name, std::vector<double> values);
  /// 0..count-1 — for axes that index a caller-side table (workloads,
  /// schedules), so the axis can never drift from the table's size.
  static SweepAxis indices(std::string name, std::size_t count);
  /// Enumerators (fault or churn model, storage mode, topology, paper
  /// mode) stored as their integer values, so points round-trip through
  /// SweepPoint::get_enum. Shape parameters sweep as ordinary axes.
  template <typename E>
  static SweepAxis enums(std::string name, const std::vector<E>& values) {
    static_assert(std::is_enum_v<E>);
    SweepAxis axis;
    axis.name = std::move(name);
    for (E v : values) {
      axis.values.push_back(
          static_cast<double>(static_cast<std::underlying_type_t<E>>(v)));
    }
    return axis;
  }
};

/// One point of the expanded grid: a value per axis plus the seed.
struct SweepPoint {
  std::vector<std::pair<std::string, double>> values;  ///< axis order
  std::uint64_t seed = 1;
  std::size_t cell = 0;  ///< flat axis-combination index (seed excluded)
  std::size_t job = 0;   ///< flat job index: cell * reps + (seed - 1)

  /// Value of a named axis; aborts on an unknown name so a typo in a bench
  /// fails loudly instead of sweeping the wrong parameter.
  double get(const std::string& axis) const;
  std::int64_t get_int(const std::string& axis) const;
  /// Value of an axis built by SweepAxis::enums.
  template <typename E>
  E get_enum(const std::string& axis) const {
    return static_cast<E>(get_int(axis));
  }
};

/// What one job contributes to its cell's aggregates. The campaign runner
/// folds collectors cell-by-cell in job-index order, which keeps every
/// aggregate bit-identical for any worker count.
class Collector {
 public:
  /// Adds one sample of a named metric to the job's cell.
  void add(const std::string& metric, double value);

  /// Adds a preformatted text block (timelines, group listings); texts are
  /// surfaced per cell in job order.
  void add_text(std::string text);

  /// Runs one experiment with watchdog accounting: a run whose watchdog
  /// tripped (`finished == false`) is counted so the campaign can report it
  /// instead of silently averaging a truncated execution time. Job hooks
  /// should call this rather than run_experiment directly.
  ExperimentResult run(const ExperimentConfig& config);

  int runs = 0;        ///< experiments executed by this job
  int unfinished = 0;  ///< of those, watchdog-tripped ones
  std::vector<std::pair<std::string, double>> samples;
  std::vector<std::string> texts;
};

/// A declarative sweep: name, axes, repetitions, and the per-point hooks.
/// Exactly one of the two execution paths must be set:
///  * `config` (+ `collect`): the runner executes the built config once per
///    point; watchdog-tripped runs are counted and NOT passed to `collect`.
///  * `job`: full control for points that need several chained runs (e.g.
///    Figure 13's probe + fairness chain) or no run_experiment at all.
struct Scenario {
  std::string name;
  std::vector<SweepAxis> axes;
  int reps = 1;  ///< seeds 1..reps per cell

  std::function<ExperimentConfig(const SweepPoint&)> config;
  std::function<void(const SweepPoint&, const ExperimentResult&, Collector&)>
      collect;
  std::function<void(const SweepPoint&, Collector&)> job;

  std::size_t num_cells() const;
  std::size_t num_jobs() const;

  /// Flat cell index from per-axis value indices (row-major: axis 0
  /// outermost), matching the nested-loop order the benches print in.
  std::size_t cell_index(const std::vector<std::size_t>& value_index) const;

  /// Flattens the grid into jobs: cells in row-major axis order, seeds
  /// 1..reps innermost within each cell.
  std::vector<SweepPoint> expand() const;
};

}  // namespace gcr::exp
