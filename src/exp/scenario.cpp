#include "exp/scenario.hpp"

#include "util/assert.hpp"

namespace gcr::exp {

SweepAxis SweepAxis::ints(std::string name,
                          const std::vector<std::int64_t>& values) {
  SweepAxis axis;
  axis.name = std::move(name);
  axis.values.reserve(values.size());
  for (std::int64_t v : values) axis.values.push_back(static_cast<double>(v));
  return axis;
}

SweepAxis SweepAxis::reals(std::string name, std::vector<double> values) {
  return SweepAxis{std::move(name), std::move(values)};
}

SweepAxis SweepAxis::indices(std::string name, std::size_t count) {
  SweepAxis axis;
  axis.name = std::move(name);
  axis.values.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    axis.values.push_back(static_cast<double>(i));
  }
  return axis;
}

double SweepPoint::get(const std::string& axis) const {
  for (const auto& [name, value] : values) {
    if (name == axis) return value;
  }
  GCR_CHECK_MSG(false, ("unknown sweep axis: " + axis).c_str());
  return 0;  // unreachable
}

std::int64_t SweepPoint::get_int(const std::string& axis) const {
  return static_cast<std::int64_t>(get(axis));
}

void Collector::add(const std::string& metric, double value) {
  samples.emplace_back(metric, value);
}

void Collector::add_text(std::string text) {
  texts.push_back(std::move(text));
}

ExperimentResult Collector::run(const ExperimentConfig& config) {
  ExperimentResult result = run_experiment(config);
  ++runs;
  if (!result.finished) ++unfinished;
  return result;
}

std::size_t Scenario::num_cells() const {
  std::size_t n = 1;
  for (const SweepAxis& axis : axes) n *= axis.values.size();
  return n;
}

std::size_t Scenario::num_jobs() const {
  GCR_CHECK(reps >= 1);
  return num_cells() * static_cast<std::size_t>(reps);
}

std::size_t Scenario::cell_index(
    const std::vector<std::size_t>& value_index) const {
  GCR_CHECK(value_index.size() == axes.size());
  std::size_t cell = 0;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    GCR_CHECK(value_index[a] < axes[a].values.size());
    cell = cell * axes[a].values.size() + value_index[a];
  }
  return cell;
}

std::vector<SweepPoint> Scenario::expand() const {
  GCR_CHECK(reps >= 1);
  std::vector<SweepPoint> jobs;
  jobs.reserve(num_jobs());
  std::vector<std::size_t> idx(axes.size(), 0);
  for (std::size_t cell = 0; cell < num_cells(); ++cell) {
    SweepPoint base;
    base.cell = cell;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      base.values.emplace_back(axes[a].name, axes[a].values[idx[a]]);
    }
    for (int rep = 1; rep <= reps; ++rep) {
      SweepPoint point = base;
      point.seed = static_cast<std::uint64_t>(rep);
      point.job = jobs.size();
      jobs.push_back(std::move(point));
    }
    // Row-major increment: last axis fastest.
    for (std::size_t a = axes.size(); a-- > 0;) {
      if (++idx[a] < axes[a].values.size()) break;
      idx[a] = 0;
    }
  }
  return jobs;
}

}  // namespace gcr::exp
