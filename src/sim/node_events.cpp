#include "sim/node_events.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <queue>
#include <sstream>
#include <utility>

#include "util/assert.hpp"

namespace gcr::sim {
namespace {

/// Min-heap ordering by (time, node, kind): node and kind break time ties
/// so the event order is independent of heap internals. Faults all share
/// one kind, so they order by (time, node). A node's departure and its own
/// rejoin can never tie (outage_s > 0 is enforced); kind orders the rest,
/// e.g. two overlapping arrivals on one node.
struct LaterEvent {
  bool operator()(const NodeEvent& a, const NodeEvent& b) const {
    if (a.at_s != b.at_s) return a.at_s > b.at_s;
    if (a.node != b.node) return a.node > b.node;
    return a.kind > b.kind;
  }
};

using EventHeap =
    std::priority_queue<NodeEvent, std::vector<NodeEvent>, LaterEvent>;

/// Independent per-node renewal processes; Weibull inter-arrivals with
/// shape 1 degenerate to exponential. The scale is derived so `mtbf_s` is
/// the actual mean inter-arrival: scale = mtbf / Gamma(1 + 1/shape).
class RenewalModel : public NodeEventModel {
 public:
  RenewalModel(double mtbf_s, double shape) : shape_(shape) {
    GCR_CHECK_MSG(mtbf_s > 0, "fault model: mtbf_s must be positive");
    GCR_CHECK_MSG(shape > 0, "fault model: weibull_shape must be positive");
    scale_ = mtbf_s / std::tgamma(1.0 + 1.0 / shape);
  }

  void bind(int num_nodes,
            const std::function<Rng(std::uint64_t)>& rng_for) override {
    GCR_CHECK(num_nodes > 0 && rngs_.empty());
    rngs_.reserve(static_cast<std::size_t>(num_nodes));
    for (int n = 0; n < num_nodes; ++n) {
      rngs_.push_back(rng_for(static_cast<std::uint64_t>(n)));
      heap_.push({draw_wait(rngs_.back()), n});
    }
  }

  std::optional<NodeEvent> next() override {
    GCR_CHECK_MSG(!rngs_.empty(), "NodeEventModel::bind was never called");
    NodeEvent ev = heap_.top();
    heap_.pop();
    Rng& rng = rngs_[static_cast<std::size_t>(ev.node)];
    heap_.push({ev.at_s + draw_wait(rng), ev.node});
    return ev;
  }

 private:
  double draw_wait(Rng& rng) {
    // Weibull inverse CDF: scale * (-ln U)^(1/shape). With shape == 1 this
    // is exactly Rng::next_exponential's formula, so the exponential model
    // shares the code path bit-for-bit.
    double u = rng.next_double();
    if (u <= 0.0) u = 0x1.0p-53;
    return scale_ * std::pow(-std::log(u), 1.0 / shape_);
  }

  double shape_;
  double scale_;
  std::vector<Rng> rngs_;
  EventHeap heap_;
};

/// Cluster-wide Poisson arrivals on one shared stream (id num_nodes), so
/// the history is a function of the seed alone. Each arrival expands into
/// node events at or after its own instant: a burst of adjacent faults, or
/// a departure with its rejoin. Arrivals may target a node that is still
/// down from an earlier event; the recovery layer absorbs those.
class PoissonModel : public NodeEventModel {
 public:
  /// Pushes the events of one arrival at `at_s` onto `out`, drawing from
  /// `rng`; every event lies at or after `at_s`.
  using Expand =
      std::function<void(double at_s, int num_nodes, Rng& rng, EventHeap& out)>;

  PoissonModel(double mean_gap_s, Expand expand)
      : mean_gap_s_(mean_gap_s), expand_(std::move(expand)) {}

  void bind(int num_nodes,
            const std::function<Rng(std::uint64_t)>& rng_for) override {
    GCR_CHECK(num_nodes > 0 && num_nodes_ == 0);
    num_nodes_ = num_nodes;
    rng_ = rng_for(static_cast<std::uint64_t>(num_nodes));
    next_arrival_at_ = rng_.next_exponential(mean_gap_s_);
  }

  std::optional<NodeEvent> next() override {
    GCR_CHECK_MSG(num_nodes_ > 0, "NodeEventModel::bind was never called");
    // An arrival at time T only produces events at >= T, so the buffer head
    // is final once the next arrival lies beyond it.
    while (buffer_.empty() || next_arrival_at_ <= buffer_.top().at_s) {
      expand_(next_arrival_at_, num_nodes_, rng_, buffer_);
      next_arrival_at_ += rng_.next_exponential(mean_gap_s_);
    }
    NodeEvent ev = buffer_.top();
    buffer_.pop();
    return ev;
  }

 private:
  double mean_gap_s_;
  Expand expand_;
  int num_nodes_ = 0;
  Rng rng_{0};
  double next_arrival_at_ = 0;
  EventHeap buffer_;
};

/// A burst picks a uniform origin node and a uniform size in 1..max_nodes
/// and takes down the run of adjacent nodes [origin, origin+size) (clamped
/// at the machine edge), spread over spread_s. The origin dies at the burst
/// instant; companions follow at uniform offsets within the window, so
/// recoveries genuinely overlap.
PoissonModel::Expand burst(int max_nodes, double spread_s) {
  return [max_nodes, spread_s](double at_s, int num_nodes, Rng& rng,
                               EventHeap& out) {
    const int origin = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(num_nodes)));
    const int size = static_cast<int>(
        1 + rng.next_below(static_cast<std::uint64_t>(max_nodes)));
    for (int i = 0; i < size && origin + i < num_nodes; ++i) {
      const double offset = i == 0 ? 0.0 : rng.next_double() * spread_s;
      out.push({at_s + offset, origin + i});
    }
  };
}

/// A departure of a uniform node — a drain, or with `spot` a reclaim that
/// kills the node warning_s later — and its rejoin outage_s after the node
/// went down.
PoissonModel::Expand departure(bool spot, double outage_s, double warning_s) {
  return [spot, outage_s, warning_s](double at_s, int num_nodes, Rng& rng,
                                     EventHeap& out) {
    const int node = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(num_nodes)));
    const double down_at = spot ? at_s + warning_s : at_s;
    out.push({at_s, node,
              spot ? NodeEventKind::kReclaim : NodeEventKind::kDrain,
              spot ? warning_s : 0.0});
    out.push({down_at + outage_s, node, NodeEventKind::kJoin, 0.0});
  };
}

/// Rolling upgrade: node i drains at start + i*step and rejoins outage_s
/// later — one deterministic sweep visiting every node exactly once. With
/// step > outage at most one node is out at a time (the classic rolling
/// restart); smaller steps model aggressive rollouts with overlapping
/// outages.
class RollingModel : public NodeEventModel {
 public:
  RollingModel(double start_s, double step_s, double outage_s)
      : start_s_(start_s), step_s_(step_s), outage_s_(outage_s) {
    GCR_CHECK_MSG(start_s >= 0, "churn model: rolling_start_s must be >= 0");
    GCR_CHECK_MSG(step_s > 0, "churn model: rolling_step_s must be positive");
    GCR_CHECK_MSG(outage_s > 0, "churn model: outage_s must be positive");
  }

  void bind(int num_nodes,
            const std::function<Rng(std::uint64_t)>& rng_for) override {
    (void)rng_for;  // the sweep is deterministic by construction
    GCR_CHECK(num_nodes > 0 && heap_.empty());
    for (int n = 0; n < num_nodes; ++n) {
      const double drain_at = start_s_ + n * step_s_;
      heap_.push({drain_at, n, NodeEventKind::kDrain, 0.0});
      heap_.push({drain_at + outage_s_, n, NodeEventKind::kJoin, 0.0});
    }
  }

  std::optional<NodeEvent> next() override {
    if (heap_.empty()) return std::nullopt;
    NodeEvent ev = heap_.top();
    heap_.pop();
    return ev;
  }

 private:
  double start_s_;
  double step_s_;
  double outage_s_;
  EventHeap heap_;
};

/// Replays an explicit schedule, stably sorted by time. Events targeting
/// nodes outside the bound machine are dropped at bind (a trace from a
/// bigger cluster shrinks).
class ReplayModel : public NodeEventModel {
 public:
  explicit ReplayModel(std::vector<NodeEvent> schedule)
      : schedule_(std::move(schedule)) {
    std::stable_sort(schedule_.begin(), schedule_.end(),
                     [](const NodeEvent& a, const NodeEvent& b) {
                       return a.at_s < b.at_s;
                     });
  }

  void bind(int num_nodes,
            const std::function<Rng(std::uint64_t)>& rng_for) override {
    (void)rng_for;  // replay is deterministic by construction
    GCR_CHECK(num_nodes > 0);
    std::erase_if(schedule_, [num_nodes](const NodeEvent& ev) {
      return ev.node < 0 || ev.node >= num_nodes;
    });
  }

  std::optional<NodeEvent> next() override {
    if (pos_ >= schedule_.size()) return std::nullopt;
    return schedule_[pos_++];
  }

 private:
  std::vector<NodeEvent> schedule_;
  std::size_t pos_ = 0;
};

/// A ReplayModel of `schedule`, which must be non-empty and hold only
/// faults without a warning (`faults`) or only churn events (otherwise).
std::unique_ptr<NodeEventModel> make_replay(std::vector<NodeEvent> schedule,
                                            bool faults) {
  GCR_CHECK_MSG(!schedule.empty(),
                faults ? "fault model: trace schedule is empty (no schedule "
                         "given and no trace_path set?)"
                       : "churn model: trace schedule is empty");
  for (const NodeEvent& ev : schedule) {
    const bool fault = ev.kind == NodeEventKind::kFault;
    GCR_CHECK_MSG(fault == faults && (!fault || ev.warning_s == 0),
                  faults ? "fault model: trace schedule holds a churn event "
                           "or a warning"
                         : "churn model: trace schedule holds a fault event");
  }
  return std::make_unique<ReplayModel>(std::move(schedule));
}

std::vector<NodeEvent> load_fault_trace(const std::string& path) {
  std::ifstream in(path);
  GCR_CHECK_MSG(in.good(), ("cannot open fault trace: " + path).c_str());
  return parse_fault_trace(in);
}

}  // namespace

const char* fault_model_name(FaultModelKind kind) {
  switch (kind) {
    case FaultModelKind::kNone: return "none";
    case FaultModelKind::kExponential: return "exp";
    case FaultModelKind::kWeibull: return "weibull";
    case FaultModelKind::kBurst: return "burst";
    case FaultModelKind::kTrace: return "trace";
  }
  return "?";
}

std::unique_ptr<NodeEventModel> make_fault_model(
    const FaultModelParams& params) {
  switch (params.kind) {
    case FaultModelKind::kNone:
      return nullptr;
    case FaultModelKind::kExponential:
      return std::make_unique<RenewalModel>(params.mtbf_s, 1.0);
    case FaultModelKind::kWeibull:
      return std::make_unique<RenewalModel>(params.mtbf_s,
                                            params.weibull_shape);
    case FaultModelKind::kBurst:
      GCR_CHECK_MSG(params.burst_mtbf_s > 0,
                    "fault model: burst_mtbf_s must be positive");
      GCR_CHECK_MSG(params.burst_max_nodes >= 1,
                    "fault model: burst_max_nodes must be >= 1");
      GCR_CHECK_MSG(params.burst_spread_s >= 0,
                    "fault model: burst_spread_s must be >= 0");
      return std::make_unique<PoissonModel>(
          params.burst_mtbf_s,
          burst(params.burst_max_nodes, params.burst_spread_s));
    case FaultModelKind::kTrace:
      return make_replay(!params.schedule.empty()
                             ? params.schedule
                             : load_fault_trace(params.trace_path),
                         /*faults=*/true);
  }
  GCR_CHECK_MSG(false, "unknown fault model kind");
  return nullptr;  // unreachable
}

std::vector<NodeEvent> parse_fault_trace(std::istream& in) {
  std::vector<NodeEvent> events;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::istringstream fields(line);
    NodeEvent ev;
    std::string trailing;
    // Anything non-blank must parse fully: a typo'd line silently dropped
    // would make the experiment run a different fault history than the
    // file says.
    const bool ok = static_cast<bool>(fields >> ev.at_s >> ev.node) &&
                    !(fields >> trailing) && ev.at_s >= 0;
    if (!ok) {
      GCR_CHECK_MSG(false, ("fault trace line " + std::to_string(lineno) +
                            ": expected \"time_s node\"")
                               .c_str());
    }
    events.push_back(ev);
  }
  return events;
}

const char* churn_model_name(ChurnModelKind kind) {
  switch (kind) {
    case ChurnModelKind::kNone: return "none";
    case ChurnModelKind::kDrains: return "drains";
    case ChurnModelKind::kSpot: return "spot";
    case ChurnModelKind::kRolling: return "rolling";
    case ChurnModelKind::kTrace: return "trace";
  }
  return "?";
}

std::unique_ptr<NodeEventModel> make_churn_model(
    const ChurnModelParams& params) {
  switch (params.kind) {
    case ChurnModelKind::kNone:
      return nullptr;
    case ChurnModelKind::kDrains:
    case ChurnModelKind::kSpot: {
      const bool spot = params.kind == ChurnModelKind::kSpot;
      GCR_CHECK_MSG(params.drain_mtbd_s > 0,
                    "churn model: drain_mtbd_s must be positive");
      GCR_CHECK_MSG(params.outage_s > 0,
                    "churn model: outage_s must be positive");
      GCR_CHECK_MSG(!spot || params.warning_s >= 0,
                    "churn model: warning_s must be >= 0");
      return std::make_unique<PoissonModel>(
          params.drain_mtbd_s,
          departure(spot, params.outage_s, params.warning_s));
    }
    case ChurnModelKind::kRolling:
      return std::make_unique<RollingModel>(
          params.rolling_start_s, params.rolling_step_s, params.outage_s);
    case ChurnModelKind::kTrace:
      return make_replay(params.schedule, /*faults=*/false);
  }
  GCR_CHECK_MSG(false, "unknown churn model kind");
  return nullptr;  // unreachable
}

}  // namespace gcr::sim
