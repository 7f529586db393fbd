#include "apps/service.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace gcr::apps {
namespace {

constexpr int kTagPeer = 50;
constexpr int kTagCross = 51;
constexpr double kNotDone = -1.0;

constexpr std::int64_t kRequestBytes = 4096;  ///< peer-consult payload
/// Every k-th request consults a peer replica...
constexpr std::uint64_t kPartnerEvery = 4;
/// ...and, outside those, every k-th a remote partition.
constexpr std::uint64_t kCrossEvery = 16;

/// Shared across all rank bodies of one experiment. Arrival times are
/// precomputed at spec construction, so the request schedule is a function
/// of (seed, nranks) alone — faults, churn and restarts cannot perturb it
/// (that is what makes the stream open-loop). Completion slots are
/// preallocated per rank.
struct ServiceState {
  ServiceParams p;
  std::vector<std::vector<double>> arrival;   ///< [rank][request] seconds
  std::vector<std::vector<double>> done;      ///< [rank][request] seconds
};

sim::Co<void> service_body(std::shared_ptr<ServiceState> s, int nranks,
                           mpi::AppHandle h) {
  const ServiceParams& p = s->p;
  const int width =
      p.cluster_width > 0 ? std::min(p.cluster_width, nranks) : nranks;
  const int lo = (h.id() / width) * width;
  const int bs = std::min(nranks, lo + width) - lo;
  const mpi::RankId peer_next = lo + (h.id() - lo + 1) % bs;
  const mpi::RankId peer_prev = lo + (h.id() - lo + bs - 1) % bs;
  const mpi::RankId cross_next = (h.id() + width) % nranks;
  const mpi::RankId cross_prev = (h.id() + nranks - width) % nranks;
  auto& arrival = s->arrival[static_cast<std::size_t>(h.id())];
  auto& done = s->done[static_cast<std::size_t>(h.id())];
  for (std::uint64_t it = h.start_iteration(); it < p.requests; ++it) {
    co_await h.safepoint(it);
    // Open-loop admission: sleep until the scheduled arrival. After a
    // restart the clock is usually past the arrival already — the backlog
    // is served immediately, back to back.
    const double wait = arrival[static_cast<std::size_t>(it)] - h.now_s();
    if (wait > 0) co_await h.compute(wait);
    // Fan-out: periodic peer-replica consult inside the block, rarer
    // cross-partition consult. Every rank runs the same request index, so
    // the shifted-ring exchanges pair up deterministically.
    if (bs > 1 && it % kPartnerEvery == 0) {
      (void)co_await h.sendrecv(peer_next, kTagPeer, kRequestBytes, peer_prev,
                                kTagPeer);
    } else if (width < nranks && it % kCrossEvery == 0) {
      (void)co_await h.sendrecv(cross_next, kTagCross, kRequestBytes,
                                cross_prev, kTagCross);
    }
    co_await h.compute(p.service_s);
    // Re-execution after a restore overwrites the earlier completion: the
    // request is charged for the outage it actually sat through.
    done[static_cast<std::size_t>(it)] = h.now_s();
  }
  co_await h.safepoint(p.requests);
}

ServiceStats snapshot_stats(const ServiceState& s) {
  ServiceStats st;
  std::vector<double> latencies;
  for (std::size_t r = 0; r < s.done.size(); ++r) {
    for (std::size_t i = 0; i < s.done[r].size(); ++i) {
      ++st.requests;
      const double d = s.done[r][i];
      if (d == kNotDone) continue;
      ++st.completed;
      const double lat = d - s.arrival[r][i];
      latencies.push_back(lat);
      if (lat > s.p.slo_s) ++st.slo_misses;
    }
  }
  if (st.requests > 0) {
    st.slo_miss_rate =
        static_cast<double>(st.slo_misses + (st.requests - st.completed)) /
        static_cast<double>(st.requests);
  }
  if (latencies.empty()) return st;
  std::sort(latencies.begin(), latencies.end());
  double sum = 0;
  for (double l : latencies) sum += l;
  st.mean_latency_s = sum / static_cast<double>(latencies.size());
  st.max_latency_s = latencies.back();
  // Nearest-rank quantiles: ceil(q*n) - 1, clamped.
  const auto at = [&](double q) {
    const auto n = static_cast<double>(latencies.size());
    const auto idx = static_cast<std::size_t>(
        std::min(n - 1.0, std::max(0.0, std::ceil(q * n) - 1.0)));
    return latencies[idx];
  };
  st.p50_latency_s = at(0.50);
  st.p99_latency_s = at(0.99);
  st.p999_latency_s = at(0.999);
  return st;
}

}  // namespace

AppSpec make_service(int nranks, const ServiceParams& params) {
  GCR_CHECK(nranks > 0);
  GCR_CHECK_MSG(params.arrival_rate_hz > 0,
                "service: arrival_rate_hz must be positive");
  GCR_CHECK_MSG(params.service_s >= 0, "service: service_s must be >= 0");
  GCR_CHECK_MSG(params.slo_s > 0, "service: slo_s must be positive");
  auto state = std::make_shared<ServiceState>();
  state->p = params;
  state->arrival.resize(static_cast<std::size_t>(nranks));
  state->done.resize(static_cast<std::size_t>(nranks));
  const double mean_gap = 1.0 / params.arrival_rate_hz;
  for (int r = 0; r < nranks; ++r) {
    auto& arr = state->arrival[static_cast<std::size_t>(r)];
    arr.reserve(params.requests);
    Rng rng(mix_seed(params.seed, 0x5E21C0DEull + static_cast<std::uint64_t>(r)));
    double t = 0;
    for (std::uint64_t i = 0; i < params.requests; ++i) {
      t += rng.next_exponential(mean_gap);
      arr.push_back(t);
    }
    state->done[static_cast<std::size_t>(r)].assign(params.requests, kNotDone);
  }
  AppSpec spec;
  spec.name = "service";
  const std::int64_t mem = params.mem_bytes;
  spec.image_bytes = [mem](mpi::RankId) { return mem; };
  spec.body = [state, nranks](mpi::AppHandle h) {
    return service_body(state, nranks, h);
  };
  spec.service_stats = [state] { return snapshot_stats(*state); };
  return spec;
}

}  // namespace gcr::apps
