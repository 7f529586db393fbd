#include "apps/simple.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace gcr::apps {
namespace {

constexpr int kTagRing = 40;
constexpr int kTagHalo = 41;
constexpr int kTagPair = 42;

sim::Co<void> ring_body(std::shared_ptr<RingParams> p, int nranks,
                        mpi::AppHandle h) {
  const mpi::RankId next = (h.id() + 1) % nranks;
  const mpi::RankId prev = (h.id() + nranks - 1) % nranks;
  for (std::uint64_t it = h.start_iteration(); it < p->iterations; ++it) {
    co_await h.safepoint(it);
    if (nranks > 1) {
      (void)co_await h.sendrecv(next, kTagRing, p->bytes, prev, kTagRing);
    }
    co_await h.compute(p->compute_s);
  }
  co_await h.safepoint(p->iterations);
}

sim::Co<void> stencil_body(std::shared_ptr<Stencil1dParams> p, int nranks,
                           mpi::AppHandle h) {
  const int width = p->cluster_width > 0 ? p->cluster_width : nranks;
  const int block = h.id() / width;
  const int lo = block * width;
  const int hi = std::min(nranks, lo + width) - 1;
  const bool has_left = h.id() > lo;
  const bool has_right = h.id() < hi;
  for (std::uint64_t it = h.start_iteration(); it < p->iterations; ++it) {
    co_await h.safepoint(it);
    // Left-to-right then right-to-left half-exchanges keep per-pair FIFO
    // order identical on both sides without needing sendrecv.
    if (has_right) co_await h.send(h.id() + 1, kTagHalo, p->halo_bytes);
    if (has_left) {
      (void)co_await h.recv(h.id() - 1, kTagHalo);
      co_await h.send(h.id() - 1, kTagHalo, p->halo_bytes);
    }
    if (has_right) (void)co_await h.recv(h.id() + 1, kTagHalo);
    co_await h.compute(p->compute_s);
  }
  co_await h.safepoint(p->iterations);
}

sim::Co<void> pairs_body(std::shared_ptr<RandomPairsParams> p, int nranks,
                         mpi::AppHandle h) {
  for (std::uint64_t it = h.start_iteration(); it < p->iterations; ++it) {
    co_await h.safepoint(it);
    // All ranks compute the same deterministic pairing for this iteration.
    gcr::Rng rng(gcr::mix_seed(p->seed, it));
    std::vector<int> perm(static_cast<std::size_t>(nranks));
    for (int i = 0; i < nranks; ++i) perm[static_cast<std::size_t>(i)] = i;
    for (int i = nranks - 1; i > 0; --i) {
      const int j = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(i) + 1));
      std::swap(perm[static_cast<std::size_t>(i)],
                perm[static_cast<std::size_t>(j)]);
    }
    // perm[2k] <-> perm[2k+1] exchange; odd rank count leaves one idle.
    mpi::RankId partner = h.id();
    for (int k = 0; k + 1 < nranks; k += 2) {
      if (perm[static_cast<std::size_t>(k)] == h.id()) {
        partner = perm[static_cast<std::size_t>(k + 1)];
      } else if (perm[static_cast<std::size_t>(k + 1)] == h.id()) {
        partner = perm[static_cast<std::size_t>(k)];
      }
    }
    if (partner != h.id()) {
      (void)co_await h.sendrecv(partner, kTagPair, p->bytes, partner,
                                kTagPair);
    }
    co_await h.compute(p->compute_s);
  }
  co_await h.safepoint(p->iterations);
}

}  // namespace

AppSpec make_ring(int nranks, const RingParams& params) {
  auto p = std::make_shared<RingParams>(params);
  AppSpec spec;
  spec.name = "ring";
  const std::int64_t mem = params.mem_bytes;
  spec.image_bytes = [mem](mpi::RankId) { return mem; };
  spec.body = [p, nranks](mpi::AppHandle h) { return ring_body(p, nranks, h); };
  return spec;
}

AppSpec make_stencil1d(int nranks, const Stencil1dParams& params) {
  auto p = std::make_shared<Stencil1dParams>(params);
  AppSpec spec;
  spec.name = "stencil1d";
  const std::int64_t mem = params.mem_bytes;
  spec.image_bytes = [mem](mpi::RankId) { return mem; };
  spec.body = [p, nranks](mpi::AppHandle h) {
    return stencil_body(p, nranks, h);
  };
  return spec;
}

AppSpec make_random_pairs(int nranks, const RandomPairsParams& params) {
  auto p = std::make_shared<RandomPairsParams>(params);
  AppSpec spec;
  spec.name = "random_pairs";
  const std::int64_t mem = params.mem_bytes;
  spec.image_bytes = [mem](mpi::RankId) { return mem; };
  spec.body = [p, nranks](mpi::AppHandle h) {
    return pairs_body(p, nranks, h);
  };
  return spec;
}

}  // namespace gcr::apps
