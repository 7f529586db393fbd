// Message model for the MiniMPI runtime.
//
// Messages carry modeled sizes (bytes drive timing) plus bookkeeping the
// checkpoint protocols need: per-pair sequence numbers, cumulative volume
// (the paper's R/S accounting unit), incarnation stamps for dropping
// stale in-flight traffic across restarts, and an optional piggybacked RR
// value (Algorithm 1's garbage-collection hint). A deterministic checksum
// lets tests verify that replay reproduces the failure-free delivery
// sequence exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <type_traits>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace gcr::mpi {

using RankId = int;

/// Sent by the checkpoint driver ("mpirun") rather than a rank.
inline constexpr RankId kExternalSource = -1;

inline constexpr int kAnyTag = -1;

/// Control-plane message kinds (rank-to-rank / driver-to-rank), handled by
/// the protocol inside the delivery callback.
enum class CtrlKind : std::uint8_t {
  kNone = 0,
  // Group protocol checkpoint coordination:
  kCkptRequest,   ///< driver -> group leader: checkpoint this group
  kPrepare,       ///< leader -> member: report your iteration  [epoch]
  kPrepareReply,  ///< member -> leader: [epoch, iteration | -1 if finished]
  kCommit,        ///< leader -> member: checkpoint at iteration [epoch, iter]
  kAbort,         ///< member -> group: abandon epoch [epoch]
  kBookmark,      ///< member -> member: my S towards you [epoch, bytes]
  kBarrierAck,    ///< member -> leader [epoch, phase]
  kBarrierGo,     ///< leader -> member [epoch, phase]
  // Restart:
  kExchangeRequest,  ///< restarting -> peer: [my R from you, my S to you]
  kExchangeReply,    ///< peer -> restarting: [my R from you]
  // VCL protocol:
  kVclRequest,  ///< driver -> every rank: start a Chandy-Lamport round
  kVclMarker,   ///< rank -> rank: marker on the channel
};

/// Control-plane payload: at most kCapacity values, stored inline so a
/// control message allocates nothing. Call sites use it like a short vector
/// (`= {a, b}`, `.at(i)`, `.size()`); the capacity and every index are
/// GCR_CHECKed in all builds.
class CtrlData {
 public:
  /// The most any CtrlKind sends: an epoch plus one value.
  static constexpr std::size_t kCapacity = 2;

  CtrlData() = default;
  CtrlData(std::initializer_list<std::int64_t> values) {
    GCR_CHECK_MSG(values.size() <= kCapacity,
                  "control payload holds at most two values");
    for (std::int64_t v : values) values_[size_++] = v;
  }

  std::size_t size() const { return size_; }
  std::int64_t at(std::size_t i) const {
    GCR_CHECK_MSG(i < size_, "control payload index out of range");
    return values_[i];
  }

 private:
  std::int64_t values_[kCapacity] = {};
  std::uint8_t size_ = 0;
};

struct Message {
  RankId src = kExternalSource;
  RankId dst = 0;
  int tag = 0;
  std::int64_t bytes = 0;  ///< modeled payload size (drives all timing)

  // --- app-plane bookkeeping (unused for ctrl messages) ---
  std::uint64_t seq = 0;      ///< 1-based per (src,dst) app-message ordinal
  std::int64_t cum_bytes = 0; ///< cumulative src->dst volume incl. this msg
  std::uint64_t checksum = 0; ///< deterministic content hash for verification
  bool is_replay = false;     ///< resent from a sender-side message log
  std::int64_t piggyback_rr = -1;  ///< RR_p piggybacked value; -1 = none

  // --- incarnation stamps (stale in-flight traffic is dropped) ---
  std::uint32_t src_inc = 0;
  std::uint32_t dst_inc = 0;

  // --- control plane ---
  CtrlKind ctrl = CtrlKind::kNone;
  CtrlData ctrl_data;  ///< kind-specific payload

  bool is_ctrl() const { return ctrl != CtrlKind::kNone; }
};

// Every copy of a Message (into the delivery thunk, the pending buffer, the
// message log) is a flat memcpy: nothing a message carries owns heap memory.
static_assert(std::is_trivially_copyable_v<Message>,
              "mpi::Message must stay trivially copyable; keep payloads inline");

/// Deterministic checksum both endpoints can compute independently; replay
/// must deliver a message with exactly this value.
inline std::uint64_t message_checksum(RankId src, RankId dst,
                                      std::uint64_t seq) {
  return mix_seed(mix_seed(static_cast<std::uint64_t>(src) + 0x51ed2701,
                           static_cast<std::uint64_t>(dst) + 0x9d3fca11),
                  seq);
}

}  // namespace gcr::mpi
