#include "sim/storage.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace gcr::sim {
namespace {

/// Completion threshold in bytes. Timer timestamps are integer nanoseconds,
/// so a settled `remaining` can carry sub-byte floating-point residue from
/// the rounded firing time; anything below half a byte is done. A residue
/// above the threshold (timer rounded short) re-arms a 1 ns timer — bounded
/// and deterministic.
constexpr double kDoneEps = 0.5;

}  // namespace

StorageDevice::StorageDevice(Engine& engine, const StorageParams& params)
    : engine_(&engine), params_(params), slot_(engine, params.concurrency) {
  GCR_CHECK_MSG(params_.bandwidth_Bps > 0, "storage bandwidth must be > 0");
  GCR_CHECK_MSG(params_.concurrency >= 1, "storage concurrency must be >= 1");
}

Co<void> StorageDevice::transfer(std::int64_t bytes, bool is_write) {
  GCR_CHECK(bytes >= 0);
  co_await slot_.acquire();
  ScopedPermit permit(slot_);
  ++in_flight_;
  peak_in_flight_ = std::max(peak_in_flight_, in_flight_);
  struct FlightGuard {
    int* counter;
    ~FlightGuard() { --*counter; }
  } flight{&in_flight_};
  // Per-request setup is serial work on the requester's side of the pipe;
  // only the byte stream itself is shared.
  co_await delay(*engine_, from_seconds(params_.latency_s));
  co_await shared_transfer(bytes);
  if (is_write) {
    bytes_written_ += bytes;
  } else {
    bytes_read_ += bytes;
  }
}

Co<void> StorageDevice::shared_transfer(std::int64_t bytes) {
  Trigger done(*engine_);
  settle();
  complete_ready();
  const std::uint64_t id = next_xfer_id_++;
  active_.push_back({id, static_cast<double>(bytes), &done});
  ++resched_gen_;
  reschedule();
  ShareGuard guard{this, id};
  co_await done.wait();
}

void StorageDevice::settle() {
  const Time now = engine_->now();
  if (!active_.empty() && now > last_settle_) {
    const double moved = to_seconds(now - last_settle_) * params_.bandwidth_Bps /
                         static_cast<double>(active_.size());
    for (Active& a : active_) a.remaining -= moved;
  }
  last_settle_ = now;
}

void StorageDevice::complete_ready() {
  for (std::size_t i = 0; i < active_.size();) {
    if (active_[i].remaining <= kDoneEps) {
      Trigger* done = active_[i].done;
      active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
      done->fire();
    } else {
      ++i;
    }
  }
}

void StorageDevice::reschedule() {
  if (active_.empty()) return;
  double min_remaining = active_.front().remaining;
  for (const Active& a : active_) {
    min_remaining = std::min(min_remaining, a.remaining);
  }
  const double rate =
      params_.bandwidth_Bps / static_cast<double>(active_.size());
  const Time dt =
      std::max<Time>(1, from_seconds(std::max(0.0, min_remaining) / rate));
  engine_->call_at(engine_->now() + dt, [this, gen = resched_gen_] {
    if (gen == resched_gen_) on_timer();
  });
}

void StorageDevice::on_timer() {
  settle();
  complete_ready();
  ++resched_gen_;
  reschedule();
}

void StorageDevice::abandon(std::uint64_t id) {
  auto it = std::find_if(active_.begin(), active_.end(),
                         [id](const Active& a) { return a.id == id; });
  if (it == active_.end()) return;  // completed normally
  settle();
  active_.erase(it);
  complete_ready();  // survivors may round down to done at the new rate
  ++resched_gen_;
  reschedule();
}

}  // namespace gcr::sim
