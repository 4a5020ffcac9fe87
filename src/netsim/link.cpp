#include "netsim/link.hpp"

#include <algorithm>
#include <utility>

namespace idseval::netsim {

Link::Link(Simulator& sim, std::string name, double bandwidth_bps,
           SimTime latency, std::size_t queue_capacity_packets)
    : sim_(sim),
      name_(std::move(name)),
      bandwidth_bps_(bandwidth_bps),
      latency_(latency),
      queue_capacity_(queue_capacity_packets) {}

SimTime Link::serialization_delay(std::uint32_t bytes) const noexcept {
  if (bandwidth_bps_ <= 0.0) return SimTime::zero();
  const double seconds = static_cast<double>(bytes) * 8.0 / bandwidth_bps_;
  return SimTime::from_sec(seconds);
}

void Link::release_elapsed_slots() noexcept {
  const SimTime now = sim_.now();
  while (!slot_release_.empty() && slot_release_.front() <= now) {
    slot_release_.pop_front();
    --queued_;
  }
}

std::size_t Link::queue_depth() const noexcept {
  const SimTime now = sim_.now();
  std::size_t released = 0;
  for (const SimTime t : slot_release_) {
    if (t > now) break;
    ++released;
  }
  return queued_ - released;
}

bool Link::send(const Packet& packet) {
  ++stats_.offered_packets;
  stats_.offered_bytes += packet.wire_bytes();

  release_elapsed_slots();
  if (queued_ >= queue_capacity_) {
    ++stats_.dropped_packets;
    return false;
  }
  ++queued_;

  // The transmitter serializes packets back to back; a packet begins
  // serialization when the line frees up, then propagates for latency_.
  const SimTime start = std::max(sim_.now(), busy_until_);
  const SimTime tx_done = start + serialization_delay(packet.wire_bytes());
  busy_until_ = tx_done;
  const SimTime arrival = tx_done + latency_;

  // The slot frees when serialization finishes (propagation does not hold
  // buffer space). No event is scheduled for it: the tx-done time queues
  // here and drains at the next depth observation.
  slot_release_.push_back(tx_done);

  // FIFO serialization + constant latency make arrivals monotone, so a
  // same-tick arrival always lands in the newest group and rides its
  // already-scheduled delivery event.
  in_flight_.push_back(packet);
  if (coalesce_ && !groups_.empty() && groups_.back().when == arrival) {
    ++groups_.back().count;
  } else {
    groups_.push_back({arrival, 1});
    sim_.schedule_at_lane(arrival, lane_, [this] { deliver_group(); });
  }
  return true;
}

void Link::deliver_group() {
  release_elapsed_slots();
  const DeliveryGroup group = groups_.front();
  groups_.pop_front();
  stats_.delivered_packets += group.count;
  if (group.count == 1) {
    // Move out before delivering: the deliver callback may re-enter
    // send() on this link and grow in_flight_.
    Packet p = std::move(in_flight_.front());
    in_flight_.pop_front();
    stats_.delivered_bytes += p.wire_bytes();
    if (deliver_batch_) {
      deliver_batch_(&p, 1);
    } else if (deliver_) {
      deliver_(p);
    }
    return;
  }

  batch_scratch_.clear();
  std::uint64_t bytes = 0;
  for (std::uint32_t i = 0; i < group.count; ++i) {
    bytes += in_flight_.front().wire_bytes();
    batch_scratch_.push_back(std::move(in_flight_.front()));
    in_flight_.pop_front();
  }
  stats_.delivered_bytes += bytes;
  if (deliver_batch_) {
    deliver_batch_(batch_scratch_.data(), batch_scratch_.size());
  } else if (deliver_) {
    for (const Packet& p : batch_scratch_) deliver_(p);
  }
  batch_scratch_.clear();  // drop payload references promptly
}

}  // namespace idseval::netsim
