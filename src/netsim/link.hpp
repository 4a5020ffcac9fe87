// Point-to-point link with finite bandwidth, propagation latency, and a
// bounded FIFO queue with tail drop. Links are where the performance
// metrics become observable: induced latency, loss under load, and the
// saturation behaviour behind "maximal throughput with zero loss" and
// "network lethal dose" (Table 3).
//
// Delivery is batched: packets whose last bit arrives at the far end on
// the same simulation tick form one DeliveryGroup and are delivered by a
// single scheduled event (the FIFO transmitter makes arrival times
// monotone, so a group is always a contiguous run of the in-flight
// queue). Queue-slot release is lazy — tx-done times drain whenever the
// depth is next observed — so a packet costs one scheduled event, not
// three.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "netsim/packet.hpp"
#include "netsim/simulator.hpp"

namespace idseval::netsim {

struct LinkStats {
  std::uint64_t offered_packets = 0;
  std::uint64_t delivered_packets = 0;
  std::uint64_t dropped_packets = 0;
  std::uint64_t offered_bytes = 0;
  std::uint64_t delivered_bytes = 0;

  double drop_ratio() const noexcept {
    return offered_packets == 0
               ? 0.0
               : static_cast<double>(dropped_packets) /
                     static_cast<double>(offered_packets);
  }
};

/// Unidirectional link. `deliver` is invoked in simulation time when the
/// packet's last bit arrives at the far end.
class Link {
 public:
  using DeliverFn = std::function<void(const Packet&)>;
  /// Batch delivery: a contiguous run of packets that all arrived on the
  /// same tick, in FIFO order. Preferred over DeliverFn when both are
  /// set; single-packet arrivals come through with count == 1.
  using DeliverBatchFn = std::function<void(const Packet*, std::size_t)>;

  Link(Simulator& sim, std::string name, double bandwidth_bps,
       SimTime latency, std::size_t queue_capacity_packets);

  /// Offers a packet to the link; returns false when the queue tail-drops.
  bool send(const Packet& packet);

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
  void set_deliver_batch(DeliverBatchFn fn) {
    deliver_batch_ = std::move(fn);
  }

  /// When disabled, every packet gets its own delivery group and event
  /// even at identical arrival ticks — the single-packet reference path
  /// that batch-equivalence tests and benches compare against.
  void set_coalescing(bool enabled) noexcept { coalesce_ = enabled; }
  bool coalescing() const noexcept { return coalesce_; }

  /// Delivery-event lane (see Simulator::schedule_at_lane). Networks
  /// assign each link a unique lane in attach order so same-tick
  /// deliveries on different links fire in a canonical order.
  void set_lane(std::uint32_t lane) noexcept { lane_ = lane; }
  std::uint32_t lane() const noexcept { return lane_; }

  const std::string& name() const noexcept { return name_; }
  double bandwidth_bps() const noexcept { return bandwidth_bps_; }
  SimTime latency() const noexcept { return latency_; }
  const LinkStats& stats() const noexcept { return stats_; }
  /// Packets queued or in serialization right now (slots whose tx-done
  /// time has passed are counted as released even if not yet drained).
  std::size_t queue_depth() const noexcept;
  void reset_stats() noexcept { stats_ = LinkStats{}; }

  /// Serialization delay for a packet of `bytes` at this bandwidth.
  SimTime serialization_delay(std::uint32_t bytes) const noexcept;

 private:
  void deliver_group();
  void release_elapsed_slots() noexcept;

  /// Packets sharing one arrival tick, delivered by a single event.
  struct DeliveryGroup {
    SimTime when;
    std::uint32_t count = 0;
  };

  Simulator& sim_;
  std::string name_;
  double bandwidth_bps_;
  SimTime latency_;
  std::size_t queue_capacity_;

  DeliverFn deliver_;
  DeliverBatchFn deliver_batch_;
  LinkStats stats_;
  std::size_t queued_ = 0;      ///< Packets queued or in serialization.
  SimTime busy_until_;          ///< When the transmitter frees up.
  bool coalesce_ = true;
  std::uint32_t lane_ = 0;

  std::deque<Packet> in_flight_;       ///< FIFO toward delivery.
  std::deque<DeliveryGroup> groups_;   ///< Arrival ticks are monotone.
  std::deque<SimTime> slot_release_;   ///< Pending tx-done times (lazy).
  std::vector<Packet> batch_scratch_;  ///< Contiguous view for batches.
};

}  // namespace idseval::netsim
