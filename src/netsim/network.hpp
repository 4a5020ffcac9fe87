// Topology assembly: hosts attached to one LAN switch via per-host link
// pairs, plus "external" hosts behind a higher-latency WAN uplink —
// mirroring Figure 1's border-router / LAN split. The traffic generators
// and attack emitters inject through Network::send().
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "netsim/host.hpp"
#include "netsim/link.hpp"
#include "netsim/packet.hpp"
#include "netsim/simulator.hpp"
#include "netsim/switch.hpp"

namespace idseval::netsim {

struct LinkSpec {
  double bandwidth_bps = 1e9;     // 1 Gb/s default LAN
  SimTime latency = SimTime::from_us(50);
  std::size_t queue_capacity = 256;
};

class Network {
 public:
  explicit Network(Simulator& sim);

  /// Adds an internal (LAN) host. Returns a stable pointer owned by the
  /// network.
  Host* add_host(const std::string& name, Ipv4 addr,
                 const LinkSpec& spec = {}, double cpu_ops_per_sec = 1e9);

  /// Adds an external host (reaches the LAN via the WAN link spec —
  /// typically lower bandwidth, higher latency).
  Host* add_external_host(const std::string& name, Ipv4 addr,
                          const LinkSpec& spec = {1e8, SimTime::from_ms(20),
                                                  512},
                          double cpu_ops_per_sec = 1e9);

  Host* find_host(Ipv4 addr);
  const Host* find_host(Ipv4 addr) const;

  Switch& lan_switch() noexcept { return switch_; }
  const Switch& lan_switch() const noexcept { return switch_; }
  Simulator& sim() noexcept { return sim_; }

  /// Allocates a fresh event lane (links take them in attach order; host
  /// agents draw theirs from the same sequence so every same-tick stream
  /// has a canonical cross-entity order).
  std::uint32_t alloc_lane() noexcept { return next_lane_++; }

  Link* uplink(Ipv4 addr);
  Link* downlink(Ipv4 addr);

  /// Emits a packet from its source host: it traverses the source uplink,
  /// the switch (mirrors/in-line/block list), and the destination
  /// downlink. Returns false if the uplink tail-dropped it immediately.
  bool send(const Packet& packet);

  /// Aggregate ingress/egress statistics across all host links.
  LinkStats aggregate_uplink_stats() const;
  LinkStats aggregate_downlink_stats() const;
  void reset_link_stats();

  /// Toggles same-tick delivery coalescing on every host link. Off gives
  /// the one-event-per-packet reference path batch-equivalence tests and
  /// benches compare against.
  void set_delivery_coalescing(bool enabled);

  const std::vector<Host*>& hosts() const noexcept { return host_order_; }

 private:
  struct Attachment {
    std::unique_ptr<Host> host;
    std::unique_ptr<Link> uplink;    // host -> switch
    std::unique_ptr<Link> downlink;  // switch -> host
  };

  Host* attach(const std::string& name, Ipv4 addr, const LinkSpec& spec,
               double cpu_ops_per_sec);

  Simulator& sim_;
  Switch switch_;
  std::uint32_t next_lane_ = 1;
  std::unordered_map<std::uint32_t, Attachment> attachments_;
  std::vector<Host*> host_order_;
};

}  // namespace idseval::netsim
