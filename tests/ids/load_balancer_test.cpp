#include "ids/load_balancer.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ids/sensor.hpp"
#include "telemetry/registry.hpp"
#include "util/rng.hpp"
#include "../telemetry/instrument_values.hpp"

namespace idseval::ids {
namespace {

using netsim::FiveTuple;
using netsim::Ipv4;
using netsim::Packet;
using netsim::SimTime;

/// A lone packet is offered as a run of one.
template <class Sink>
void ingest_one(Sink& sink, const Packet& packet) {
  sink.ingest_batch(&packet, 1);
}

Packet flow_packet(netsim::Simulator& sim, std::uint64_t flow,
                   Ipv4 src = Ipv4(198, 51, 100, 1),
                   Ipv4 dst = Ipv4(10, 0, 0, 2),
                   std::uint16_t sport = 4000) {
  FiveTuple t;
  t.src_ip = src;
  t.dst_ip = dst;
  t.src_port = sport;
  t.dst_port = 80;
  return netsim::make_packet(sim.next_packet_id(), flow, sim.now(), t,
                             "payload");
}

LoadBalancerConfig cfg(LbStrategy strategy) {
  LoadBalancerConfig c;
  c.strategy = strategy;
  c.ops_per_packet = 1000.0;
  c.ops_per_sec = 1e9;
  return c;
}

TEST(LoadBalancerTest, NoneRoutesEverythingToSensorZero) {
  netsim::Simulator sim;
  LoadBalancer lb(sim, cfg(LbStrategy::kNone), 4);
  std::map<std::size_t, int> got;
  lb.set_forward([&](std::size_t idx, const Packet&) { ++got[idx]; });
  for (int i = 0; i < 20; ++i) {
    ingest_one(lb, flow_packet(sim, static_cast<std::uint64_t>(i)));
  }
  sim.run_until();
  EXPECT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 20);
}

TEST(LoadBalancerTest, FlowHashIsSessionConsistent) {
  netsim::Simulator sim;
  LoadBalancer lb(sim, cfg(LbStrategy::kFlowHash), 4);
  std::map<std::uint64_t, std::set<std::size_t>> flow_sensors;
  lb.set_forward([&](std::size_t idx, const Packet& p) {
    flow_sensors[p.flow_id].insert(idx);
  });
  util::Rng rng(3);
  for (int flow = 0; flow < 50; ++flow) {
    const auto sport = static_cast<std::uint16_t>(rng.uniform_u64(1024,
                                                                  65535));
    for (int pkt = 0; pkt < 10; ++pkt) {
      Packet p = flow_packet(sim, static_cast<std::uint64_t>(flow),
                             Ipv4(198, 51, 100, 1), Ipv4(10, 0, 0, 2),
                             sport);
      ingest_one(lb, p);
    }
  }
  sim.run_until();
  for (const auto& [flow, sensors] : flow_sensors) {
    EXPECT_EQ(sensors.size(), 1u) << "flow " << flow << " split";
  }
}

TEST(LoadBalancerTest, FlowHashHandlesBothDirections) {
  netsim::Simulator sim;
  LoadBalancer lb(sim, cfg(LbStrategy::kFlowHash), 8);
  std::set<std::size_t> sensors;
  lb.set_forward([&](std::size_t idx, const Packet&) {
    sensors.insert(idx);
  });
  Packet fwd = flow_packet(sim, 1);
  Packet rev = fwd;
  std::swap(rev.tuple.src_ip, rev.tuple.dst_ip);
  std::swap(rev.tuple.src_port, rev.tuple.dst_port);
  ingest_one(lb, fwd);
  ingest_one(lb, rev);
  sim.run_until();
  EXPECT_EQ(sensors.size(), 1u);  // canonical tuple: same sensor
}

TEST(LoadBalancerTest, FlowHashSpreadsFlows) {
  netsim::Simulator sim;
  LoadBalancer lb(sim, cfg(LbStrategy::kFlowHash), 4);
  lb.set_forward([](std::size_t, const Packet&) {});
  util::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    Packet p = flow_packet(
        sim, static_cast<std::uint64_t>(i), Ipv4(198, 51, 100, 1),
        Ipv4(10, 0, 0, static_cast<std::uint8_t>(1 + rng.index(8))),
        static_cast<std::uint16_t>(rng.uniform_u64(1024, 65535)));
    ingest_one(lb, p);
  }
  sim.run_until();
  EXPECT_LT(lb.stats().imbalance(), 1.2);
}

TEST(LoadBalancerTest, StaticByHostFollowsDestination) {
  netsim::Simulator sim;
  LoadBalancer lb(sim, cfg(LbStrategy::kStaticByHost), 4);
  std::map<std::uint32_t, std::set<std::size_t>> dst_sensors;
  lb.set_forward([&](std::size_t idx, const Packet& p) {
    dst_sensors[p.tuple.dst_ip.value()].insert(idx);
  });
  for (int i = 0; i < 100; ++i) {
    Packet p = flow_packet(
        sim, static_cast<std::uint64_t>(i), Ipv4(198, 51, 100, 1),
        Ipv4(10, 0, 0, static_cast<std::uint8_t>(1 + i % 8)));
    ingest_one(lb, p);
  }
  sim.run_until();
  for (const auto& [dst, sensors] : dst_sensors) {
    EXPECT_EQ(sensors.size(), 1u);
  }
}

TEST(LoadBalancerTest, LeastLoadedPrefersShortQueue) {
  netsim::Simulator sim;
  // Two sensors: one slow with a deep backlog, one idle.
  SensorConfig slow;
  slow.base_ops_per_packet = 1e8;
  slow.ops_per_sec = 1e9;
  Sensor busy(sim, slow);
  Sensor idle(sim, slow);
  for (int i = 0; i < 10; ++i) ingest_one(busy, flow_packet(sim, 1000));

  LoadBalancer lb(sim, cfg(LbStrategy::kLeastLoaded), 2);
  lb.set_sensors({&busy, &idle});
  std::map<std::size_t, int> got;
  lb.set_forward([&](std::size_t idx, const Packet&) { ++got[idx]; });
  ingest_one(lb, flow_packet(sim, 1));  // new flow -> idle sensor (index 1)
  sim.run_until();
  EXPECT_EQ(got[1], 1);
  EXPECT_EQ(got.count(0), 0u);
}

TEST(LoadBalancerTest, LeastLoadedPinsFlows) {
  netsim::Simulator sim;
  SensorConfig fast;
  Sensor s0(sim, fast);
  Sensor s1(sim, fast);
  LoadBalancer lb(sim, cfg(LbStrategy::kLeastLoaded), 2);
  lb.set_sensors({&s0, &s1});
  std::map<std::uint64_t, std::set<std::size_t>> flow_sensors;
  lb.set_forward([&](std::size_t idx, const Packet& p) {
    flow_sensors[p.flow_id].insert(idx);
  });
  for (int pkt = 0; pkt < 20; ++pkt) {
    ingest_one(lb, flow_packet(sim, 1));
    ingest_one(lb, flow_packet(sim, 2));
  }
  sim.run_until();
  EXPECT_EQ(flow_sensors[1].size(), 1u);
  EXPECT_EQ(flow_sensors[2].size(), 1u);
}

TEST(LoadBalancerTest, QueueOverflowDrops) {
  netsim::Simulator sim;
  LoadBalancerConfig c = cfg(LbStrategy::kFlowHash);
  c.queue_capacity = 8;
  c.ops_per_packet = 1e7;  // 10ms each — queue fills instantly
  LoadBalancer lb(sim, c, 2);
  lb.set_forward([](std::size_t, const Packet&) {});
  for (int i = 0; i < 20; ++i) {
    ingest_one(lb, flow_packet(sim, static_cast<std::uint64_t>(i)));
  }
  EXPECT_EQ(lb.stats().dropped, 12u);
  sim.run_until();
  EXPECT_EQ(lb.stats().forwarded, 8u);
}

TEST(LoadBalancerTest, RunMatchesRunsOfOneThroughAQueueFullDrop) {
  // Twelve packets against an eight-slot queue: the queue fills mid-run
  // and the last four drop. One run of twelve and twelve runs of one
  // must agree on stats, telemetry and forwarding order.
  struct Outcome {
    LoadBalancerStats stats;
    std::vector<std::pair<std::size_t, std::uint64_t>> forwarded;
    std::map<std::string, double> telemetry;
  };
  auto drive = [](bool one_run) {
    telemetry::Registry reg;
    telemetry::ScopedRegistry scope(&reg);
    netsim::Simulator sim;
    LoadBalancerConfig c = cfg(LbStrategy::kFlowHash);
    c.queue_capacity = 8;
    LoadBalancer lb(sim, c, 3);
    Outcome out;
    lb.set_forward([&](std::size_t idx, const Packet& p) {
      out.forwarded.emplace_back(idx, p.id);
    });
    std::vector<Packet> run;
    for (std::uint16_t i = 0; i < 12; ++i) {
      run.push_back(flow_packet(sim, i, Ipv4(198, 51, 100, 1),
                                Ipv4(10, 0, 0, 2),
                                static_cast<std::uint16_t>(4000 + i)));
    }
    if (one_run) {
      lb.ingest_batch(run.data(), run.size());
    } else {
      for (const Packet& p : run) ingest_one(lb, p);
    }
    sim.run_until();
    out.stats = lb.stats();
    out.telemetry = telemetry::instrument_values(reg);
    return out;
  };
  const Outcome run = drive(true);
  const Outcome singles = drive(false);
  EXPECT_EQ(run.stats.offered, 12u);
  EXPECT_EQ(run.stats.dropped, 4u);
  EXPECT_EQ(run.stats.forwarded, 8u);
  EXPECT_EQ(run.stats.offered, singles.stats.offered);
  EXPECT_EQ(run.stats.dropped, singles.stats.dropped);
  EXPECT_EQ(run.stats.forwarded, singles.stats.forwarded);
  EXPECT_EQ(run.stats.per_sensor, singles.stats.per_sensor);
  EXPECT_EQ(run.forwarded, singles.forwarded);
  EXPECT_EQ(run.telemetry, singles.telemetry);
  EXPECT_EQ(run.telemetry.at("lb.dropped"), 4.0);
}

TEST(LoadBalancerTest, ImbalanceComputation) {
  LoadBalancerStats stats;
  stats.per_sensor = {100, 100, 100, 100};
  EXPECT_DOUBLE_EQ(stats.imbalance(), 1.0);
  stats.per_sensor = {400, 0, 0, 0};
  EXPECT_DOUBLE_EQ(stats.imbalance(), 4.0);
  stats.per_sensor = {};
  EXPECT_DOUBLE_EQ(stats.imbalance(), 1.0);
}

TEST(LoadBalancerTest, ServiceTimeFromOps) {
  netsim::Simulator sim;
  LoadBalancerConfig c = cfg(LbStrategy::kNone);
  c.ops_per_packet = 2000.0;
  c.ops_per_sec = 2e6;
  LoadBalancer lb(sim, c, 1);
  EXPECT_EQ(lb.service_time(), SimTime::from_ms(1.0));
}

TEST(LoadBalancerTest, StrategyNames) {
  EXPECT_EQ(to_string(LbStrategy::kNone), "none");
  EXPECT_EQ(to_string(LbStrategy::kStaticByHost), "static-by-host");
  EXPECT_EQ(to_string(LbStrategy::kFlowHash), "flow-hash");
  EXPECT_EQ(to_string(LbStrategy::kLeastLoaded), "least-loaded");
}

}  // namespace
}  // namespace idseval::ids
