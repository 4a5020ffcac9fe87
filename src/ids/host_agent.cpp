#include "ids/host_agent.hpp"

namespace idseval::ids {

using netsim::Packet;
using netsim::SimTime;

std::string to_string(LoggingLevel level) {
  switch (level) {
    case LoggingLevel::kNone:
      return "none";
    case LoggingLevel::kNominal:
      return "nominal";
    case LoggingLevel::kC2Audit:
      return "c2-audit";
  }
  return "?";
}

double logging_ops_per_packet(LoggingLevel level) noexcept {
  // Calibrated against §2.1: at ~1000 pps on a 1e9 ops/s host, nominal
  // logging lands near 4% and C2 auditing near 20%.
  switch (level) {
    case LoggingLevel::kNone:
      return 0.0;
    case LoggingLevel::kNominal:
      return 40'000.0;
    case LoggingLevel::kC2Audit:
      return 200'000.0;
  }
  return 0.0;
}

HostAgent::HostAgent(netsim::Simulator& sim, netsim::Network& net,
                     netsim::Host& host, HostAgentConfig config,
                     SensorConfig sensor_template)
    : sim_(sim), net_(net), host_(host), config_(std::move(config)) {
  SensorConfig sc = std::move(sensor_template);
  sc.name = config_.name;
  // The agent analyzes with a bounded share of the host CPU.
  sc.ops_per_sec = host.cpu_ops_per_sec() * config_.cpu_share;
  sensor_ = std::make_unique<Sensor>(sim_, sc);
  sensor_->bind_host(&host_);
}

void HostAgent::set_signature_engine(
    std::unique_ptr<SignatureEngine> engine) {
  sensor_->set_signature_engine(std::move(engine));
}

void HostAgent::set_anomaly_engine(std::unique_ptr<AnomalyEngine> engine) {
  sensor_->set_anomaly_engine(std::move(engine));
}

void HostAgent::set_on_detection(DetectionFn fn) {
  on_detection_ = std::move(fn);
  sensor_->set_on_detection([this](const Detection& d) {
    // The finding leaves the host now but reaches the analyzer tier only
    // after the report transit delay, on this agent's lane.
    // Init-capture: plain [this, d] would give the closure a `const
    // Detection` member (d is a const reference), demoting its move
    // constructor to a throwing string copy and spilling the callback
    // off the inline buffer.
    sim_.schedule_at_lane(sim_.now() + config_.report_latency, lane_,
                          [this, d = Detection(d)] { deliver_report(d); });
  });
}

void HostAgent::deliver_report(const Detection& d) {
  if (config_.report_over_network &&
      host_.address() != config_.report_sink) {
    // A real report packet: multi-host IDSs consume network bandwidth
    // by transmitting logging information (§2.1).
    netsim::FiveTuple tuple;
    tuple.src_ip = host_.address();
    tuple.dst_ip = config_.report_sink;
    tuple.src_port = kMgmtPort;
    tuple.dst_port = kMgmtPort;
    tuple.proto = netsim::Protocol::kTcp;
    Packet report = netsim::make_packet(
        sim_.next_packet_id(), /*flow_id=*/0, sim_.now(), tuple,
        std::string(config_.report_bytes, 'r'));
    net_.send(report);
    ++reports_sent_;
  }
  if (on_detection_) on_detection_(d);
}

void HostAgent::attach() {
  if (attached_) return;
  attached_ = true;
  host_.add_receiver_batch([this](const Packet* packets, std::size_t n) {
    observe_batch(packets, n);
  });
}

void HostAgent::observe(const Packet& packet) {
  if (packet.tuple.dst_port == kMgmtPort) return;  // never self-analyze
  // Logging happens for every delivered packet regardless of analysis.
  const double log_ops = logging_ops_per_packet(config_.logging);
  if (log_ops > 0.0) host_.charge_ops(log_ops, /*ids_work=*/true);
  sensor_->ingest(packet);
}

void HostAgent::observe_batch(const Packet* packets, std::size_t count) {
  if (count == 0) return;
  if (count == 1) {
    observe(*packets);
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (packets[i].tuple.dst_port == kMgmtPort) {
      // Mgmt traffic splits the batch; take the exact per-packet path.
      for (std::size_t j = 0; j < count; ++j) observe(packets[j]);
      return;
    }
  }
  const double log_ops = logging_ops_per_packet(config_.logging);
  if (log_ops > 0.0) {
    host_.charge_ops(log_ops * static_cast<double>(count),
                     /*ids_work=*/true);
  }
  sensor_->ingest_batch(packets, count);
}

}  // namespace idseval::ids
