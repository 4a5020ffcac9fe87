// Host-based sensing (§2.1): an autonomous agent on a production host
// that watches traffic delivered to that host, charges its analysis work
// against the host's own CPU, and reports findings to a (possibly remote)
// analyzer. Event-logging support costs the monitored host 3-5% at a
// nominal level and up to ~20% for DoD C2 (Controlled Access Protection)
// compliant auditing [3,10] — the LoggingLevel knob reproduces that
// spectrum, and the X1 bench measures it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "ids/alert.hpp"
#include "ids/sensor.hpp"
#include "netsim/host.hpp"
#include "netsim/network.hpp"
#include "netsim/simulator.hpp"

namespace idseval::ids {

enum class LoggingLevel : std::uint8_t {
  kNone,     ///< No audit trail beyond live analysis.
  kNominal,  ///< Ordinary event logging (~3-5% of host CPU).
  kC2Audit,  ///< C2-compliant audit (~20% of host CPU).
};

std::string to_string(LoggingLevel level);

struct HostAgentConfig {
  std::string name = "agent";
  LoggingLevel logging = LoggingLevel::kNominal;
  /// Fraction of the host CPU the agent may consume for analysis before
  /// it starts sampling (skipping packets) to protect production work.
  double cpu_share = 0.25;
  /// When set, each detection also emits a real report packet to this
  /// address so multi-host IDS bandwidth consumption (§2.1) shows up on
  /// the simulated network. Port ids::kMgmtPort marks these packets.
  bool report_over_network = false;
  netsim::Ipv4 report_sink;
  std::uint32_t report_bytes = 220;
  /// Transit delay between a detection on the monitored host and its
  /// arrival at the analyzer tier — agents report over the management
  /// network, not by function call, so findings land a beat later than
  /// the packet that triggered them.
  netsim::SimTime report_latency = netsim::SimTime::from_us(150);
};

/// Port used by IDS components talking to each other; pipeline taps
/// filter it out so the IDS never analyzes its own reports.
inline constexpr std::uint16_t kMgmtPort = 9909;

/// Abstract logging cost per observed packet.
double logging_ops_per_packet(LoggingLevel level) noexcept;

class HostAgent {
 public:
  using DetectionFn = std::function<void(const Detection&)>;

  HostAgent(netsim::Simulator& sim, netsim::Network& net,
            netsim::Host& host, HostAgentConfig config,
            SensorConfig sensor_template);

  /// Installs engines on the inner sensor.
  void set_signature_engine(std::unique_ptr<SignatureEngine> engine);
  void set_anomaly_engine(std::unique_ptr<AnomalyEngine> engine);
  AnomalyEngine* anomaly_engine() noexcept {
    return sensor_->anomaly_engine();
  }

  void set_on_detection(DetectionFn fn);

  /// Routes this agent's delayed reports: detections reach the analyzer
  /// tier config.report_latency later, on event lane `lane`.
  void set_report_channel(std::uint32_t lane) noexcept { lane_ = lane; }

  void set_sensitivity(double s) noexcept { sensor_->set_sensitivity(s); }
  void set_evidence_sink(EvidenceSink* sink) noexcept {
    sensor_->set_evidence_sink(sink);
  }

  /// Begins observing the host's delivered packets.
  void attach();

  const Sensor& sensor() const noexcept { return *sensor_; }
  Sensor& sensor() noexcept { return *sensor_; }
  const HostAgentConfig& config() const noexcept { return config_; }
  netsim::Host& host() noexcept { return host_; }
  std::uint64_t reports_sent() const noexcept { return reports_sent_; }

 private:
  /// Runs at detection time + report_latency: emits the optional report
  /// packet and forwards to the analyzer callback.
  void deliver_report(const Detection& d);
  void observe(const netsim::Packet& packet);
  /// Same-tick delivery batch off the host downlink: logging ops are
  /// charged once for the whole batch and the inner sensor gets one
  /// batched ingest. Falls back per packet around mgmt-port traffic.
  void observe_batch(const netsim::Packet* packets, std::size_t count);

  netsim::Simulator& sim_;
  netsim::Network& net_;
  netsim::Host& host_;
  HostAgentConfig config_;
  std::unique_ptr<Sensor> sensor_;
  DetectionFn on_detection_;
  std::uint32_t lane_ = 0;
  std::uint64_t reports_sent_ = 0;
  bool attached_ = false;
};

}  // namespace idseval::ids
