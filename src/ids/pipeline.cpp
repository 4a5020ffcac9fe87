#include "ids/pipeline.hpp"

#include <stdexcept>

#include "util/strfmt.hpp"

namespace idseval::ids {

using netsim::Packet;

bool TapFilter::selects(const netsim::Packet& packet) const {
  for (const std::uint16_t port : exclude_dst_ports) {
    if (packet.tuple.dst_port == port) return false;
  }
  if (!include_protocols.empty()) {
    bool included = false;
    for (const netsim::Protocol proto : include_protocols) {
      if (packet.tuple.proto == proto) included = true;
    }
    if (!included) return false;
  }
  if (exclude_internal_to_internal &&
      packet.tuple.src_ip.in_subnet(internal_net, internal_prefix) &&
      packet.tuple.dst_ip.in_subnet(internal_net, internal_prefix)) {
    return false;
  }
  return true;
}

std::vector<std::string> Pipeline::validate(const PipelineConfig& config) {
  std::vector<std::string> violations;
  const bool has_network_sensing = config.sensor_count > 0;
  const bool has_host_sensing = config.use_host_agents;

  // Subprocesses 2-4 are essential (§2.2); 1 and 5 are optional (1c).
  if (!has_network_sensing && !has_host_sensing) {
    violations.push_back("sensing is essential: need network sensors or "
                         "host agents (subprocess 2)");
  }
  if (config.analyzer_count == 0) {
    violations.push_back("analysis is essential: analyzer_count must be "
                         ">= 1 (subprocess 3)");
  }
  // LB 1c:M — a load balancer requires sensors to feed.
  if (config.use_load_balancer && !has_network_sensing) {
    violations.push_back(
        "load balancer with no network sensors violates 1c:M");
  }
  // Analyzers M:1 monitor; monitor is implicit and single, so any
  // analyzer count >= 1 satisfies M:1. But analyzers outnumbering
  // sensing sources can never receive work:
  const std::size_t sources =
      config.sensor_count + (config.use_host_agents ? 1 : 0);
  if (config.analyzer_count > sources && sources > 0) {
    violations.push_back(util::cat(
        "analyzer_count (", config.analyzer_count,
        ") exceeds sensing sources (", sources,
        "): M:M wiring would starve analyzers"));
  }
  if (config.sensitivity < 0.0 || config.sensitivity > 1.0) {
    violations.push_back("sensitivity must lie in [0, 1]");
  }
  return violations;
}

Pipeline::Pipeline(netsim::Simulator& sim, netsim::Network& net,
                   PipelineConfig config)
    : sim_(sim),
      net_(net),
      config_(std::move(config)),
      tele_tapped_(
          telemetry::counter_handle(telemetry::names::kPipelineTapped)),
      tele_filtered_(
          telemetry::counter_handle(telemetry::names::kPipelineFiltered)) {
  const auto violations = validate(config_);
  if (!violations.empty()) {
    std::string msg = "Pipeline config invalid:";
    for (const auto& v : violations) msg += "\n  - " + v;
    throw std::invalid_argument(msg);
  }

  // Monitor + optional console (1:1c).
  monitor_ = std::make_unique<Monitor>(sim_, config_.monitor);
  monitor_evicts_ = config_.monitor.evict_on_flow_end;
  if (config_.use_console) {
    console_ = std::make_unique<ManagementConsole>(sim_, config_.console);
    console_->attach_switch(&net_.lan_switch());
    monitor_->set_on_alert(
        [this](const Alert& alert) { console_->on_alert(alert); });
  }

  // Analyzers (M:1 toward the monitor).
  for (std::size_t i = 0; i < config_.analyzer_count; ++i) {
    AnalyzerConfig ac = config_.analyzer;
    ac.name = util::cat(config_.analyzer.name, i);
    auto analyzer = std::make_unique<Analyzer>(sim_, ac);
    analyzer->set_on_report(
        [this](const ThreatReport& r) { monitor_->submit(r); });
    analyzers_.push_back(std::move(analyzer));
  }

  // Network sensors.
  for (std::size_t i = 0; i < config_.sensor_count; ++i) {
    SensorConfig sc = config_.sensor;
    sc.name = util::cat(config_.sensor.name, i);
    sc.telemetry_scope = util::cat("sensor.", i);
    auto sensor = std::make_unique<Sensor>(sim_, sc);
    if (config_.signature_engine) {
      sensor->set_signature_engine(std::make_unique<SignatureEngine>(
          config_.rules,
          SignatureEngineOptions{config_.sensitivity, true,
                                 config_.stream_reassembly}));
    }
    if (config_.anomaly_engine) {
      AnomalyEngineOptions opts = config_.anomaly;
      opts.sensitivity = config_.sensitivity;
      sensor->set_anomaly_engine(std::make_unique<AnomalyEngine>(opts));
    }
    const std::size_t idx = i;
    sensor->set_on_detections([this, idx](const Detection* d,
                                          std::size_t n) {
      analyzer_for(idx).submit_batch(d, n);
    });
    sensor->set_on_failure([this](const std::string& name,
                                  netsim::SimTime when, bool failed) {
      // High-recovery sensors report their own failure as a threat so the
      // operator learns the network is unprotected (Table 3 anchors).
      if (!failed) return;
      ThreatReport report;
      report.primary.flow_id = 0;
      report.primary.when = when;
      report.primary.rule = util::cat("IDS sensor failure: ", name);
      report.primary.confidence = 1.0;
      report.primary.severity = 5;
      report.primary.method = DetectionMethod::kSignature;
      report.severity = 5;
      report.when = when;
      monitor_->submit(report);
    });
    sensors_.push_back(std::move(sensor));
  }

  // Optional load balancer (1c:M).
  if (config_.use_load_balancer && !sensors_.empty()) {
    lb_ = std::make_unique<LoadBalancer>(sim_, config_.lb,
                                         sensors_.size());
    std::vector<Sensor*> raw;
    raw.reserve(sensors_.size());
    for (auto& s : sensors_) raw.push_back(s.get());
    lb_->set_sensors(std::move(raw));
    lb_->set_forward([this](std::size_t idx, const Packet& p) {
      dispatch_to_sensor(idx, p);
    });
  }
}

Analyzer& Pipeline::analyzer_for(std::size_t source_index) {
  return *analyzers_[source_index % analyzers_.size()];
}

void Pipeline::dispatch_to_sensor(std::size_t index, const Packet& packet) {
  sensors_[index]->ingest(packet);
}

std::size_t Pipeline::sensor_index_for(const Packet& packet) const {
  // No LB: static placement by destination (sensors in separate subnets).
  return sensors_.size() == 1
             ? 0
             : packet.tuple.dst_ip.value() % sensors_.size();
}

void Pipeline::feed(const Packet& packet) {
  if (packet.tuple.dst_port == kMgmtPort) return;  // own reports
  if (!config_.tap_filter.empty() &&
      !config_.tap_filter.selects(packet)) {
    ++packets_filtered_;
    telemetry::bump(tele_filtered_);
    return;
  }
  ++packets_tapped_;
  telemetry::bump(tele_tapped_);
  if (monitor_evicts_ && (packet.flags.fin || packet.flags.rst)) {
    monitor_->flow_ended(packet.flow_id);
  }
  if (sensors_.empty()) return;
  if (lb_) {
    lb_->ingest(packet);
    return;
  }
  dispatch_to_sensor(sensor_index_for(packet), packet);
}

void Pipeline::feed_batch(const Packet* packets, std::size_t count) {
  if (count == 0) return;
  if (count == 1) {
    feed(*packets);
    return;
  }
  const bool filtering = !config_.tap_filter.empty();
  std::uint64_t tapped = 0;
  std::uint64_t filtered = 0;
  std::size_t i = 0;
  while (i < count) {
    const Packet& p = packets[i];
    if (p.tuple.dst_port == kMgmtPort) {  // own reports
      ++i;
      continue;
    }
    if (filtering && !config_.tap_filter.selects(p)) {
      ++filtered;
      ++i;
      continue;
    }
    if (sensors_.empty()) {
      ++tapped;
      if (monitor_evicts_ && (p.flags.fin || p.flags.rst)) {
        monitor_->flow_ended(p.flow_id);
      }
      ++i;
      continue;
    }
    // Extend a contiguous run of selected packets bound for one sink so
    // the run rides a single batched ingest.
    const std::size_t sink = lb_ ? 0 : sensor_index_for(p);
    std::size_t j = i + 1;
    while (j < count) {
      const Packet& q = packets[j];
      if (q.tuple.dst_port == kMgmtPort) break;
      if (filtering && !config_.tap_filter.selects(q)) break;
      if (!lb_ && sensor_index_for(q) != sink) break;
      ++j;
    }
    tapped += j - i;
    if (monitor_evicts_) {
      for (std::size_t k = i; k < j; ++k) {
        if (packets[k].flags.fin || packets[k].flags.rst) {
          monitor_->flow_ended(packets[k].flow_id);
        }
      }
    }
    if (lb_) {
      lb_->ingest_batch(packets + i, j - i);
    } else {
      sensors_[sink]->ingest_batch(packets + i, j - i);
    }
    i = j;
  }
  packets_tapped_ += tapped;
  packets_filtered_ += filtered;
  if (tapped != 0) telemetry::bump(tele_tapped_, tapped);
  if (filtered != 0) telemetry::bump(tele_filtered_, filtered);
}

void Pipeline::attach(const std::vector<netsim::Ipv4>& agent_hosts) {
  if (attached_) throw std::logic_error("Pipeline: already attached");
  attached_ = true;

  if (!sensors_.empty()) {
    netsim::Switch& sw = net_.lan_switch();
    if (config_.use_load_balancer && config_.lb.in_line) {
      // In-line: production traffic waits for the LB's service time —
      // the Induced Traffic Latency metric's mechanism.
      sw.set_inline_hook([this](const Packet& p,
                                std::function<void(const Packet&)> fwd) {
        feed(p);
        const netsim::SimTime delay =
            lb_->config().inline_latency + lb_->service_time();
        sim_.schedule_in(delay, [p = p, fwd] { fwd(p); });
      });
    } else {
      sw.add_mirror_batch(
          [this](const Packet* p, std::size_t n) { feed_batch(p, n); });
    }
  }

  if (config_.use_host_agents) {
    for (std::size_t i = 0; i < agent_hosts.size(); ++i) {
      netsim::Host* host = net_.find_host(agent_hosts[i]);
      if (host == nullptr) {
        throw std::invalid_argument("Pipeline: agent host not found");
      }
      HostAgentConfig ac = config_.agent;
      ac.name = util::cat(config_.agent.name, i);
      if (ac.report_over_network &&
          ac.report_sink == netsim::Ipv4()) {
        // Default sink: the first monitored host doubles as the
        // collection point (reports from that host stay local).
        ac.report_sink = agent_hosts[0];
      }
      SensorConfig agent_sc = config_.agent_sensor;
      agent_sc.telemetry_scope = util::cat("agent.", i);
      auto agent =
          std::make_unique<HostAgent>(sim_, net_, *host, ac, agent_sc);
      if (config_.signature_engine) {
        agent->set_signature_engine(std::make_unique<SignatureEngine>(
            config_.rules,
            SignatureEngineOptions{config_.sensitivity, true,
                                   config_.stream_reassembly}));
      }
      if (config_.anomaly_engine) {
        AnomalyEngineOptions opts = config_.anomaly;
        opts.sensitivity = config_.sensitivity;
        agent->set_anomaly_engine(std::make_unique<AnomalyEngine>(opts));
      }
      agent->set_report_channel(net_.alloc_lane());
      const std::size_t source = config_.sensor_count + i;
      agent->set_on_detection([this, source](const Detection& d) {
        analyzer_for(source).submit(d);
      });
      agent->attach();
      agents_.push_back(std::move(agent));
    }
  }
}

void Pipeline::set_learning(bool learning) {
  const auto mode = learning ? AnomalyEngine::Mode::kLearning
                             : AnomalyEngine::Mode::kDetecting;
  for (auto& sensor : sensors_) {
    if (sensor->anomaly_engine()) sensor->anomaly_engine()->set_mode(mode);
  }
  for (auto& agent : agents_) {
    if (agent->anomaly_engine()) agent->anomaly_engine()->set_mode(mode);
  }
}

void Pipeline::set_sensitivity(double sensitivity) {
  config_.sensitivity = sensitivity;
  for (auto& sensor : sensors_) sensor->set_sensitivity(sensitivity);
  for (auto& agent : agents_) agent->set_sensitivity(sensitivity);
}

void Pipeline::set_evidence_sink(EvidenceSink* sink) {
  for (auto& sensor : sensors_) sensor->set_evidence_sink(sink);
  for (auto& agent : agents_) agent->set_evidence_sink(sink);
}

PipelineTotals Pipeline::totals() const {
  PipelineTotals t;
  t.packets_tapped = packets_tapped_;
  t.packets_filtered = packets_filtered_;
  auto add_sensor = [&t](const Sensor& s, bool network_path) {
    t.sensor_offered += s.stats().offered;
    t.sensor_processed += s.stats().processed;
    t.sensor_dropped += s.stats().dropped_queue + s.stats().dropped_failed;
    (network_path ? t.network_processed : t.agent_processed) +=
        s.stats().processed;
    t.detections += s.stats().detections;
    t.sensor_failures += s.stats().failures;
    if (s.failed()) ++t.sensors_down;
  };
  for (const auto& s : sensors_) add_sensor(*s, true);
  for (const auto& a : agents_) add_sensor(a->sensor(), false);
  if (lb_) t.lb_dropped = lb_->stats().dropped;
  t.alerts = monitor_->stats().alerts_raised;
  return t;
}

void Pipeline::reset_counters() {
  packets_tapped_ = 0;
  packets_filtered_ = 0;
  telemetry::reset(tele_tapped_);
  telemetry::reset(tele_filtered_);
  for (auto& s : sensors_) s->reset_stats();
  for (auto& a : agents_) a->sensor().reset_stats();
  if (lb_) lb_->reset_stats();
  for (auto& a : analyzers_) a->reset_stats();
  monitor_->clear();
  // The console's reaction counters are window-scoped measurements too:
  // leaving them running would bleed warmup reactions into the measured
  // window (they were previously never cleared).
  if (console_) console_->reset_stats();
}

}  // namespace idseval::ids
