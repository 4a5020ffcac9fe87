#include "ids/anomaly_engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace idseval::ids {

using netsim::Ipv4;
using netsim::Packet;
using netsim::SimTime;

double payload_entropy(std::string_view payload) noexcept {
  if (payload.empty()) return 0.0;
  std::array<std::uint32_t, 256> counts{};
  for (unsigned char c : payload) ++counts[c];
  const double n = static_cast<double>(payload.size());
  double h = 0.0;
  for (const std::uint32_t c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / n;
    h -= p * std::log2(p);
  }
  return h;
}

double sensitivity_to_zscore(double sensitivity) noexcept {
  const double s = std::clamp(sensitivity, 0.0, 1.0);
  return 8.0 - 6.5 * s;
}

AnomalyEngine::AnomalyEngine(AnomalyEngineOptions options)
    : options_(options),
      fanout_baseline_(options.ewma_alpha),
      syn_rate_baseline_(options.ewma_alpha) {}

bool AnomalyEngine::is_internal(Ipv4 addr) const noexcept {
  return addr.in_subnet(options_.internal_net, options_.internal_prefix);
}

double AnomalyEngine::cached_entropy(const Packet& packet) {
  if (packet.payload == nullptr) return payload_entropy(packet.payload_view());
  if (const double* cached = entropy_memo_.find(packet.payload)) {
    entropy_memo_.credit_saved(packet.payload->size());
    return *cached;
  }
  const double entropy = payload_entropy(*packet.payload);
  entropy_memo_.store(packet.payload, entropy);
  return entropy;
}

double AnomalyEngine::scan_cost_ops(const Packet& packet) const noexcept {
  return 800.0 + 15.0 * static_cast<double>(packet.payload_bytes());
}

std::size_t AnomalyEngine::model_bytes() const noexcept {
  // Rough but monotone accounting of learned state.
  return by_port_.size() * 96 + peer_pairs_.size() * 16 +
         service_triples_.size() * 16 + fanout_by_src_.size() * 64;
}

Detection AnomalyEngine::make_detection(const Packet& packet, SimTime now,
                                        const std::string& feature,
                                        double zscore, int severity) const {
  Detection d;
  d.flow_id = packet.flow_id;
  d.tuple = packet.tuple;
  d.when = now;
  d.rule = feature;
  // Confidence grows with how far past the trigger the observation lies.
  const double excess =
      zscore - sensitivity_to_zscore(options_.sensitivity);
  d.confidence = std::clamp(0.45 + 0.08 * excess, 0.2, 0.99);
  d.severity = severity;
  d.method = DetectionMethod::kAnomaly;
  return d;
}

bool AnomalyEngine::fire_once(std::uint64_t feature_tag,
                              std::uint64_t flow_id) {
  return fired_.insert(FireKey{flow_id, feature_tag});
}

void AnomalyEngine::process(const Packet& packet, SimTime now,
                            std::vector<Detection>& out) {
  const std::uint32_t port_key =
      (static_cast<std::uint32_t>(packet.tuple.dst_port) << 8) |
      static_cast<std::uint32_t>(packet.tuple.proto);
  const double z_trigger = sensitivity_to_zscore(options_.sensitivity);

  // --- Per-service payload shape (length + entropy) ----------------------
  if (packet.payload_bytes() > 0) {
    PortModel& model =
        *by_port_.try_emplace(port_key, options_.ewma_alpha).first;
    const double len = static_cast<double>(packet.payload_bytes());
    const double ent = cached_entropy(packet);
    // Stddev floors keep near-constant baselines from amplifying noise:
    // 5% of the typical length, 0.15 bits of entropy.
    const double len_floor = 0.05 * std::max(1.0, model.length.mean());
    const double ent_floor = 0.15;

    double zl = 0.0;
    double ze = 0.0;
    if (model.samples >= 30) {
      zl = std::abs(model.length.zscore(len, len_floor));
      ze = std::abs(model.entropy.zscore(ent, ent_floor));
      if (mode_ == Mode::kDetecting) {
        if (evidence_) {
          // Pre-gate evidence: z-scores fire strictly above the trigger,
          // so equality at the critical sensitivity does not fire.
          evidence_->observe(packet.flow_id, EvidenceChannel::kAnomaly, zl,
                             sensitivity_for_zscore(zl),
                             /*strict_trigger=*/true);
          evidence_->observe(packet.flow_id, EvidenceChannel::kAnomaly, ze,
                             sensitivity_for_zscore(ze),
                             /*strict_trigger=*/true);
        }
        if (zl > z_trigger && fire_once(1, packet.flow_id)) {
          out.push_back(make_detection(packet, now,
                                       "anomalous payload length", zl, 3));
        }
        if (ze > z_trigger && fire_once(2, packet.flow_id)) {
          out.push_back(make_detection(packet, now,
                                       "anomalous payload entropy", ze, 4));
        }
      }
    }
    // Winsorized learning: observations already far outside the model do
    // not update it, or a patient attacker (or a single burst) would drag
    // the baseline toward the attack and mask it — the self-poisoning
    // failure mode of naive EWMA detectors.
    const bool outlier =
        mode_ == Mode::kDetecting && std::max(zl, ze) > 0.5 * z_trigger;
    if (!outlier) {
      model.length.add(len);
      model.entropy.add(ent);
      ++model.samples;
    }
  }

  // --- Source fanout (distinct destination ports in a sliding window) ----
  {
    SrcWindow& w =
        *fanout_by_src_.try_emplace(packet.tuple.src_ip.value()).first;
    w.ports[packet.tuple.dst_port] = now;
    const SimTime window = SimTime::from_sec(options_.fanout_window_sec);
    w.ports.erase_if(
        [&](const auto& kv) { return now - kv.second > window; });
    const double fanout = static_cast<double>(w.ports.size());
    // Fanout counts are small integers; a stddev floor of 1 keeps one
    // extra benign port from reading as a multi-sigma event.
    const double z = fanout_baseline_.zscore(fanout, /*min_stddev=*/1.0);
    if (mode_ == Mode::kDetecting && fanout_baseline_.seeded() &&
        now >= w.cooldown_until) {
      if (evidence_) {
        evidence_->observe(packet.flow_id, EvidenceChannel::kAnomaly, z,
                           sensitivity_for_zscore(z),
                           /*strict_trigger=*/true);
      }
      if (z > z_trigger && fire_once(3, packet.flow_id)) {
        w.cooldown_until = now + window;
        out.push_back(
            make_detection(packet, now, "source fanout anomaly", z, 3));
      }
    }
    // Winsorized: scanning sources must not teach the baseline that high
    // fanout is normal.
    if (mode_ == Mode::kLearning || z <= 0.5 * z_trigger) {
      fanout_baseline_.add(fanout);
    }
  }

  // --- Bare-SYN arrival rate per destination (flood behaviour) -----------
  if (packet.flags.syn && !packet.flags.ack) {
    SynWindow& w =
        *syn_by_dst_.try_emplace(packet.tuple.dst_ip.value()).first;
    const SimTime window = SimTime::from_sec(1.0);
    w.events.push_back(now);
    while (!w.events.empty() && now - w.events.front() > window) {
      w.events.pop_front();
    }
    const double rate = static_cast<double>(w.events.size());
    const double z = syn_rate_baseline_.zscore(rate, /*min_stddev=*/2.0);
    if (mode_ == Mode::kDetecting && syn_rate_baseline_.seeded() &&
        now >= w.cooldown_until) {
      if (evidence_) {
        evidence_->observe(packet.flow_id, EvidenceChannel::kAnomaly, z,
                           sensitivity_for_zscore(z),
                           /*strict_trigger=*/true);
      }
      if (z > z_trigger && fire_once(5, packet.flow_id)) {
        w.cooldown_until = now + window;
        out.push_back(
            make_detection(packet, now, "SYN rate anomaly", z, 3));
      }
    }
    if (mode_ == Mode::kLearning || z <= 0.5 * z_trigger) {
      syn_rate_baseline_.add(rate);
    }
  }

  // --- Peer/service novelty for internal sources -------------------------
  if (options_.learn_peer_graph && is_internal(packet.tuple.src_ip)) {
    // Exact packed keys: (src, dst) for the peer graph, (src, dst,
    // dst_port) for services. The old triple XOR-folded dst_port<<16
    // into the low half of dst inside one 64-bit word, so distinct
    // (dst, port) services aliased and novel-service detections were
    // silently swallowed (regression: key_aliasing_test.cpp).
    const netsim::FlowTuple pair{packet.tuple.src_ip.value(),
                                 packet.tuple.dst_ip.value(), 0, 0, 0};
    netsim::FlowTuple triple = pair;
    triple.dst_port = packet.tuple.dst_port;
    if (mode_ == Mode::kLearning) {
      peer_pairs_.insert(pair);
      service_triples_.insert(triple);
    } else {
      const bool new_pair = !peer_pairs_.contains(pair);
      const bool new_service = !service_triples_.contains(triple);
      // Novelty is binary, so express it as a pseudo-z proportional to how
      // surprising it is: a brand-new peer is stronger evidence than a new
      // service on a known peer. High sensitivity fires on both, medium
      // only on new pairs, low on neither (z_trigger above ~5 never fires).
      const double pseudo_z = new_pair ? 5.0 : (new_service ? 3.0 : 0.0);
      if (evidence_ && pseudo_z > 0.0) {
        // Novelty fires at z >= trigger, so the critical sensitivity is
        // inclusive (non-strict).
        evidence_->observe(packet.flow_id, EvidenceChannel::kNovelty,
                           pseudo_z, sensitivity_for_zscore(pseudo_z),
                           /*strict_trigger=*/false);
      }
      if (pseudo_z > 0.0 && pseudo_z >= z_trigger &&
          fire_once(4, packet.flow_id)) {
        out.push_back(make_detection(
            packet, now,
            new_pair ? "novel internal peer" : "novel internal service",
            pseudo_z, 5));
      }
      // Adopt after first sighting to avoid alert storms from one flow.
      peer_pairs_.insert(pair);
      service_triples_.insert(triple);
    }
  }
}

void AnomalyEngine::reset_windows() {
  fanout_by_src_.clear();
  fired_.clear();
}

}  // namespace idseval::ids
