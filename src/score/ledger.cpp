#include "score/ledger.hpp"

#include <algorithm>

#include "telemetry/registry.hpp"

namespace idseval::score {

ScoreLedger::ScoreLedger() { telemetry::bind_flow_table(by_flow_); }

void ScoreLedger::observe(std::uint64_t flow_id,
                          ids::EvidenceChannel channel, double strength,
                          double critical_sensitivity, bool strict_trigger) {
  ++observations_;
  FlowEvidence& ev = *by_flow_.try_emplace(flow_id).first;
  ++ev.observations;
  ev.max_strength = std::max(ev.max_strength, strength);
  // Earlier-firing evidence wins: lower critical sensitivity, or equal
  // critical but inclusive (non-strict) firing.
  const bool earlier =
      critical_sensitivity < ev.critical_sensitivity ||
      (critical_sensitivity == ev.critical_sensitivity && !strict_trigger &&
       ev.strict);
  if (earlier) {
    ev.critical_sensitivity = critical_sensitivity;
    ev.strict = strict_trigger;
    ev.channel = channel;
  }
}

const ScoreLedger::FlowEvidence* ScoreLedger::find(
    std::uint64_t flow_id) const {
  return by_flow_.find(flow_id);
}

void ScoreLedger::finalize(const traffic::TransactionLedger& truth,
                           netsim::SimTime begin, netsim::SimTime end) {
  samples_.clear();
  for (const traffic::Transaction* t : truth.all()) {
    if (t->start < begin || t->start >= end) continue;
    ScoreSample s;
    s.flow_id = t->flow_id;
    s.is_attack = t->is_attack;
    s.attack_kind = t->attack_kind;
    s.attack_stage = t->attack_stage;
    if (const FlowEvidence* ev = find(t->flow_id)) {
      s.has_evidence = true;
      s.critical_sensitivity = ev->critical_sensitivity;
      s.strict = ev->strict;
      s.strength = ev->max_strength;
    }
    samples_.push_back(s);
  }
  finalized_ = true;
}

void ScoreLedger::reset() {
  by_flow_.clear();
  samples_.clear();
  observations_ = 0;
  finalized_ = false;
}

}  // namespace idseval::score
