// ScoreLedger: records, per flow, the strongest continuous detector
// evidence observed during a measurement window — the earliest-firing
// critical sensitivity across every engine channel plus the raw score
// behind it. Joined against the ground-truth TransactionLedger it yields
// the ScoreSamples that RocCurve turns into a full sensitivity sweep
// offline. The ledger is an ids::EvidenceSink, installed on a pipeline
// via Pipeline::set_evidence_sink; it is off by default and attaching it
// never changes detection output (golden determinism hash untouched).
#pragma once

#include <cstdint>
#include <vector>

#include "ids/evidence.hpp"
#include "netsim/sim_time.hpp"
#include "score/roc.hpp"
#include "traffic/ledger.hpp"
#include "util/flow_table.hpp"

namespace idseval::score {

class ScoreLedger final : public ids::EvidenceSink {
 public:
  ScoreLedger();

  /// Running per-flow maximum of evidence: the observation that fires at
  /// the lowest sensitivity wins (non-strict beats strict on a tie,
  /// because it fires at the critical value itself).
  struct FlowEvidence {
    double critical_sensitivity = kNeverFires;
    bool strict = true;
    ids::EvidenceChannel channel = ids::EvidenceChannel::kSignaturePattern;
    double max_strength = 0.0;  ///< Strongest raw score on any channel.
    std::uint64_t observations = 0;
  };

  void observe(std::uint64_t flow_id, ids::EvidenceChannel channel,
               double strength, double critical_sensitivity,
               bool strict_trigger) override;

  std::size_t flows() const noexcept { return by_flow_.size(); }
  std::uint64_t observations() const noexcept { return observations_; }
  const FlowEvidence* find(std::uint64_t flow_id) const;

  /// Joins recorded evidence with ground truth: one ScoreSample per
  /// transaction whose start lies in [begin, end) — the same windowing
  /// the testbed uses when scoring a run. Stores the result for
  /// samples(); callable once per run (the harness calls it while
  /// collecting).
  void finalize(const traffic::TransactionLedger& truth,
                netsim::SimTime begin, netsim::SimTime end);

  bool finalized() const noexcept { return finalized_; }
  const std::vector<ScoreSample>& samples() const noexcept {
    return samples_;
  }

  /// Clears all recorded evidence and finalized samples for reuse.
  void reset();

 private:
  util::FlowTable<std::uint64_t, FlowEvidence> by_flow_;
  std::vector<ScoreSample> samples_;
  std::uint64_t observations_ = 0;
  bool finalized_ = false;
};

}  // namespace idseval::score
