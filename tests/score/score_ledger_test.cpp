// ScoreLedger semantics: earliest-firing evidence wins per flow, raw
// strength is a running maximum across channels, and finalize joins the
// recorded evidence against the ground-truth ledger with the same
// [begin, end) start-time window the testbed scores with.
#include "score/ledger.hpp"

#include <gtest/gtest.h>

namespace idseval::score {
namespace {

using ids::EvidenceChannel;
using netsim::SimTime;

netsim::FiveTuple tuple(std::uint8_t host) {
  netsim::FiveTuple t;
  t.src_ip = netsim::Ipv4{192, 168, 0, host};
  t.dst_ip = netsim::Ipv4{10, 0, 0, 1};
  t.src_port = 40000;
  t.dst_port = 80;
  return t;
}

TEST(ScoreLedgerTest, KeepsTheEarliestFiringEvidence) {
  ScoreLedger ledger;
  ledger.observe(1, EvidenceChannel::kSignaturePattern, 0.9, 0.7,
                 /*strict=*/false);
  ledger.observe(1, EvidenceChannel::kAnomaly, 2.0, 0.3, /*strict=*/true);
  ledger.observe(1, EvidenceChannel::kNovelty, 0.1, 0.5, /*strict=*/false);

  ASSERT_NE(ledger.find(1), nullptr);
  const ScoreLedger::FlowEvidence& ev = *ledger.find(1);
  EXPECT_DOUBLE_EQ(ev.critical_sensitivity, 0.3);
  EXPECT_TRUE(ev.strict);
  EXPECT_EQ(ev.channel, EvidenceChannel::kAnomaly);
  EXPECT_DOUBLE_EQ(ev.max_strength, 2.0);  // max over all three channels
  EXPECT_EQ(ev.observations, 3u);
  EXPECT_EQ(ledger.flows(), 1u);
  EXPECT_EQ(ledger.observations(), 3u);
}

TEST(ScoreLedgerTest, InclusiveBeatsStrictOnEqualCritical) {
  ScoreLedger ledger;
  ledger.observe(1, EvidenceChannel::kAnomaly, 1.0, 0.5, /*strict=*/true);
  ledger.observe(1, EvidenceChannel::kSignaturePattern, 0.5, 0.5,
                 /*strict=*/false);
  EXPECT_FALSE(ledger.find(1)->strict);
  EXPECT_EQ(ledger.find(1)->channel, EvidenceChannel::kSignaturePattern);

  // The reverse order must converge to the same winner.
  ScoreLedger reversed;
  reversed.observe(1, EvidenceChannel::kSignaturePattern, 0.5, 0.5,
                   /*strict=*/false);
  reversed.observe(1, EvidenceChannel::kAnomaly, 1.0, 0.5, /*strict=*/true);
  EXPECT_FALSE(reversed.find(1)->strict);
  EXPECT_EQ(reversed.find(1)->channel, EvidenceChannel::kSignaturePattern);
}

TEST(ScoreLedgerTest, FinalizeWindowsOnTransactionStart) {
  traffic::TransactionLedger truth;
  truth.begin(1, tuple(1), SimTime::from_sec(1), /*is_attack=*/true, 0);
  truth.begin(2, tuple(2), SimTime::from_sec(5), /*is_attack=*/false);
  truth.begin(3, tuple(3), SimTime::from_sec(20), /*is_attack=*/true, 1);

  ScoreLedger ledger;
  ledger.observe(1, EvidenceChannel::kSignaturePattern, 0.8, 0.2,
                 /*strict=*/false);
  // Flow 3 has evidence too, but starts outside the window.
  ledger.observe(3, EvidenceChannel::kAnomaly, 4.0, 0.1, /*strict=*/true);

  ledger.finalize(truth, SimTime::from_sec(0), SimTime::from_sec(10));
  EXPECT_TRUE(ledger.finalized());
  ASSERT_EQ(ledger.samples().size(), 2u);

  const ScoreSample& attack = ledger.samples()[0];
  EXPECT_EQ(attack.flow_id, 1u);
  EXPECT_TRUE(attack.is_attack);
  EXPECT_TRUE(attack.has_evidence);
  EXPECT_DOUBLE_EQ(attack.critical_sensitivity, 0.2);
  EXPECT_DOUBLE_EQ(attack.strength, 0.8);

  const ScoreSample& benign = ledger.samples()[1];
  EXPECT_EQ(benign.flow_id, 2u);
  EXPECT_FALSE(benign.is_attack);
  EXPECT_FALSE(benign.has_evidence);
  EXPECT_DOUBLE_EQ(benign.critical_sensitivity, kNeverFires);
}

TEST(ScoreLedgerTest, ResetClearsEverything) {
  ScoreLedger ledger;
  ledger.observe(1, EvidenceChannel::kSignaturePattern, 0.5, 0.5, false);
  traffic::TransactionLedger truth;
  truth.begin(1, tuple(1), SimTime::from_sec(1), true, 0);
  ledger.finalize(truth, SimTime::zero(), SimTime::from_sec(10));

  ledger.reset();
  EXPECT_EQ(ledger.flows(), 0u);
  EXPECT_EQ(ledger.observations(), 0u);
  EXPECT_FALSE(ledger.finalized());
  EXPECT_TRUE(ledger.samples().empty());
}

}  // namespace
}  // namespace idseval::score
