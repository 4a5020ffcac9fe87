// Cross-module integration: full testbed evaluations exercising the
// paper's methodology end to end, parameterized across products and
// environments (TEST_P property sweeps on the Figure 3 invariants).
#include <gtest/gtest.h>

#include "core/report.hpp"
#include "harness/evaluate.hpp"
#include "products/catalog.hpp"
#include "products/scoring.hpp"
#include "traffic/trace.hpp"

namespace idseval {
namespace {

using harness::RunResult;
using harness::Testbed;
using harness::TestbedConfig;
using netsim::SimTime;
using products::ProductId;

TestbedConfig env_for(const std::string& profile, std::uint64_t seed) {
  TestbedConfig env;
  env.profile = traffic::profile_by_name(profile);
  env.internal_hosts = 6;
  env.external_hosts = 3;
  env.seed = seed;
  env.warmup = SimTime::from_sec(8);
  env.measure = SimTime::from_sec(20);
  env.drain = SimTime::from_sec(3);
  return env;
}

struct Case {
  ProductId product;
  const char* profile;
  std::uint64_t seed;
};

// Names each case after its contents. Without this gtest prints the raw
// object bytes (padding and a string pointer), so the registered test
// names changed from build to build.
void PrintTo(const Case& c, std::ostream* os) {
  *os << products::to_string(c.product) << '_' << c.profile << "_seed"
      << c.seed;
}

class ConfusionInvariants : public ::testing::TestWithParam<Case> {};

TEST_P(ConfusionInvariants, Figure3Identities) {
  const Case c = GetParam();
  const auto& model = products::product(c.product);
  Testbed bed(env_for(c.profile, c.seed), &model, 0.5);
  const auto scenario = attack::Scenario::mixed(
      2, SimTime::zero(), SimTime::from_sec(18), c.seed ^ 0xbeef, 3, 6);
  const RunResult r = bed.run(scenario);

  // Set identities of Figure 3.
  EXPECT_EQ(r.attacks + (r.transactions - r.attacks), r.transactions);
  EXPECT_EQ(r.true_detections + r.missed_attacks + r.prevented_attacks,
            r.attacks);
  EXPECT_EQ(r.detected, r.true_detections + r.false_alarms);

  // Ratio bounds: FP + FN <= 1, each in [0, 1].
  EXPECT_GE(r.fp_ratio, 0.0);
  EXPECT_GE(r.fn_ratio, 0.0);
  EXPECT_LE(r.fp_ratio + r.fn_ratio, 1.0);

  // FN bounded by the attack share of transactions.
  EXPECT_LE(r.fn_ratio,
            static_cast<double>(r.attacks) /
                    static_cast<double>(r.transactions) +
                1e-12);

  // Per-kind counts sum to the global counts.
  std::size_t launched = 0;
  std::size_t detected = 0;
  std::size_t prevented = 0;
  for (const auto& [kind, outcome] : r.per_kind) {
    launched += outcome.launched;
    detected += outcome.detected;
    prevented += outcome.prevented;
    EXPECT_LE(outcome.detected + outcome.prevented, outcome.launched);
  }
  EXPECT_EQ(launched, r.attacks);
  EXPECT_EQ(detected, r.true_detections);
  EXPECT_EQ(prevented, r.prevented_attacks);

  // Timeliness only meaningful when something was detected.
  if (r.true_detections > 0) {
    EXPECT_GT(r.timeliness_mean_sec, 0.0);
    EXPECT_LE(r.timeliness_mean_sec, r.timeliness_max_sec);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProductsAndProfiles, ConfusionInvariants,
    ::testing::Values(
        Case{ProductId::kSentryNid, "rt_cluster", 1},
        Case{ProductId::kSentryNid, "ecommerce", 2},
        Case{ProductId::kGuardSecure, "rt_cluster", 3},
        Case{ProductId::kGuardSecure, "office", 4},
        Case{ProductId::kFlowHunt, "rt_cluster", 5},
        Case{ProductId::kFlowHunt, "ecommerce", 6},
        Case{ProductId::kAgentSwarm, "rt_cluster", 7},
        Case{ProductId::kAgentSwarm, "office", 8}));

TEST(EndToEndTest, DetectionSurfacesMatchEngineTypes) {
  // The paper's §2.1 claim, observed end to end: signature products miss
  // novel attacks; the anomaly product catches them; the hybrid research
  // system catches both families.
  const auto env = env_for("rt_cluster", 42);
  const auto scenario = attack::Scenario::mixed(
      3, SimTime::zero(), SimTime::from_sec(18), 4242, 3, 6);

  auto run_product = [&](ProductId id) {
    Testbed bed(env, &products::product(id), 0.5);
    return bed.run(scenario);
  };

  const RunResult sentry = run_product(ProductId::kSentryNid);
  EXPECT_EQ(sentry.per_kind.at(attack::AttackKind::kNovelExploit).detected,
            0u);
  EXPECT_EQ(sentry.per_kind.at(attack::AttackKind::kWebExploit).detected,
            3u);

  const RunResult flowhunt = run_product(ProductId::kFlowHunt);
  EXPECT_GT(flowhunt.per_kind.at(attack::AttackKind::kNovelExploit)
                .detected,
            0u);
  EXPECT_GT(flowhunt.per_kind.at(attack::AttackKind::kDnsTunnel).detected,
            0u);

  const RunResult swarm = run_product(ProductId::kAgentSwarm);
  EXPECT_GT(swarm.per_kind.at(attack::AttackKind::kNovelExploit).detected,
            0u);
  EXPECT_GT(swarm.per_kind.at(attack::AttackKind::kWebExploit).detected,
            0u);

  // Anomaly-based products pay for the coverage in Type I errors.
  EXPECT_GT(flowhunt.false_alarms, sentry.false_alarms);
}

TEST(EndToEndTest, AnomalyProductNoisierOnDiverseTraffic) {
  // §4: commercial environments with diverse content make behaviour-based
  // detection noisier than a tuned cluster does.
  const auto scenario = attack::Scenario::mixed(
      2, SimTime::zero(), SimTime::from_sec(18), 9, 3, 6);
  const auto& model = products::product(ProductId::kFlowHunt);

  Testbed cluster(env_for("rt_cluster", 77), &model, 0.6);
  const RunResult on_cluster = cluster.run(scenario);
  Testbed shop(env_for("ecommerce", 77), &model, 0.6);
  const RunResult on_shop = shop.run(scenario);

  const double cluster_fp_pct =
      static_cast<double>(on_cluster.false_alarms) /
      static_cast<double>(on_cluster.transactions - on_cluster.attacks);
  const double shop_fp_pct =
      static_cast<double>(on_shop.false_alarms) /
      static_cast<double>(on_shop.transactions - on_shop.attacks);
  EXPECT_GT(shop_fp_pct, cluster_fp_pct);
}

TEST(EndToEndTest, FullEvaluationRendersCompleteTables) {
  const auto env = env_for("rt_cluster", 55);
  harness::EvaluationOptions opt;
  opt.include_load_metrics = false;
  std::vector<core::Scorecard> cards;
  for (const auto id : products::commercial_products()) {
    cards.push_back(
        harness::evaluate_product(env, products::product(id), opt).card);
  }
  const std::string t1 = core::render_metric_table(
      "Table 1", core::table1_logistical_metrics(), cards);
  const std::string t3 = core::render_metric_table(
      "Table 3", core::table3_performance_metrics(), cards);
  for (const auto& card : cards) {
    EXPECT_NE(t1.find(card.product()), std::string::npos);
    EXPECT_NE(t3.find(card.product()), std::string::npos);
  }
  // Every Table 1 metric row must be scored (no "-" cells in class 1).
  EXPECT_EQ(t1.find(" - "), std::string::npos) << t1;

  const core::WeightSet weights =
      core::realtime_distributed_requirements().derive_weights();
  const std::string summary =
      core::render_weighted_summary("Ranking", cards, weights);
  EXPECT_NE(summary.find("Rank"), std::string::npos);
}

TEST(EndToEndTest, RepeatedEvaluationIsBitIdentical) {
  // The methodology's headline property: "Using a standard as the basis
  // for comparison gives us scientific repeatability" (§1).
  const auto env = env_for("office", 1234);
  harness::EvaluationOptions opt;
  opt.include_load_metrics = false;
  const auto& model = products::product(ProductId::kGuardSecure);
  const auto a = harness::evaluate_product(env, model, opt);
  const auto b = harness::evaluate_product(env, model, opt);
  ASSERT_EQ(a.card.size(), b.card.size());
  for (const auto& [id, entry] : a.card.entries()) {
    EXPECT_EQ(entry.score, b.card.at(id).score) << core::to_string(id);
    EXPECT_EQ(entry.note, b.card.at(id).note) << core::to_string(id);
  }
}

TEST(EndToEndTest, TraceReplayReproducesDetections) {
  // Record a run's attack traffic from the switch mirror, replay it into
  // a fresh testbed, and verify the signature IDS flags the replayed
  // attacks — the §4 canned-data methodology end to end.
  traffic::Trace trace;
  {
    netsim::Simulator sim;
    netsim::Network net(sim);
    net.add_host("victim", netsim::Ipv4(10, 0, 0, 2));
    net.add_external_host("attacker", netsim::Ipv4(198, 51, 100, 1));
    traffic::TransactionLedger ledger;
    attack::AttackEmitter emitter(sim, net, ledger, 3);
    net.lan_switch().add_mirror([&](const netsim::Packet& p) {
      trace.append_absolute(sim.now(), p);
    });
    emitter.launch(attack::AttackKind::kWebExploit,
                   netsim::Ipv4(198, 51, 100, 1), netsim::Ipv4(10, 0, 0, 2),
                   SimTime::from_ms(5));
    sim.run_until();
  }
  ASSERT_FALSE(trace.empty());

  // Round-trip through serialization, then replay against SentryNID.
  const traffic::Trace canned =
      traffic::Trace::deserialize(trace.serialize());
  netsim::Simulator sim;
  netsim::Network net(sim);
  net.add_host("victim", netsim::Ipv4(10, 0, 0, 2));
  net.add_external_host("attacker", netsim::Ipv4(198, 51, 100, 1));
  ids::Pipeline pipeline(
      sim, net,
      products::product(ProductId::kSentryNid).make_config(0.5));
  pipeline.attach();
  pipeline.set_learning(false);
  canned.replay(sim, net, SimTime::from_ms(1));
  sim.run_until();
  EXPECT_GE(pipeline.monitor().log().size(), 1u);
}

}  // namespace
}  // namespace idseval
