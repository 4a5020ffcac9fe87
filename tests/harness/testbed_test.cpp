#include "harness/testbed.hpp"

#include <stdexcept>

#include <gtest/gtest.h>

namespace idseval::harness {
namespace {

using attack::AttackKind;
using netsim::SimTime;

TestbedConfig quick_env() {
  TestbedConfig env;
  env.profile = traffic::rt_cluster_profile();
  env.internal_hosts = 6;
  env.external_hosts = 3;
  env.seed = 99;
  env.warmup = SimTime::from_sec(8);
  env.measure = SimTime::from_sec(20);
  env.drain = SimTime::from_sec(3);
  return env;
}

TEST(TestbedTest, BaselineRunsWithoutProduct) {
  Testbed bed(quick_env(), nullptr, 0.5);
  const RunResult r = bed.run_clean();
  EXPECT_EQ(r.product, "baseline");
  EXPECT_GT(r.transactions, 0u);
  EXPECT_EQ(r.attacks, 0u);
  EXPECT_EQ(r.detected, 0u);
  EXPECT_GT(r.offered_pps, 0.0);
  EXPECT_GT(r.mean_delivery_latency_sec, 0.0);
  EXPECT_EQ(bed.pipeline(), nullptr);
}

TEST(TestbedTest, AddressPoolsMatchConfig) {
  Testbed bed(quick_env(), nullptr, 0.5);
  EXPECT_EQ(bed.internal_addresses().size(), 6u);
  EXPECT_EQ(bed.external_addresses().size(), 3u);
  for (const auto addr : bed.internal_addresses()) {
    EXPECT_TRUE(addr.in_subnet(netsim::Ipv4(10, 0, 0, 0), 8));
  }
}

TEST(TestbedTest, MixedScenarioProducesConfusionCounts) {
  const auto& model =
      products::product(products::ProductId::kGuardSecure);
  Testbed bed(quick_env(), &model, 0.5);
  const auto scenario = attack::Scenario::mixed(
      2, SimTime::zero(), SimTime::from_sec(18), 7, 3, 6);
  const RunResult r = bed.run(scenario);

  EXPECT_EQ(r.attacks, scenario.size());
  EXPECT_EQ(r.true_detections + r.missed_attacks + r.prevented_attacks,
            r.attacks);
  EXPECT_EQ(r.detected, r.true_detections + r.false_alarms);
  EXPECT_GT(r.transactions, r.attacks);

  // Figure 3 identities.
  const double t = static_cast<double>(r.transactions);
  EXPECT_NEAR(r.fp_ratio, static_cast<double>(r.false_alarms) / t, 1e-12);
  EXPECT_NEAR(r.fn_ratio, static_cast<double>(r.missed_attacks) / t,
              1e-12);

  // Signature product catches the known kinds.
  EXPECT_EQ(r.per_kind.at(AttackKind::kWebExploit).detected,
            r.per_kind.at(AttackKind::kWebExploit).launched);
  EXPECT_EQ(r.per_kind.at(AttackKind::kNovelExploit).detected, 0u);
  EXPECT_GT(r.timeliness_mean_sec, 0.0);
  EXPECT_GE(r.timeliness_max_sec, r.timeliness_mean_sec);
}

TEST(TestbedTest, DeterministicAcrossIdenticalRuns) {
  const auto& model =
      products::product(products::ProductId::kSentryNid);
  const auto scenario = attack::Scenario::mixed(
      2, SimTime::zero(), SimTime::from_sec(18), 5, 3, 6);
  Testbed bed1(quick_env(), &model, 0.5);
  Testbed bed2(quick_env(), &model, 0.5);
  const RunResult a = bed1.run(scenario);
  const RunResult b = bed2.run(scenario);
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.true_detections, b.true_detections);
  EXPECT_EQ(a.false_alarms, b.false_alarms);
  EXPECT_DOUBLE_EQ(a.fp_ratio, b.fp_ratio);
  EXPECT_DOUBLE_EQ(a.timeliness_mean_sec, b.timeliness_mean_sec);
}

TEST(TestbedTest, DifferentSeedsDiffer) {
  const auto& model =
      products::product(products::ProductId::kSentryNid);
  TestbedConfig env1 = quick_env();
  TestbedConfig env2 = quick_env();
  env2.seed = 123456;
  Testbed bed1(env1, &model, 0.5);
  Testbed bed2(env2, &model, 0.5);
  const RunResult a = bed1.run_clean();
  const RunResult b = bed2.run_clean();
  EXPECT_NE(a.transactions, b.transactions);
}

TEST(TestbedTest, HostAgentsChargeCpu) {
  const auto& model =
      products::product(products::ProductId::kAgentSwarm);
  Testbed bed(quick_env(), &model, 0.5);
  const RunResult r = bed.run_clean();
  // C2-audit agents on every host must consume visible CPU.
  EXPECT_GT(r.mean_host_ids_cpu, 0.005);
  EXPECT_GE(r.max_host_ids_cpu, r.mean_host_ids_cpu);
}

TEST(TestbedTest, NetworkSensorsDoNotChargeHosts) {
  const auto& model =
      products::product(products::ProductId::kSentryNid);
  Testbed bed(quick_env(), &model, 0.5);
  const RunResult r = bed.run_clean();
  EXPECT_DOUBLE_EQ(r.max_host_ids_cpu, 0.0);
}

TEST(TestbedTest, FirewallBlocksObservedForCapableProduct) {
  const auto& model =
      products::product(products::ProductId::kGuardSecure);
  Testbed bed(quick_env(), &model, 0.6);
  // Several critical (severity 5) NOP-sled exploits trigger block policy.
  const auto scenario = attack::Scenario::of_kinds(
      {AttackKind::kWebExploit, AttackKind::kSmtpWorm}, 4, SimTime::zero(),
      SimTime::from_sec(15), 21, 3, 6);
  const RunResult r = bed.run(scenario);
  EXPECT_GT(r.alerts_raised, 0u);
  // SNMP traps fire for severity>=4 alerts on this product.
  EXPECT_GT(r.snmp_traps, 0u);
}

TEST(TestbedTest, StorageMeasured) {
  const auto& model =
      products::product(products::ProductId::kGuardSecure);
  Testbed bed(quick_env(), &model, 0.7);
  const auto scenario = attack::Scenario::mixed(
      2, SimTime::zero(), SimTime::from_sec(15), 3, 3, 6);
  const RunResult r = bed.run(scenario);
  EXPECT_GT(r.storage_bytes_per_mb, 0.0);
}

TEST(TestbedTest, RejectsShardsOtherThanOne) {
  // One event queue per testbed: any other shard count is refused at
  // construction instead of being silently run serially.
  TestbedConfig env = quick_env();
  env.shards = 2;
  EXPECT_THROW(Testbed(env, nullptr, 0.5), std::invalid_argument);
  env.shards = 0;
  EXPECT_THROW(Testbed(env, nullptr, 0.5), std::invalid_argument);
}

}  // namespace
}  // namespace idseval::harness
