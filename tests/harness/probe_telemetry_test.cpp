// Probe-telemetry accumulation (harness.probes and load-probe stage
// counters): every load measurement that is handed a Registry must
// record one harness.probes bump per probe simulation on its search
// path and fold those probes' stage telemetry into the accumulator, in
// path order — although the probes ran on thread-pool workers, which
// never inherit an ambient registry.
#include "harness/measure.hpp"

#include <gtest/gtest.h>

#include "harness/evaluate.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

namespace idseval::harness {
namespace {

using netsim::SimTime;

TestbedConfig tiny_env() {
  TestbedConfig env;
  env.profile = traffic::rt_cluster_profile();
  env.internal_hosts = 4;
  env.external_hosts = 2;
  env.seed = 23;
  env.warmup = SimTime::from_sec(4);
  env.measure = SimTime::from_sec(8);
  env.drain = SimTime::from_sec(2);
  return env;
}

std::uint64_t probes(const telemetry::Registry& reg) {
  const telemetry::Counter* c =
      reg.find_counter(telemetry::names::kHarnessProbes);
  return c != nullptr ? c->value() : 0;
}

TEST(ProbeTelemetryTest, LoadSweepCountsOneProbePerRatePoint) {
  const auto& model = products::product(products::ProductId::kSentryNid);
  telemetry::Registry reg;
  RunContext ctx(&reg);
  const auto points =
      load_sweep(tiny_env(), model, 0.5, {1.0, 2.0, 4.0}, &ctx);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(probes(reg), 3u);
  // Pool workers have no ambient registry; the accumulator must still
  // have received the probes' stage traffic.
  const telemetry::Counter* offered =
      reg.find_counter(telemetry::names::kSensorOffered);
  ASSERT_NE(offered, nullptr);
  EXPECT_GT(offered->value(), 0u);
}

TEST(ProbeTelemetryTest, InducedLatencyCountsBothSimulations) {
  const auto& model = products::product(products::ProductId::kSentryNid);
  telemetry::Registry reg;
  RunContext ctx(&reg);
  const double latency =
      measure_induced_latency_sec(tiny_env(), model, 0.5, &ctx);
  EXPECT_GE(latency, 0.0);
  // Product run plus no-IDS baseline.
  EXPECT_EQ(probes(reg), 2u);
}

TEST(ProbeTelemetryTest, LethalDoseSearchAccumulatesSequentially) {
  const auto& model = products::product(products::ProductId::kSentryNid);
  telemetry::Registry reg;
  RunContext ctx(&reg);
  // Scales 2.0 and 3.2 fit under max_scale 4.0: two probes.
  const auto dose = measure_lethal_dose_pps(tiny_env(), model, 0.5,
                                            /*max_scale=*/4.0, &ctx);
  EXPECT_FALSE(dose.has_value());
  EXPECT_EQ(probes(reg), 2u);
}

TEST(ProbeTelemetryTest, NullAccumulatorKeepsAmbientBehaviour) {
  const auto& model = products::product(products::ProductId::kSentryNid);
  telemetry::Registry ambient;
  telemetry::ScopedRegistry scope(&ambient);
  // With no accumulator the path probes merge into the ambient
  // registry, exactly as before the accumulator existed.
  (void)measure_lethal_dose_pps(tiny_env(), model, 0.5, /*max_scale=*/4.0,
                                nullptr);
  EXPECT_EQ(probes(ambient), 2u);
}

TEST(ProbeTelemetryTest, LoadMetricsTelemetryIsIdenticalAtAnyPoolSize) {
  // Speculative probes run or are skipped depending on timing; only the
  // probes on the search paths merge, in path order, so the serialized
  // accumulator is the same on every run and at every pool size.
  // A thin profile and a slow sensor keep the 96x-128x ladders cheap
  // and put the zero-loss knee and the lethal dose low on their ranges.
  TestbedConfig env = tiny_env();
  env.profile.flows_per_sec *= 0.1;
  products::ProductModel model =
      products::product(products::ProductId::kSentryNid);
  model.make_config = [](double s) {
    auto c = products::product(products::ProductId::kSentryNid)
                 .make_config(s);
    c.sensor.ops_per_sec = 2e7;
    return c;
  };
  std::string first;
  LoadMetrics first_metrics;
  for (const std::size_t threads : {1u, 4u}) {
    // measure_load_metrics on a pool of `threads`.
    telemetry::Registry reg;
    ProbeScheduler s(
        [&](ProbeKind kind, double scale) {
          return run_load_probe(env, model, 0.5, kind, scale);
        },
        &reg, threads);
    const LoadMetrics m = run(s, LoadMetricsSearch{env.rate_scale});
    const std::string json = telemetry::to_json(reg);
    if (first.empty()) {
      first = json;
      first_metrics = m;
      EXPECT_GT(probes(reg), 0u);
      continue;
    }
    EXPECT_EQ(json, first) << "threads " << threads;
    EXPECT_EQ(m.zero_loss_pps, first_metrics.zero_loss_pps);
    EXPECT_EQ(m.system_throughput_pps, first_metrics.system_throughput_pps);
    EXPECT_EQ(m.lethal_dose_pps, first_metrics.lethal_dose_pps);
    EXPECT_EQ(m.induced_latency_sec, first_metrics.induced_latency_sec);
  }
  // And once more through the public entry point, on one thread per
  // core.
  telemetry::Registry reg;
  RunContext ctx(&reg);
  const LoadMetrics m = measure_load_metrics(env, model, 0.5, &ctx);
  EXPECT_EQ(telemetry::to_json(reg), first);
  EXPECT_EQ(m.zero_loss_pps, first_metrics.zero_loss_pps);
}

TEST(ProbeTelemetryTest, WindowCountersSumOverPathProbes) {
  // Each probe records into its own registry, so a window-scoped counter
  // is the sum over the path's probes, not the last probe's window.
  const auto& model = products::product(products::ProductId::kSentryNid);
  const std::vector<double> scales = {1.0, 2.0};
  std::uint64_t summed = 0;
  for (const double scale : scales) {
    telemetry::Registry one;
    RunContext ctx(&one);
    (void)load_sweep(tiny_env(), model, 0.5, {scale}, &ctx);
    summed += one.find_counter(telemetry::names::kSensorOffered)->value();
  }
  telemetry::Registry both;
  RunContext ctx(&both);
  (void)load_sweep(tiny_env(), model, 0.5, scales, &ctx);
  EXPECT_EQ(both.find_counter(telemetry::names::kSensorOffered)->value(),
            summed);
}

TEST(ProbeTelemetryTest, SkippedLoadMetricsLeaveRegistryEmpty) {
  const auto& model = products::product(products::ProductId::kSentryNid);
  EvaluationOptions options;
  options.attacks_per_kind = 1;
  options.include_load_metrics = false;
  const Evaluation eval = evaluate_product(tiny_env(), model, options);
  EXPECT_TRUE(eval.measured.load_probe_telemetry.empty());
}

}  // namespace
}  // namespace idseval::harness
