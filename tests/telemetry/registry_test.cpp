#include "telemetry/registry.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <thread>
#include <utility>

namespace idseval::telemetry {
namespace {

TEST(RegistryTest, CounterHandleIsStableAndAccumulates) {
  Registry reg;
  Counter& c = reg.counter("stage.events");
  c.increment();
  c.increment(4);
  EXPECT_EQ(reg.counter("stage.events").value(), 5u);
  EXPECT_EQ(&reg.counter("stage.events"), &c);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(RegistryTest, LatencyStatRecordsMomentsAndHistogram) {
  Registry reg;
  LatencyStat& l = reg.latency("stage.wait");
  l.record(1e-3);
  l.record(3e-3);
  EXPECT_EQ(l.stats().count(), 2u);
  EXPECT_DOUBLE_EQ(l.stats().mean(), 2e-3);
  EXPECT_DOUBLE_EQ(l.stats().max(), 3e-3);
  EXPECT_EQ(l.histogram().count(), 2u);
  l.reset();
  EXPECT_EQ(l.stats().count(), 0u);
  EXPECT_EQ(l.histogram().count(), 0u);
}

TEST(RegistryTest, FindDoesNotCreate) {
  Registry reg;
  EXPECT_EQ(reg.find_counter("absent"), nullptr);
  EXPECT_EQ(reg.find_latency("absent"), nullptr);
  EXPECT_TRUE(reg.empty());
  reg.counter("present");
  EXPECT_NE(reg.find_counter("present"), nullptr);
  EXPECT_FALSE(reg.empty());
}

TEST(ScopedRegistryTest, InstallsAndRestores) {
  EXPECT_EQ(current(), nullptr);
  Registry outer;
  {
    ScopedRegistry outer_scope(&outer);
    EXPECT_EQ(current(), &outer);
    Registry inner;
    {
      ScopedRegistry inner_scope(&inner);
      EXPECT_EQ(current(), &inner);
    }
    EXPECT_EQ(current(), &outer);
  }
  EXPECT_EQ(current(), nullptr);
}

TEST(ScopedRegistryTest, IsThreadLocal) {
  Registry reg;
  ScopedRegistry scope(&reg);
  Registry* seen_on_thread = &reg;  // sentinel, overwritten below
  std::thread([&] { seen_on_thread = current(); }).join();
  EXPECT_EQ(seen_on_thread, nullptr);
  EXPECT_EQ(current(), &reg);
}

TEST(HandleTest, NullHandlesAreNoOps) {
  ASSERT_EQ(current(), nullptr);
  Counter* c = counter_handle("anything");
  LatencyStat* l = latency_handle("anything");
  EXPECT_EQ(c, nullptr);
  EXPECT_EQ(l, nullptr);
  bump(c);
  record(l, 1.0);
  reset(c);
  reset(l);
  count("anything");  // no registry installed: silently discarded
}

TEST(HandleTest, ResolveAgainstCurrentRegistry) {
  Registry reg;
  ScopedRegistry scope(&reg);
  Counter* c = counter_handle("x.count");
  LatencyStat* l = latency_handle("x.wait");
  ASSERT_NE(c, nullptr);
  ASSERT_NE(l, nullptr);
  bump(c, 3);
  record(l, 0.5);
  count("x.count", 2);
  EXPECT_EQ(reg.counter("x.count").value(), 5u);
  EXPECT_EQ(reg.latency("x.wait").stats().count(), 1u);
}

TEST(RegistryTest, MergeAddsCountersAndLatencies) {
  Registry a;
  Registry b;
  a.counter("n").increment(2);
  b.counter("n").increment(3);
  b.counter("only_b").increment(1);
  a.latency("w").record(1.0);
  b.latency("w").record(3.0);
  a.merge_from(b);
  EXPECT_EQ(a.counter("n").value(), 5u);
  EXPECT_EQ(a.counter("only_b").value(), 1u);
  EXPECT_EQ(a.latency("w").stats().count(), 2u);
  EXPECT_DOUBLE_EQ(a.latency("w").stats().mean(), 2.0);
  EXPECT_DOUBLE_EQ(a.latency("w").stats().max(), 3.0);
  EXPECT_EQ(a.latency("w").histogram().count(), 2u);
}

TEST(RegistryTest, MergeOrderInvariantForTotals) {
  Registry left;
  Registry right;
  Registry parts[2];
  parts[0].counter("c").increment(7);
  parts[0].latency("l").record(0.25);
  parts[1].counter("c").increment(5);
  parts[1].latency("l").record(0.75);
  left.merge_from(parts[0]);
  left.merge_from(parts[1]);
  right.merge_from(parts[1]);
  right.merge_from(parts[0]);
  EXPECT_EQ(left.counter("c").value(), right.counter("c").value());
  EXPECT_EQ(left.latency("l").stats().count(),
            right.latency("l").stats().count());
  EXPECT_DOUBLE_EQ(left.latency("l").stats().mean(),
                   right.latency("l").stats().mean());
}

TEST(RegistryTest, FixedMergeOrderIsBitReproducible) {
  // Running-moment merges do floating-point arithmetic, so the combined
  // MEAN of three parts is only guaranteed bit-identical when the parts
  // merge in the same order — which is why campaigns merge per-cell
  // registries in cell-index order. Two same-order merges must agree to
  // the last bit.
  auto build = [] {
    Registry parts[3];
    for (int p = 0; p < 3; ++p) {
      for (int i = 0; i < 50; ++i) {
        parts[p].latency("l").record(0.1 * (p + 1) + 1e-3 * i);
        parts[p].counter("c").increment(static_cast<std::uint64_t>(p + i));
      }
    }
    Registry total;
    for (const Registry& part : parts) total.merge_from(part);
    return std::pair{total.counter("c").value(),
                     total.latency("l").stats().mean()};
  };
  const auto a = build();
  const auto b = build();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.second),
            std::bit_cast<std::uint64_t>(b.second));
}

TEST(RegistryTest, ResetAfterMergeKeepsHandlesLive) {
  // A registry reused across runs: merge into an aggregate, then reset
  // in place. Handles taken before the reset must keep recording into
  // the same instruments.
  Registry part;
  Counter& c = part.counter("x");
  c.increment(4);
  Registry total;
  total.merge_from(part);
  part.reset();
  EXPECT_EQ(part.counter("x").value(), 0u);
  c.increment(2);
  EXPECT_EQ(part.counter("x").value(), 2u);
  EXPECT_EQ(total.counter("x").value(), 4u);
}

TEST(SnapshotTest, ReadsPipelineInstruments) {
  Registry reg;
  reg.counter(names::kPipelineTapped).increment(100);
  reg.counter(names::kSensorOffered).increment(90);
  reg.counter(names::kSensorDetections).increment(7);
  reg.counter(names::kMonitorAlerts).increment(3);
  reg.latency(names::kSensorService).record(2e-5);
  const PipelineSnapshot snap = snapshot_pipeline(reg);
  EXPECT_EQ(snap.tapped, 100u);
  EXPECT_EQ(snap.sensor_offered, 90u);
  EXPECT_EQ(snap.detections, 7u);
  EXPECT_EQ(snap.alerts, 3u);
  EXPECT_EQ(snap.sensor_service.count, 1u);
  EXPECT_DOUBLE_EQ(snap.sensor_service.mean_sec, 2e-5);
  EXPECT_FALSE(snap.empty());
}

TEST(SnapshotTest, EmptyRegistryYieldsEmptySnapshot) {
  Registry reg;
  const PipelineSnapshot snap = snapshot_pipeline(reg);
  EXPECT_TRUE(snap.empty());
  EXPECT_EQ(snap.tapped, 0u);
  EXPECT_EQ(snap.sensor_service.count, 0u);
}

TEST(SnapshotTest, SummaryP99NeverExceedsMax) {
  // The log2 histogram estimates quantiles at bucket midpoints; the
  // summary must clamp them so p99 <= max (0.25 sits at the bottom of
  // its [0.25, 0.5) bucket, whose midpoint is 0.375).
  LatencyStat l;
  for (int i = 0; i < 100; ++i) l.record(0.25);
  const StageSummary s = summarize(l);
  EXPECT_DOUBLE_EQ(s.max_sec, 0.25);
  EXPECT_LE(s.p99_sec, s.max_sec);
}

TEST(RenderTest, TelemetrySectionShowsCountersAndStages) {
  Registry reg;
  reg.counter(names::kPipelineTapped).increment(10);
  reg.counter(names::kSensorOffered).increment(10);
  reg.latency(names::kSensorService).record(1e-4);
  const std::string text = render_telemetry(snapshot_pipeline(reg));
  EXPECT_NE(text.find("Pipeline telemetry"), std::string::npos);
  EXPECT_NE(text.find("tapped=10"), std::string::npos);
  EXPECT_NE(text.find("sensor.service"), std::string::npos);
}

TEST(FmtDurationTest, PicksAdaptiveUnits) {
  EXPECT_EQ(fmt_duration(5e-7), "500.0ns");
  EXPECT_EQ(fmt_duration(5e-4), "500.0us");
  EXPECT_EQ(fmt_duration(5e-2), "50.00ms");
  EXPECT_EQ(fmt_duration(2.0), "2.000s");
  EXPECT_EQ(fmt_duration(0.0), "0");
}

}  // namespace
}  // namespace idseval::telemetry
