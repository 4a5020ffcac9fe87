// The speculative probe searches against the sequential oracle: on
// randomized synthetic outcome tables (monotone and non-monotone loss),
// the parallel walk must return the same value and take its probes in
// the same order as a one-probe-at-a-time search, at any pool size. Plus
// the scheduler's own contract: memoization, lane order, cancellation,
// path-only telemetry and error propagation.
#include "harness/probe_search.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <future>
#include <map>
#include <mutex>
#include <stdexcept>

#include "harness/measure.hpp"
#include "probe_search_oracle.hpp"
#include "util/rng.hpp"

namespace idseval::harness {
namespace {

/// A synthetic outcome table: every probe is a pure function of
/// (seed, kind, exact scale). Loss appears past a random knee; with
/// `noisy`, a quarter of the scales below the knee also lose packets,
/// so the loss curve is not monotone.
struct SyntheticTable {
  std::uint64_t seed = 0;
  double knee = 0.0;
  double dose = 0.0;
  bool noisy = false;

  std::uint64_t draw(double scale) const {
    return util::derive_seed(seed, std::bit_cast<std::uint64_t>(scale));
  }
  LoadPoint operator()(double scale) const {
    const std::uint64_t h = draw(scale);
    LoadPoint p;
    p.rate_scale = scale;
    p.offered_pps = 1000.0 * scale + static_cast<double>(h % 97);
    p.processed_pps = p.offered_pps * (scale > knee ? 0.5 : 1.0);
    const bool lossy = scale > knee || (noisy && h % 4 == 0);
    p.loss_ratio = lossy ? 0.01 : 0.0;
    const bool dies = scale > dose || (noisy && (h >> 8) % 5 == 0);
    p.failures = dies ? 1 : 0;
    return p;
  }

  static SyntheticTable random(util::Rng& rng, double max_scale) {
    SyntheticTable t;
    t.seed = rng.next();
    t.knee = rng.uniform(0.0, 1.3 * max_scale);
    t.dose = rng.uniform(0.0, 1.3 * max_scale);
    t.noisy = rng.chance(0.5);
    return t;
  }
};

ProbeScheduler::Probe probe_of(const SyntheticTable& table) {
  return [table](ProbeKind, double scale) { return table(scale); };
}

std::vector<double> scales_of(const ProbeScheduler& s) {
  std::vector<double> scales;
  for (const auto& [kind, scale] : s.path()) scales.push_back(scale);
  return scales;
}

constexpr double kMaxScales[] = {0.5, 1.0, 16.0, 64.0, 96.0, 100.0};

TEST(ProbeSearchTest, ZeroLossMatchesSequentialOracle) {
  util::Rng rng(0x5eed);
  for (int trial = 0; trial < 240; ++trial) {
    const double max_scale = kMaxScales[trial % std::size(kMaxScales)];
    const SyntheticTable table = SyntheticTable::random(rng, max_scale);
    const ZeroLossSearch search{max_scale, 1e-4,
                                static_cast<int>(rng.uniform_u64(0, 8))};
    const oracle::ZeroLossResult want = oracle::sequential_zero_loss(
        table, search.max_scale, search.loss_epsilon, search.iterations);
    for (const std::size_t threads : {1u, 4u}) {
      ProbeScheduler s(probe_of(table), nullptr, threads);
      const double got = run(s, search);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(want.pps))
          << "trial " << trial << " threads " << threads;
      EXPECT_EQ(scales_of(s), want.path)
          << "trial " << trial << " threads " << threads;
    }
  }
}

TEST(ProbeSearchTest, LethalDoseMatchesSequentialOracle) {
  util::Rng rng(0xd05e);
  for (int trial = 0; trial < 240; ++trial) {
    const double max_scale = 4.0 * kMaxScales[trial % std::size(kMaxScales)];
    const SyntheticTable table = SyntheticTable::random(rng, max_scale);
    const oracle::LethalDoseResult want =
        oracle::sequential_lethal_dose(table, max_scale);
    for (const std::size_t threads : {1u, 4u}) {
      ProbeScheduler s(probe_of(table), nullptr, threads);
      const std::optional<double> got = run(s, LethalDoseSearch{max_scale});
      EXPECT_EQ(got, want.pps) << "trial " << trial;
      EXPECT_EQ(scales_of(s), want.path) << "trial " << trial;
    }
  }
}

TEST(ProbeSearchTest, SharedSchedulerRunsEachProbeOnce) {
  // The zero-loss bracket and the throughput ladder overlap (32x and 96x
  // are on both); one scheduler runs every (kind, scale) at most once.
  std::mutex mutex;
  std::map<std::pair<ProbeKind, double>, int> runs;
  const SyntheticTable table{7, 40.0, 1e9, false};
  ProbeScheduler s(
      [&](ProbeKind kind, double scale) {
        std::scoped_lock lock(mutex);
        ++runs[{kind, scale}];
        return table(scale);
      },
      nullptr, 4);
  const ZeroLossSearch zero_loss{96.0, 1e-4, 7};
  const ThroughputLadder ladder{96.0};
  zero_loss.launch(s);
  ladder.launch(s);
  EXPECT_EQ(zero_loss.walk(s),
            oracle::sequential_zero_loss(table, 96.0, 1e-4, 7).pps);
  EXPECT_GT(ladder.walk(s), 0.0);
  std::scoped_lock lock(mutex);
  for (const auto& [key, n] : runs) EXPECT_EQ(n, 1) << key.second;
  EXPECT_EQ(runs.count({ProbeKind::kClean, 32.0}), 1u);
}

TEST(ProbeSearchTest, TelemetryMergesPathProbesOnceAtAnyPoolSize) {
  // Each synthetic probe records its scale; the sink must hold exactly
  // the distinct scales on the path, whatever ran speculatively.
  const SyntheticTable table{11, 20.0, 1e9, true};
  const auto probe = [&table](ProbeKind, double scale) {
    telemetry::count("probe.runs");
    telemetry::count("probe.scale_sum", static_cast<std::uint64_t>(scale));
    return table(scale);
  };
  std::string first;
  for (const std::size_t threads : {1u, 2u, 4u, 4u}) {
    telemetry::Registry sink;
    ProbeScheduler s(probe, &sink, threads);
    const ZeroLossSearch zero_loss{64.0, 1e-4, 6};
    const ThroughputLadder ladder{64.0};
    zero_loss.launch(s);
    ladder.launch(s);
    zero_loss.walk(s);
    ladder.walk(s);
    std::map<double, int> distinct;
    for (const auto& [kind, scale] : s.path()) ++distinct[scale];
    EXPECT_EQ(sink.find_counter("probe.runs")->value(), distinct.size());
    const std::string json = telemetry::to_json(sink);
    if (first.empty()) first = json;
    EXPECT_EQ(json, first) << "threads " << threads;
  }
}

TEST(ProbeSearchTest, CriticalLaneStartsFirstAndCancelledProbesSkip) {
  // One worker, held by a gate probe while the queue fills up.
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::mutex mutex;
  std::vector<double> order;
  ProbeScheduler s(
      [&](ProbeKind, double scale) {
        if (scale == 0.0) open.wait();
        std::scoped_lock lock(mutex);
        order.push_back(scale);
        return LoadPoint{};
      },
      nullptr, 1);
  s.launch(ProbeKind::kClean, 0.0, ProbeLane::kCritical);
  s.launch(ProbeKind::kClean, 1.0, ProbeLane::kLadder);
  s.launch(ProbeKind::kClean, 2.0, ProbeLane::kLadder);
  s.launch(ProbeKind::kClean, 3.0, ProbeLane::kCritical);
  s.launch(ProbeKind::kClean, 4.0, ProbeLane::kLadder);
  s.cancel(ProbeKind::kClean, 4.0);
  // A ladder probe the critical walk also asks for is upgraded.
  s.launch(ProbeKind::kClean, 2.0, ProbeLane::kCritical);
  gate.set_value();
  s.take(ProbeKind::kClean, 0.0);
  s.take(ProbeKind::kClean, 1.0);
  s.take(ProbeKind::kClean, 2.0);
  s.take(ProbeKind::kClean, 3.0);
  std::scoped_lock lock(mutex);
  EXPECT_EQ(order, (std::vector<double>{0.0, 3.0, 2.0, 1.0}));
}

TEST(ProbeSearchTest, TakeWithoutLaunchRunsTheProbe) {
  ProbeScheduler s(probe_of(SyntheticTable{3, 5.0, 5.0, false}), nullptr,
                   2);
  EXPECT_EQ(s.take(ProbeKind::kClean, 2.0).rate_scale, 2.0);
  // A memo hit after every launch was consumed.
  EXPECT_EQ(s.take(ProbeKind::kClean, 2.0).rate_scale, 2.0);
  EXPECT_EQ(s.path().size(), 2u);
}

TEST(ProbeSearchTest, ProbeErrorsReachTheWalk) {
  ProbeScheduler s(
      [](ProbeKind, double scale) -> LoadPoint {
        if (scale >= 4.0) throw std::runtime_error("probe failed");
        return LoadPoint{};
      },
      nullptr, 3);
  EXPECT_THROW(run(s, ZeroLossSearch{64.0, 1e-4, 7}), std::runtime_error);
  // Destroying the scheduler with queued and running probes is clean.
}

/// SentryNID with a sensor of `ops_per_sec`, so the knee and the lethal
/// dose fall inside a small, cheap range.
products::ProductModel slow_sentry(double ops_per_sec) {
  products::ProductModel model =
      products::product(products::ProductId::kSentryNid);
  model.make_config = [ops_per_sec](double s) {
    auto c = products::product(products::ProductId::kSentryNid)
                 .make_config(s);
    c.sensor.ops_per_sec = ops_per_sec;
    c.sensor.queue_capacity = 64;
    c.sensor.overload_tolerance = netsim::SimTime::from_ms(100);
    return c;
  };
  return model;
}

// The production searches over real testbed probes agree with the oracle
// run over the same probe function.
TEST(ProbeSearchTest, RealProbesMatchOracle) {
  TestbedConfig env;
  env.profile = traffic::rt_cluster_profile();
  env.internal_hosts = 4;
  env.external_hosts = 2;
  env.seed = 29;
  const auto probe = [&env](const products::ProductModel& model,
                            ProbeKind kind) {
    return [&env, &model, kind](double scale) {
      return run_load_probe(env, model, 0.5, kind, scale);
    };
  };
  const products::ProductModel knee = slow_sentry(1e7);
  const auto zero_loss = oracle::sequential_zero_loss(
      probe(knee, ProbeKind::kClean), 8.0, 1e-4, 3);
  // The knee lies inside the range: the walk bisected.
  EXPECT_GT(zero_loss.path.size(), 4u);
  EXPECT_EQ(measure_zero_loss_pps(env, knee, 0.5, 8.0, 1e-4, 3),
            zero_loss.pps);

  const products::ProductModel fragile = slow_sentry(2e6);
  const auto dose =
      oracle::sequential_lethal_dose(probe(fragile, ProbeKind::kFlood), 8.0);
  ASSERT_TRUE(dose.pps.has_value());
  EXPECT_EQ(measure_lethal_dose_pps(env, fragile, 0.5, 8.0), dose.pps);
}

}  // namespace
}  // namespace idseval::harness
