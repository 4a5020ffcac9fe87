#include "harness/measure.hpp"

#include <algorithm>
#include <cmath>

#include "telemetry/registry.hpp"
#include "util/thread_pool.hpp"

namespace idseval::harness {

using netsim::SimTime;

namespace {

/// Short-window config variant for load probing.
TestbedConfig probe_config(const TestbedConfig& base, double rate_scale) {
  TestbedConfig cfg = base;
  cfg.rate_scale = rate_scale;
  cfg.warmup = SimTime::from_sec(4);
  cfg.measure = SimTime::from_sec(6);
  cfg.drain = SimTime::from_sec(2);
  return cfg;
}

LoadPoint point_from(const RunResult& r, double rate_scale) {
  LoadPoint p;
  p.rate_scale = rate_scale;
  p.offered_pps = r.offered_pps;
  p.tapped_pps = r.tapped_pps;
  p.processed_pps = r.processed_pps;
  p.loss_ratio = r.ids_loss_ratio;
  p.failures = r.sensor_failures;
  p.mean_delivery_latency_sec = r.mean_delivery_latency_sec;
  return p;
}

/// A scheduler running `base`'s probes. Path probes merge into the
/// accumulator, or into the caller's ambient registry without one.
ProbeScheduler scheduler(const TestbedConfig& base,
                         const products::ProductModel& model,
                         double sensitivity, RunContext* probes) {
  return ProbeScheduler(
      [&base, &model, sensitivity](ProbeKind kind, double rate_scale) {
        return run_load_probe(base, model, sensitivity, kind, rate_scale);
      },
      probes != nullptr ? &probes->registry() : telemetry::current());
}

}  // namespace

LoadPoint run_load_probe(const TestbedConfig& base,
                         const products::ProductModel& model,
                         double sensitivity, ProbeKind kind,
                         double rate_scale) {
  telemetry::count(telemetry::names::kHarnessProbes);
  switch (kind) {
    case ProbeKind::kClean: {
      Testbed bed(probe_config(base, rate_scale), &model, sensitivity);
      return point_from(bed.run_clean(), rate_scale);
    }
    case ProbeKind::kFlood: {
      // Scaled background load plus a SYN-flood scenario whose packets
      // arrive in same-tick trains (kLethalDoseFloodTrain), so the dose
      // search drives the coalesced fan-out path deliberately rather
      // than relying on background traffic alone to overwhelm sensors.
      TestbedConfig cfg = probe_config(base, rate_scale);
      cfg.flood_train = kLethalDoseFloodTrain;
      Testbed bed(cfg, &model, sensitivity);
      const auto scenario = attack::Scenario::of_kinds(
          {attack::AttackKind::kSynFlood}, /*per_kind=*/2,
          netsim::SimTime::zero(), cfg.measure * 0.9,
          util::hash64("lethal-dose") ^ base.seed, base.external_hosts,
          base.internal_hosts);
      return point_from(bed.run(scenario), rate_scale);
    }
    case ProbeKind::kLatencyIds:
    case ProbeKind::kLatencyBaseline: {
      TestbedConfig cfg = base;
      cfg.rate_scale = rate_scale;
      cfg.warmup = SimTime::from_sec(5);
      cfg.measure = SimTime::from_sec(20);
      cfg.drain = SimTime::from_sec(2);
      Testbed bed(cfg, kind == ProbeKind::kLatencyIds ? &model : nullptr,
                  sensitivity);
      return point_from(bed.run_clean(), rate_scale);
    }
  }
  return {};
}

std::vector<LoadPoint> load_sweep(const TestbedConfig& base,
                                  const products::ProductModel& model,
                                  double sensitivity,
                                  const std::vector<double>& rate_scales,
                                  RunContext* probes) {
  ProbeScheduler s = scheduler(base, model, sensitivity, probes);
  for (const double scale : rate_scales) {
    s.launch(ProbeKind::kClean, scale, ProbeLane::kLadder);
  }
  std::vector<LoadPoint> points;
  points.reserve(rate_scales.size());
  for (const double scale : rate_scales) {
    points.push_back(s.take(ProbeKind::kClean, scale));
  }
  return points;
}

double measure_zero_loss_pps(const TestbedConfig& base,
                             const products::ProductModel& model,
                             double sensitivity, double max_scale,
                             double loss_epsilon, int iterations,
                             RunContext* probes) {
  ProbeScheduler s = scheduler(base, model, sensitivity, probes);
  return run(s, ZeroLossSearch{max_scale, loss_epsilon, iterations});
}

double measure_system_throughput_pps(const TestbedConfig& base,
                                     const products::ProductModel& model,
                                     double sensitivity,
                                     double overload_scale,
                                     RunContext* probes) {
  ProbeScheduler s = scheduler(base, model, sensitivity, probes);
  return run(s, ThroughputLadder{overload_scale});
}

std::optional<double> measure_lethal_dose_pps(
    const TestbedConfig& base, const products::ProductModel& model,
    double sensitivity, double max_scale, RunContext* probes) {
  ProbeScheduler s = scheduler(base, model, sensitivity, probes);
  return run(s, LethalDoseSearch{max_scale});
}

double measure_induced_latency_sec(const TestbedConfig& base,
                                   const products::ProductModel& model,
                                   double sensitivity, RunContext* probes) {
  ProbeScheduler s = scheduler(base, model, sensitivity, probes);
  return run(s, InducedLatency{base.rate_scale});
}

LoadMetrics measure_load_metrics(const TestbedConfig& base,
                                 const products::ProductModel& model,
                                 double sensitivity, RunContext* probes) {
  ProbeScheduler s = scheduler(base, model, sensitivity, probes);
  return run(s, LoadMetricsSearch{base.rate_scale});
}

std::vector<ErrorRatePoint> sensitivity_sweep(
    const TestbedConfig& base, const products::ProductModel& model,
    const std::vector<double>& sensitivities, std::size_t attacks_per_kind,
    std::size_t threads) {
  std::vector<ErrorRatePoint> points(sensitivities.size());
  util::ThreadPool pool(threads);
  pool.parallel_for(sensitivities.size(), [&](std::size_t i) {
    Testbed bed(base, &model, sensitivities[i]);
    const auto scenario = attack::Scenario::mixed(
        attacks_per_kind, SimTime::zero(), base.measure * 0.9,
        util::hash64("sweep") ^ base.seed, base.external_hosts,
        base.internal_hosts);
    const RunResult r = bed.run(scenario);
    ErrorRatePoint p;
    p.sensitivity = sensitivities[i];
    p.fp_ratio = r.fp_ratio;
    p.fn_ratio = r.fn_ratio;
    const double benign =
        static_cast<double>(r.transactions - r.attacks);
    p.fp_percent_of_benign =
        benign > 0.0 ? 100.0 * static_cast<double>(r.false_alarms) / benign
                     : 0.0;
    p.fn_percent_of_attacks =
        r.attacks > 0 ? 100.0 * static_cast<double>(r.missed_attacks) /
                            static_cast<double>(r.attacks)
                      : 0.0;
    points[i] = p;
  });
  return points;
}

SinglePassSweep single_pass_sensitivity_sweep(
    const TestbedConfig& base, const products::ProductModel& model,
    const std::vector<double>& sensitivities, std::size_t attacks_per_kind,
    double record_sensitivity) {
  // Same scenario construction as the re-simulated sweep, so the two
  // paths score the identical ground truth.
  score::ScoreLedger ledger;
  Testbed bed(base, &model, record_sensitivity);
  bed.set_score_ledger(&ledger);
  const auto scenario = attack::Scenario::mixed(
      attacks_per_kind, SimTime::zero(), base.measure * 0.9,
      util::hash64("sweep") ^ base.seed, base.external_hosts,
      base.internal_hosts);
  bed.run(scenario);

  SinglePassSweep out;
  out.record_sensitivity = record_sensitivity;
  out.evidence_observations = ledger.observations();
  out.roc = score::RocCurve(ledger.samples());
  out.points.reserve(sensitivities.size());
  for (const double s : sensitivities) {
    const score::ErrorCounts c = out.roc.error_rate_at(s);
    ErrorRatePoint p;
    p.sensitivity = s;
    p.fp_ratio = c.fp_ratio;
    p.fn_ratio = c.fn_ratio;
    p.fp_percent_of_benign = c.fp_percent_of_benign;
    p.fn_percent_of_attacks = c.fn_percent_of_attacks;
    out.points.push_back(p);
  }
  return out;
}

EqualErrorRate equal_error_rate(const std::vector<ErrorRatePoint>& sweep) {
  EqualErrorRate eer;
  // diff = FN% - FP%: positive at low sensitivity (missing attacks),
  // negative at high (false alarms). The crossing is the EER.
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    const double d0 =
        sweep[i - 1].fn_percent_of_attacks - sweep[i - 1].fp_percent_of_benign;
    const double d1 =
        sweep[i].fn_percent_of_attacks - sweep[i].fp_percent_of_benign;
    if ((d0 >= 0.0 && d1 <= 0.0) || (d0 <= 0.0 && d1 >= 0.0)) {
      const double span = d0 - d1;
      const double t = span == 0.0 ? 0.5 : d0 / span;
      eer.sensitivity = sweep[i - 1].sensitivity +
                        t * (sweep[i].sensitivity - sweep[i - 1].sensitivity);
      const double fp0 = sweep[i - 1].fp_percent_of_benign;
      const double fp1 = sweep[i].fp_percent_of_benign;
      eer.error_percent = fp0 + t * (fp1 - fp0);
      eer.found = true;
      return eer;
    }
  }
  return eer;
}

}  // namespace idseval::harness
