// Measurement procedures for the load-dependent Table 3 metrics. Each
// procedure runs (several) testbed simulations with controlled knobs and
// extracts one scalar the scorecard's anchor-based autoscorer consumes.
#pragma once

#include <optional>
#include <vector>

#include "harness/probe_search.hpp"
#include "harness/run_context.hpp"
#include "harness/testbed.hpp"
#include "products/catalog.hpp"
#include "score/ledger.hpp"
#include "score/roc.hpp"

namespace idseval::harness {

/// Load measurements run their probe simulations on a ProbeScheduler
/// (probe_search.hpp): probes run in parallel and ahead of need, and the
/// searches walk them in sequential order, so every value equals the one
/// a one-probe-at-a-time search finds. Each function optionally
/// accumulates the telemetry of the probes on its search path into
/// `probes->registry()`: one registry per probe, merged in path order
/// (counters summed, latency stats pooled), so the accumulated registry
/// is the same at any pool size. A probe a search reuses from the memo,
/// and a speculative probe the path never needed, merge nothing. With
/// nullptr the path probes merge into the calling thread's ambient
/// registry, if one is installed.

/// One probe simulation, what the measurements below schedule: short
/// windows at `rate_scale` for kClean and kFlood, the long
/// induced-latency window for the two latency kinds. Records
/// `harness.probes` and the run's stage telemetry into the calling
/// thread's ambient registry.
LoadPoint run_load_probe(const TestbedConfig& base,
                         const products::ProductModel& model,
                         double sensitivity, ProbeKind kind,
                         double rate_scale);

/// Runs the profile at each rate scale (attack-free), short windows.
std::vector<LoadPoint> load_sweep(
    const TestbedConfig& base, const products::ProductModel& model,
    double sensitivity, const std::vector<double>& rate_scales,
    RunContext* probes = nullptr);

/// Flood-train length used by the lethal-dose probe scenarios: bursts of
/// this many same-tick SYN packets per attack train, exercising the
/// coalesced same-tick fan-out path under the exact load that is meant
/// to kill sensors.
inline constexpr std::uint32_t kLethalDoseFloodTrain = 8;

/// Maximal Throughput with Zero Loss: the highest *network traffic
/// level* (offered packets/sec — Table 3's "observed level of traffic")
/// whose IDS-path loss stays under `loss_epsilon`, found by bisection
/// over the rate scale.
double measure_zero_loss_pps(const TestbedConfig& base,
                             const products::ProductModel& model,
                             double sensitivity, double max_scale = 64.0,
                             double loss_epsilon = 1e-4, int iterations = 7,
                             RunContext* probes = nullptr);

/// System Throughput (packets/sec the IDS processes successfully at
/// saturation): processed rate under a deliberately overloading offer.
double measure_system_throughput_pps(
    const TestbedConfig& base, const products::ProductModel& model,
    double sensitivity, double overload_scale = 48.0,
    RunContext* probes = nullptr);

/// Network Lethal Dose: lowest offered pps that trips a sensor failure,
/// searched over geometrically increasing load; nullopt if no failure up
/// to max_scale (scores the "never failed" anchor). Probes run a
/// SYN-flood scenario with same-tick flood trains (kLethalDoseFloodTrain)
/// on top of the scaled background load, so the dose search stresses the
/// batched delivery path the way a real flood does.
std::optional<double> measure_lethal_dose_pps(
    const TestbedConfig& base, const products::ProductModel& model,
    double sensitivity, double max_scale = 96.0,
    RunContext* probes = nullptr);

/// Induced Traffic Latency (seconds added to production delivery):
/// latency with the product attached minus the no-IDS baseline.
double measure_induced_latency_sec(
    const TestbedConfig& base, const products::ProductModel& model,
    double sensitivity, RunContext* probes = nullptr);

/// The four load measurements the scorecard scores, on one scheduler
/// (LoadMetricsSearch): the searches share one memo and one thread per
/// core, and the zero-loss walk runs ahead of the ladders.
LoadMetrics measure_load_metrics(const TestbedConfig& base,
                                 const products::ProductModel& model,
                                 double sensitivity,
                                 RunContext* probes = nullptr);

/// One sensitivity point of the Figure 4 error-rate sweep.
struct ErrorRatePoint {
  double sensitivity = 0.5;
  double fp_ratio = 0.0;   ///< |D-A|/|T|
  double fn_ratio = 0.0;   ///< |A-D|/|T|
  double fp_percent_of_benign = 0.0;   ///< Of benign transactions alarmed.
  double fn_percent_of_attacks = 0.0;  ///< Of attacks missed.
};

/// Sweeps sensitivity with a fixed mixed attack scenario.
std::vector<ErrorRatePoint> sensitivity_sweep(
    const TestbedConfig& base, const products::ProductModel& model,
    const std::vector<double>& sensitivities, std::size_t attacks_per_kind,
    std::size_t threads = 0);

/// Result of a single-pass sweep: the grid points in the same shape the
/// re-simulated sweep produces, plus the full continuous-threshold ROC
/// they were cut from.
struct SinglePassSweep {
  std::vector<ErrorRatePoint> points;
  score::RocCurve roc;
  double record_sensitivity = 0.5;
  std::uint64_t evidence_observations = 0;
};

/// Single-pass Figure 4: runs the identical mixed scenario ONCE with a
/// score ledger attached, then derives every sweep point offline from
/// the recorded per-transaction evidence (score::RocCurve). One
/// simulation plus a sort instead of one simulation per point.
///
/// Exactly equivalent to `sensitivity_sweep` whenever detection has no
/// feedback into simulation dynamics: pattern-rule signature detection
/// with no management console (no firewall blocks), no anomaly engine
/// (whose winsorized learning and cooldowns are threshold-coupled), and
/// no threshold rules (whose confidence gate also gates window-state
/// updates). Outside that envelope the derived points are a close
/// approximation whose quality the regression tests pin down.
SinglePassSweep single_pass_sensitivity_sweep(
    const TestbedConfig& base, const products::ProductModel& model,
    const std::vector<double>& sensitivities, std::size_t attacks_per_kind,
    double record_sensitivity = 0.5);

/// Equal Error Rate: the sensitivity where the Type I and Type II curves
/// cross (linear interpolation between sweep points; Figure 4). Uses the
/// percent-of-class curves, which is how EER is classically defined.
struct EqualErrorRate {
  double sensitivity = 0.0;
  double error_percent = 0.0;  ///< Common error level at the crossing.
  bool found = false;
};
EqualErrorRate equal_error_rate(const std::vector<ErrorRatePoint>& sweep);

}  // namespace idseval::harness
