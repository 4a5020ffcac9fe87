// Full product evaluation: fact-sheet scoring for the open-source
// metrics, laboratory measurement for the performance metrics, anchor
// autoscoring, and assembly into a complete Scorecard — the end-to-end
// methodology of §3 run against one product in one environment.
#pragma once

#include <string>

#include "core/scorecard.hpp"
#include "harness/measure.hpp"
#include "harness/run_context.hpp"
#include "harness/testbed.hpp"
#include "products/catalog.hpp"
#include "score/scorecard.hpp"

namespace idseval::harness {

struct EvaluationOptions {
  double sensitivity = 0.5;
  std::size_t attacks_per_kind = 3;
  /// Skip the expensive load sweeps (zero loss, lethal dose, system
  /// throughput) — useful for quick scorecards and unit tests.
  bool include_load_metrics = true;
  /// Unit costs behind the unified cost/capability score.
  score::CostWeights cost_weights;
  /// Kill-chain preset name (attack::KillChain::preset). Empty runs the
  /// legacy flat mixed scenario; non-empty replaces the detection run
  /// with a staged campaign (recon → exploit → lateral → exfil) whose
  /// ground truth carries per-stage and ATT&CK technique labels.
  std::string kill_chain;
};

/// The measured values backing the scorecard entries, retained so reports
/// can show measurement evidence next to the discrete scores.
struct Measurements {
  RunResult detection_run;        ///< Mixed-scenario detection run.
  double zero_loss_pps = 0.0;
  double system_throughput_pps = 0.0;
  std::optional<double> lethal_dose_pps;
  double induced_latency_sec = 0.0;
  /// Per-stage telemetry snapshot taken right after the detection run,
  /// before the load probes disturb the stage stats. All zeros when no
  /// telemetry::Registry was installed on the evaluating thread.
  telemetry::PipelineSnapshot detection_telemetry;
  /// Accumulated telemetry of the load-probe simulations on the search
  /// paths (zero loss, system throughput, lethal dose, induced latency),
  /// merged in path order and kept separate from the detection window's
  /// registry; includes `harness.probes`. Empty when load metrics were
  /// skipped.
  telemetry::Registry load_probe_telemetry;
};

struct Evaluation {
  core::Scorecard card;
  Measurements measured;
  /// One comparable number per product: the Iannacone & Bridges unified
  /// cost model over the detection run (and, when load metrics ran, the
  /// induced-latency measurement), rendered beside the paper's three
  /// class scores.
  score::UnifiedScore unified;
};

/// Evaluates one product in the given environment. With a `ctx`, the
/// detection window records into ctx->registry() (installed as the
/// evaluating thread's ambient registry for the call) and load probes
/// accumulate into Measurements::load_probe_telemetry sharing ctx's
/// trace sink; with nullptr the legacy ambient-registry behaviour is
/// kept (whatever ScopedRegistry the caller installed, if any).
Evaluation evaluate_product(const TestbedConfig& env,
                            const products::ProductModel& model,
                            const EvaluationOptions& options = {},
                            RunContext* ctx = nullptr);

}  // namespace idseval::harness
