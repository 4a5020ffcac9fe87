#include "campaign/scheduler.hpp"

#include <chrono>
#include <memory>
#include <mutex>

#include "attack/kind.hpp"
#include "campaign/store.hpp"
#include "harness/evaluate.hpp"
#include "results/doc.hpp"
#include "netsim/sim_time.hpp"
#include "traffic/profile.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace idseval::campaign {

std::vector<CampaignCell> expand_cells(const CampaignSpec& spec) {
  std::vector<CampaignCell> cells;
  cells.reserve(spec.cell_count());
  std::size_t index = 0;
  for (const auto product : spec.products) {
    for (const auto& profile : spec.profiles) {
      for (const double sensitivity : spec.sensitivities) {
        for (std::size_t rep = 0; rep < spec.replicates; ++rep) {
          CampaignCell cell;
          cell.index = index;
          cell.product = product;
          cell.profile = profile;
          cell.sensitivity = sensitivity;
          cell.replicate = rep;
          cell.seed = util::derive_seed(spec.base_seed, index);
          cells.push_back(std::move(cell));
          ++index;
        }
      }
    }
  }
  return cells;
}

CellResult run_cell(const CampaignSpec& spec, const CampaignCell& cell,
                    harness::RunContext& ctx) {
  harness::TestbedConfig env;
  env.profile = traffic::profile_by_name(cell.profile);
  env.internal_hosts = spec.internal_hosts;
  env.external_hosts = spec.external_hosts;
  env.warmup = netsim::SimTime::from_sec(spec.warmup_sec);
  env.measure = netsim::SimTime::from_sec(spec.measure_sec);
  env.shards = spec.shards;
  env.seed = cell.seed;

  harness::EvaluationOptions options;
  options.sensitivity = cell.sensitivity;
  options.attacks_per_kind = spec.attacks_per_kind;
  options.include_load_metrics = spec.load_metrics;
  options.kill_chain = spec.kill_chain;

  const harness::Evaluation eval =
      harness::evaluate_product(env, products::product(cell.product),
                                options, &ctx);

  CellResult result;
  result.cell = cell;
  result.ok = true;

  const core::WeightedScores scores =
      core::weighted_scores(eval.card, spec.weight_set());
  result.score_logistical = scores.logistical;
  result.score_architectural = scores.architectural;
  result.score_performance = scores.performance;
  result.score_total = scores.total();

  const harness::RunResult& run = eval.measured.detection_run;
  result.fp_ratio = run.fp_ratio;
  result.fn_ratio = run.fn_ratio;
  const std::size_t benign = run.transactions - run.attacks;
  result.fp_percent_of_benign =
      benign > 0 ? 100.0 * static_cast<double>(run.false_alarms) /
                       static_cast<double>(benign)
                 : 0.0;
  result.fn_percent_of_attacks =
      run.attacks > 0 ? 100.0 * static_cast<double>(run.missed_attacks) /
                            static_cast<double>(run.attacks)
                      : 0.0;
  result.timeliness_sec = run.timeliness_mean_sec;
  result.offered_pps = run.offered_pps;
  result.processed_pps = run.processed_pps;

  if (spec.load_metrics) {
    result.zero_loss_pps = eval.measured.zero_loss_pps;
    result.system_throughput_pps = eval.measured.system_throughput_pps;
    result.induced_latency_sec = eval.measured.induced_latency_sec;
  }
  result.unified_total_cost = eval.unified.total_cost;
  result.unified_capability = eval.unified.capability;
  result.telemetry = eval.measured.detection_telemetry;
  // Stage rollups are only persisted for kill-chain cells; flat cells
  // still label stages (the kinds' defaults) but keeping the rows empty
  // there preserves pre-kill-chain store bytes.
  if (!spec.kill_chain.empty()) {
    for (const score::StageRow& row : run.breakdown.stages) {
      CellResult::StageOutcome stage;
      stage.stage = attack::to_string(static_cast<attack::Stage>(row.stage));
      stage.launched = row.launched;
      stage.detected = row.detected;
      stage.prevented = row.prevented;
      stage.mean_latency_sec = row.mean_latency_sec();
      result.stages.push_back(std::move(stage));
    }
  }
  return result;
}

namespace {

results::Doc cell_trace_event(const CellResult& result,
                              const telemetry::Registry& registry) {
  results::Doc event = results::Doc::object();
  event.set("type", "cell")
      .set("index", result.cell.index)
      .set("product", products::product(result.cell.product).name)
      .set("profile", result.cell.profile)
      .set("sensitivity", result.cell.sensitivity)
      .set("replicate", result.cell.replicate)
      .set("seed", result.cell.seed)
      .set("ok", result.ok)
      .set("error", result.error)
      .set("telemetry", telemetry::to_doc(registry));
  return event;
}

}  // namespace

RunStats run_campaign(const CampaignSpec& spec, ResultStore& store,
                      const RunOptions& options) {
  const auto started = std::chrono::steady_clock::now();
  const std::vector<CampaignCell> cells = expand_cells(spec);

  std::vector<const CampaignCell*> pending;
  pending.reserve(cells.size());
  for (const auto& cell : cells) {
    if (!store.has_ok(cell.index)) pending.push_back(&cell);
  }

  RunStats stats;
  stats.total_cells = cells.size();
  stats.skipped = cells.size() - pending.size();

  const auto runner =
      options.runner
          ? options.runner
          : [](const CampaignSpec& s, const CampaignCell& c,
               harness::RunContext& ctx) { return run_cell(s, c, ctx); };

  std::mutex progress_mutex;
  std::size_t done = 0;
  std::size_t failed = 0;
  // One RunContext per pending cell, created unconditionally (recording
  // is cheap and keeps results byte-identical with tracing on or off)
  // and merged into the aggregate in cell-index order after the pool
  // drains. Every context shares the campaign's trace sink.
  std::vector<std::unique_ptr<harness::RunContext>> cell_ctxs(
      pending.size());
  util::ThreadPool pool(options.jobs);
  pool.parallel_for(pending.size(), [&](std::size_t i) {
    const CampaignCell& cell = *pending[i];
    const auto cell_started = std::chrono::steady_clock::now();
    cell_ctxs[i] = std::make_unique<harness::RunContext>(options.trace);
    CellResult result;
    {
      harness::RunContext::Scope scope(*cell_ctxs[i]);
      try {
        result = runner(spec, cell, *cell_ctxs[i]);
      } catch (const std::exception& e) {
        result = CellResult{};
        result.cell = cell;
        result.ok = false;
        result.error = e.what();
      } catch (...) {
        result = CellResult{};
        result.cell = cell;
        result.ok = false;
        result.error = "unknown error";
      }
    }
    result.wall_sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      cell_started)
            .count();
    store.append(result);
    std::scoped_lock lock(progress_mutex);
    ++done;
    if (!result.ok) ++failed;
    if (options.telemetry) {
      // Wall clock goes only into the aggregate (progress/bench view),
      // never into rows — rows must not depend on machine speed.
      options.telemetry->latency(telemetry::names::kCampaignCellWall)
          .record(result.wall_sec);
    }
    if (options.trace) {
      options.trace->emit(cell_trace_event(result, cell_ctxs[i]->registry()));
      options.trace->flush();
    }
    if (options.on_cell) options.on_cell(result, done, pending.size());
  });

  if (options.telemetry) {
    for (const auto& ctx : cell_ctxs) {
      if (ctx) options.telemetry->merge_from(ctx->registry());
    }
  }

  stats.executed = done;
  stats.failed = failed;
  stats.wall_sec = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - started)
                       .count();
  return stats;
}

}  // namespace idseval::campaign
