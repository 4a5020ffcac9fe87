// idsbench runner: times idseval's public entry points for one benchmark
// workload and prints the raw samples as one JSON line on stdout. run.py
// turns them into metrics, checks the output digests and adds the machine
// fingerprint.
//
//   idsbench_runner --workload scorecard|detect|campaign --seed N
//                   --seconds S --trace 0|1 --work-dir DIR
//
// Untraced (--trace 0): the workload's set-up is timed kSetupSamples
// times, then whole passes run until S seconds have elapsed, each
// followed by kSetupSamplesPerPass more set-up samples. Every operation
// reports its host time, its outcome and its canonical output.
//
// Traced (--trace 1): traced and untraced passes of the workload
// alternate until S seconds have elapsed, then the other two workloads
// each run one traced pass, so every layer is measured on the workload
// that drives it (see README.md). Traced passes call the public
// functions the untraced operation is built from, one at a time, each
// inside a span, and record the LAN mirror stream for an engine replay.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attack/killchain.hpp"
#include "attack/scenario.hpp"
#include "campaign/aggregate.hpp"
#include "campaign/scheduler.hpp"
#include "campaign/spec.hpp"
#include "campaign/store.hpp"
#include "harness/evaluate.hpp"
#include "harness/measure.hpp"
#include "ids/anomaly_engine.hpp"
#include "ids/signature_engine.hpp"
#include "products/catalog.hpp"
#include "results/doc.hpp"
#include "results/html.hpp"
#include "score/ledger.hpp"
#include "score/roc.hpp"
#include "telemetry/registry.hpp"
#include "traffic/profile.hpp"
#include "util/rng.hpp"

namespace {

using namespace idseval;
using Clock = std::chrono::steady_clock;
using results::Doc;

constexpr double kSensitivity = 0.5;
/// Sub-seeds one scorecard pass evaluates: the zero-loss search and the
/// lethal-dose ladder do more or less work depending on the traffic, so
/// a pass spans several inputs to keep its time steady across seeds.
constexpr std::uint64_t kScorecardSeeds = 2;
/// Set-up samples taken before the first pass and after each pass;
/// setup_s is the median of all of them. A set-up takes well under a
/// millisecond, so samples taken only at the start would see the host of
/// one instant; spread over the run, they see the host the passes see.
/// Each sample is the mean of a batch of set-ups: single set-up times are
/// bimodal (allocator trimming and regrowth), and the median of a bimodal
/// sample set jumps between the modes from run to run.
constexpr int kSetupSamples = 24;
constexpr int kSetupSamplesPerPass = 16;
constexpr int kSetupBatch = 8;
/// Simulated measure window of one detect product run: twice the default,
/// yet short enough that a run holds dozens of operations. With a 600 s
/// window a run held 8-12, and host noise moved their median by more than
/// its bound.
constexpr double kDetectMeasureSec = 120.0;
/// Sub-seeds one detect pass runs every product on, so that a pass's work
/// does not hinge on the traffic and attack timing of a single seed.
constexpr std::uint64_t kDetectSeeds = 2;
/// Mirror packets kept for the engine replay (about 100 bytes each).
constexpr std::size_t kReplayCap = 300'000;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t count_of(const telemetry::Registry& registry,
                       std::string_view name) {
  const telemetry::Counter* c = registry.find_counter(name);
  return c == nullptr ? 0 : c->value();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- Spans ------------------------------------------------------------------

/// In-memory span store: name, start, end and parent per span, written
/// out when the run ends. Thread-safe, since campaign cells run on a
/// worker pool.
class Tracer {
 public:
  class Span {
   public:
    Span(Tracer& tracer, std::string name, int parent = -1)
        : tracer_(tracer), id_(tracer.open(std::move(name), parent)) {}
    ~Span() { tracer_.close(id_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    int id() const noexcept { return id_; }

   private:
    Tracer& tracer_;
    int id_;
  };

  /// Position of the next span; pass it to durations() to see only the
  /// spans opened after this call.
  std::size_t mark() const {
    std::scoped_lock lock(mutex_);
    return spans_.size();
  }
  /// Durations of the closed spans called `name` opened at or after
  /// `from`, in start order.
  std::vector<double> durations(std::string_view name,
                                std::size_t from) const {
    std::scoped_lock lock(mutex_);
    std::vector<double> out;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      const Record& r = spans_[i];
      if (r.name == name && r.end >= 0.0) out.push_back(r.end - r.start);
    }
    return out;
  }
  double total(std::string_view name, std::size_t from) const {
    double sum = 0.0;
    for (const double d : durations(name, from)) sum += d;
    return sum;
  }

  Doc to_doc() const {
    std::scoped_lock lock(mutex_);
    Doc spans = Doc::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Record& r = spans_[i];
      Doc span = Doc::object();
      span.set("id", static_cast<long long>(i))
          .set("name", r.name)
          .set("parent", r.parent)
          .set("start_s", r.start)
          .set("end_s", r.end);
      spans.push(std::move(span));
    }
    return spans;
  }

 private:
  struct Record {
    std::string name;
    int parent;
    double start;
    double end;
  };

  int open(std::string name, int parent) {
    const double t = since(origin_);
    std::scoped_lock lock(mutex_);
    spans_.push_back({std::move(name), parent, t, -1.0});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) {
    const double t = since(origin_);
    std::scoped_lock lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }

  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Record> spans_;
};

// --- Samples ----------------------------------------------------------------

struct Op {
  std::string key;  ///< Names the output among the pass's operations.
  double sec = 0.0;
  bool ok = true;
  std::string error;
  std::string out;  ///< Canonical output, compared with the references.
  std::string cmp;  ///< Output a traced pass can reproduce (if != out).
};

struct Pass {
  double wall = 0.0;
  std::uint64_t forwarded = 0;  ///< switch.forwarded over every simulation.
  std::vector<Op> ops;
  std::string out;  ///< Pass-level canonical output (campaign CSV).
};

Doc to_doc(const Pass& pass) {
  Doc ops = Doc::array();
  for (const Op& op : pass.ops) {
    Doc d = Doc::object();
    d.set("s", op.sec).set("ok", op.ok);
    if (!op.key.empty()) d.set("key", op.key);
    if (!op.error.empty()) d.set("error", op.error);
    if (!op.out.empty()) d.set("out", op.out);
    if (!op.cmp.empty()) d.set("cmp", op.cmp);
    ops.push(std::move(d));
  }
  Doc d = Doc::object();
  d.set("wall_s", pass.wall)
      .set("forwarded", pass.forwarded)
      .set("ops", std::move(ops));
  if (!pass.out.empty()) d.set("out", pass.out);
  return d;
}

/// Per-layer values of one traced pass.
using Layers = std::map<std::string, double>;

// --- Canonical outputs ------------------------------------------------------

Doc run_result_doc(const harness::RunResult& r) {
  Doc d = Doc::object();
  d.set("transactions", r.transactions)
      .set("attacks", r.attacks)
      .set("detected", r.detected)
      .set("true_detections", r.true_detections)
      .set("false_alarms", r.false_alarms)
      .set("missed_attacks", r.missed_attacks)
      .set("prevented_attacks", r.prevented_attacks)
      .set("fp_ratio", r.fp_ratio)
      .set("fn_ratio", r.fn_ratio)
      .set("timeliness_mean_sec", r.timeliness_mean_sec)
      .set("offered_pps", r.offered_pps)
      .set("processed_pps", r.processed_pps)
      .set("ids_loss_ratio", r.ids_loss_ratio)
      .set("sensor_failures", r.sensor_failures)
      .set("mean_delivery_latency_sec", r.mean_delivery_latency_sec)
      .set("max_host_ids_cpu", r.max_host_ids_cpu)
      .set("storage_bytes_per_mb", r.storage_bytes_per_mb)
      .set("firewall_blocks", r.firewall_blocks)
      .set("alerts_raised", r.alerts_raised);
  return d;
}

/// The scorecard's Measurements: everything a traced scorecard pass
/// reproduces without evaluate_product's card assembly.
std::string measurements_text(std::uint64_t index,
                              const harness::RunResult& detection,
                              double zero_loss, double throughput,
                              std::optional<double> lethal_dose,
                              double induced_latency) {
  Doc d = Doc::object();
  d.set("index", index)
      .set("detection_run", run_result_doc(detection))
      .set("zero_loss_pps", zero_loss)
      .set("system_throughput_pps", throughput)
      .set("lethal_dose_pps",
           lethal_dose.has_value() ? Doc(*lethal_dose) : Doc())
      .set("induced_latency_sec", induced_latency);
  return results::to_json(d);
}

std::string detect_text(const std::string& product,
                        const harness::RunResult& run,
                        const score::RocCurve& roc) {
  const score::RocEer eer = roc.eer();
  Doc d = Doc::object();
  d.set("product", product)
      .set("transactions", run.transactions)
      .set("attacks", run.attacks)
      .set("true_detections", run.true_detections)
      .set("false_alarms", run.false_alarms)
      .set("missed_attacks", run.missed_attacks)
      .set("prevented_attacks", run.prevented_attacks)
      .set("roc_transactions", roc.transactions())
      .set("auc", roc.auc())
      .set("eer_found", eer.found)
      .set("eer_sensitivity", eer.sensitivity)
      .set("eer_error_percent", eer.error_percent);
  return results::to_json(d);
}

// --- Workload inputs --------------------------------------------------------

const products::ProductModel& scorecard_product() {
  return products::product(products::ProductId::kSentryNid);
}

harness::TestbedConfig scorecard_env(std::uint64_t seed) {
  harness::TestbedConfig env;
  env.profile = traffic::rt_cluster_profile();
  env.seed = seed;
  return env;
}

harness::TestbedConfig detect_env(std::uint64_t seed) {
  harness::TestbedConfig env;
  env.profile = traffic::ecommerce_profile();
  env.measure = netsim::SimTime::from_sec(kDetectMeasureSec);
  env.seed = seed;
  return env;
}

harness::EvaluationOptions detect_options() {
  harness::EvaluationOptions options;
  options.sensitivity = kSensitivity;
  options.include_load_metrics = false;
  options.kill_chain = "intrusion";
  return options;
}

/// 4 products x 4 profiles x 3 sensitivities x 4 replicates = 192 short
/// cells.
std::string campaign_spec_text(std::uint64_t seed) {
  return "name = idsbench\n"
         "products = SentryNID, GuardSecure, FlowHunt, AgentSwarm\n"
         "profiles = rt_cluster, ecommerce, ics, canbus\n"
         "sensitivities = 0.3, 0.5, 0.7\n"
         "replicates = 4\n"
         "seed = " +
         std::to_string(seed) +
         "\n"
         "weights = realtime\n"
         "attacks_per_kind = 1\n"
         "internal_hosts = 4\n"
         "external_hosts = 2\n"
         "warmup_sec = 1\n"
         "measure_sec = 3\n";
}

/// The environment run_cell builds for `cell` (used to time a cell's
/// testbed construction on its own).
harness::TestbedConfig cell_env(const campaign::CampaignSpec& spec,
                                const campaign::CampaignCell& cell) {
  harness::TestbedConfig env;
  env.profile = traffic::profile_by_name(cell.profile);
  env.internal_hosts = spec.internal_hosts;
  env.external_hosts = spec.external_hosts;
  env.warmup = netsim::SimTime::from_sec(spec.warmup_sec);
  env.measure = netsim::SimTime::from_sec(spec.measure_sec);
  env.shards = spec.shards;
  env.seed = cell.seed;
  return env;
}

std::size_t campaign_jobs() {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::max<std::size_t>(1, hw / 2);
}

/// Opens a fresh campaign store at `path`. The old file is removed first:
/// on ext4, truncating a file and rewriting it starts writeback when it is
/// closed, which would time the disk rather than the store.
campaign::ResultStore fresh_store(const std::filesystem::path& path,
                                  const campaign::CampaignSpec& spec) {
  std::filesystem::remove(path);
  return campaign::ResultStore(path.string(), spec, /*fresh=*/true);
}

// --- Mirror recording and engine replay -------------------------------------

struct Recorded {
  std::vector<std::pair<netsim::SimTime, netsim::Packet>> packets;
  netsim::SimTime learn_until;  ///< Warmup end: anomaly learning phase.
};

/// Records the LAN SPAN stream of `bed` (up to kReplayCap packets). The
/// mirror only copies packets, so the simulation is not perturbed; the
/// output digests of traced and untraced passes prove it.
void record_mirror(harness::Testbed& bed, Recorded& rec) {
  rec.packets.reserve(kReplayCap);
  netsim::Simulator& sim = bed.sim();
  bed.net().lan_switch().add_mirror_batch(
      [&rec, &sim](const netsim::Packet* packets, std::size_t n) {
        for (std::size_t i = 0; i < n && rec.packets.size() < kReplayCap;
             ++i) {
          rec.packets.emplace_back(sim.now(), packets[i]);
        }
      });
}

double replay_signature_ns(const Recorded& rec,
                           const products::ProductModel& model) {
  const ids::PipelineConfig cfg = model.make_config(kSensitivity);
  ids::SignatureEngine engine(
      cfg.rules, ids::SignatureEngineOptions{kSensitivity, true,
                                             cfg.stream_reassembly});
  std::vector<ids::Detection> out;
  const auto start = Clock::now();
  for (const auto& [now, packet] : rec.packets) {
    engine.process(packet, now, out);
    out.clear();
  }
  return 1e9 * ratio(since(start), static_cast<double>(rec.packets.size()));
}

double replay_anomaly_ns(const Recorded& rec,
                         const products::ProductModel& model) {
  ids::AnomalyEngineOptions opts = model.make_config(kSensitivity).anomaly;
  opts.sensitivity = kSensitivity;
  ids::AnomalyEngine engine(opts);
  std::vector<ids::Detection> out;
  const auto start = Clock::now();
  for (const auto& [now, packet] : rec.packets) {
    if (engine.mode() == ids::AnomalyEngine::Mode::kLearning &&
        now >= rec.learn_until) {
      engine.set_mode(ids::AnomalyEngine::Mode::kDetecting);
    }
    engine.process(packet, now, out);
    out.clear();
  }
  return 1e9 * ratio(since(start), static_cast<double>(rec.packets.size()));
}

// --- scorecard --------------------------------------------------------------

/// One evaluate_product(SentryNID, rt_cluster, load metrics on) per
/// sub-seed.
Pass scorecard_pass(std::uint64_t seed) {
  Pass pass;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < kScorecardSeeds; ++i) {
    const auto op_start = Clock::now();
    Op op;
    op.key = "SentryNID/" + std::to_string(i);
    try {
      harness::RunContext ctx;
      const harness::Evaluation eval = harness::evaluate_product(
          scorecard_env(util::derive_seed(seed, i)), scorecard_product(), {},
          &ctx);
      const harness::Measurements& m = eval.measured;
      Doc card = Doc::array();
      for (const auto& [id, scored] : eval.card.entries()) {
        Doc entry = Doc::array();
        entry.push(static_cast<int>(id)).push(scored.score.value());
        card.push(std::move(entry));
      }
      op.cmp = measurements_text(i, m.detection_run, m.zero_loss_pps,
                                 m.system_throughput_pps, m.lethal_dose_pps,
                                 m.induced_latency_sec);
      Doc out = Doc::object();
      out.set("card", std::move(card))
          .set("unified_total_cost", eval.unified.total_cost)
          .set("measured", op.cmp);
      op.out = results::to_json(out);
      pass.forwarded +=
          count_of(ctx.registry(), telemetry::names::kSwitchForwarded) +
          count_of(m.load_probe_telemetry,
                   telemetry::names::kSwitchForwarded);
    } catch (const std::exception& e) {
      op.ok = false;
      op.error = e.what();
    }
    op.sec = since(op_start);
    pass.ops.push_back(std::move(op));
  }
  pass.wall = since(start);
  return pass;
}

/// Counts a traced scorecard pass sums over its operations.
struct ScorecardCounts {
  double executed = 0.0;       ///< Detection-run simulator events.
  double det_forwarded = 0.0;  ///< Detection-run switch.forwarded.
  telemetry::Registry all;     ///< Detection and probe registries.
  telemetry::Registry ladder;  ///< Throughput-ladder probes only.
};

/// The scorecard operation split into the calls evaluate_product makes:
/// the detection Testbed::run, then each measure_* in its own span.
std::string scorecard_traced_op(const harness::TestbedConfig& env,
                                std::uint64_t index, Tracer& tracer,
                                int parent, Recorded* rec,
                                ScorecardCounts& counts) {
  const products::ProductModel& model = scorecard_product();
  const harness::EvaluationOptions options;
  harness::RunContext ctx;
  harness::RunContext::Scope scope(ctx);
  harness::RunResult detection;
  {
    std::optional<harness::Testbed> bed;
    {
      Tracer::Span span(tracer, "harness.testbed_build", parent);
      bed.emplace(env, &model, options.sensitivity);
    }
    if (rec != nullptr) record_mirror(*bed, *rec);
    Tracer::Span span(tracer, "harness.detect", parent);
    const auto scenario = attack::Scenario::mixed(
        options.attacks_per_kind, netsim::SimTime::zero(), env.measure * 0.9,
        util::hash64("evaluate") ^ env.seed, env.external_hosts,
        env.internal_hosts);
    detection = bed->run(scenario);
    counts.executed += static_cast<double>(bed->sim().executed());
  }
  // One probe context per measurement: sequential probes reset the
  // window-scoped counters of a shared registry, while the throughput
  // ladder merges per-rung registries, so its own registry keeps the
  // saturation drop counts.
  harness::RunContext zero_loss_ctx;
  harness::RunContext ladder_ctx;
  harness::RunContext lethal_ctx;
  harness::RunContext latency_ctx;
  double zero_loss = 0.0;
  double throughput = 0.0;
  std::optional<double> lethal_dose;
  double induced_latency = 0.0;
  {
    Tracer::Span span(tracer, "harness.zero_loss", parent);
    zero_loss = harness::measure_zero_loss_pps(
        env, model, options.sensitivity, 96.0, 1e-4, 7, &zero_loss_ctx);
  }
  {
    Tracer::Span span(tracer, "harness.sys_throughput", parent);
    throughput = std::max(harness::measure_system_throughput_pps(
                              env, model, options.sensitivity, 96.0,
                              &ladder_ctx),
                          zero_loss);
  }
  {
    Tracer::Span span(tracer, "harness.lethal_dose", parent);
    lethal_dose = harness::measure_lethal_dose_pps(
        env, model, options.sensitivity, 128.0, &lethal_ctx);
  }
  {
    Tracer::Span span(tracer, "harness.induced_latency", parent);
    induced_latency = harness::measure_induced_latency_sec(
        env, model, options.sensitivity, &latency_ctx);
  }
  counts.det_forwarded += static_cast<double>(
      count_of(ctx.registry(), telemetry::names::kSwitchForwarded));
  for (const harness::RunContext* c :
       {&ctx, &zero_loss_ctx, &ladder_ctx, &lethal_ctx, &latency_ctx}) {
    counts.all.merge_from(c->registry());
  }
  counts.ladder.merge_from(ladder_ctx.registry());
  return measurements_text(index, detection, zero_loss, throughput,
                           lethal_dose, induced_latency);
}

Pass scorecard_traced_pass(std::uint64_t seed, Tracer& tracer,
                           Layers& layers) {
  Pass pass;
  const auto start = Clock::now();
  const std::size_t mark = tracer.mark();
  Recorded rec;
  ScorecardCounts counts;
  {
    Tracer::Span root(tracer, "scorecard.pass");
    for (std::uint64_t i = 0; i < kScorecardSeeds; ++i) {
      const auto op_start = Clock::now();
      const harness::TestbedConfig env =
          scorecard_env(util::derive_seed(seed, i));
      rec.learn_until = env.warmup;
      Op op;
      op.key = "SentryNID/" + std::to_string(i);
      try {
        Tracer::Span op_span(tracer, "scorecard.op", root.id());
        // The engine replay uses the first operation's stream.
        op.out = scorecard_traced_op(env, i, tracer, op_span.id(),
                                     i == 0 ? &rec : nullptr, counts);
      } catch (const std::exception& e) {
        op.ok = false;
        op.error = e.what();
      }
      op.sec = since(op_start);
      pass.ops.push_back(std::move(op));
    }
  }
  pass.wall = since(start);
  const telemetry::Registry& all = counts.all;
  const auto total = [&](std::string_view name) {
    return static_cast<double>(count_of(all, name));
  };
  const auto ladder = [&](std::string_view name) {
    return static_cast<double>(count_of(counts.ladder, name));
  };
  pass.forwarded = count_of(all, telemetry::names::kSwitchForwarded);

  for (const char* span : {"detect", "zero_loss", "sys_throughput",
                           "lethal_dose", "induced_latency"}) {
    const std::string name = std::string("harness.") + span;
    layers[name + "_s"] = tracer.total(name, mark);
  }
  layers["harness.probes"] = total(telemetry::names::kHarnessProbes);
  const double hits = total(telemetry::names::kScanCacheHits);
  layers["scan_cache.hit_ratio"] =
      ratio(hits, hits + total(telemetry::names::kScanCacheMisses));
  layers["scan_cache.boundary_rescans"] =
      total(telemetry::names::kScanCacheBoundaryRescans);
  layers["sensor.drop_ratio"] =
      ratio(ladder(telemetry::names::kSensorDropped),
            ladder(telemetry::names::kSensorOffered));
  layers["netsim.events_per_pkt"] =
      ratio(counts.executed, counts.det_forwarded);
  layers["netsim.event_ns"] =
      1e9 * ratio(layers["harness.detect_s"], counts.executed);
  // Replay after the pass: analysis, not part of the traced wall time.
  if (!rec.packets.empty()) {
    layers["ids.sig_ns_per_pkt"] =
        replay_signature_ns(rec, scorecard_product());
  }
  return pass;
}

// --- detect -----------------------------------------------------------------

/// Detection run of every catalog product on ecommerce with the
/// intrusion kill chain and a score ledger, each followed by its ROC, on
/// each sub-seed.
Pass detect_pass(std::uint64_t seed) {
  Pass pass;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < kDetectSeeds; ++i) {
    const harness::TestbedConfig env = detect_env(util::derive_seed(seed, i));
    for (const products::ProductModel& model : products::product_catalog()) {
      const auto op_start = Clock::now();
      Op op;
      op.key = model.name + "/" + std::to_string(i);
      try {
        score::ScoreLedger ledger;
        harness::RunContext ctx;
        ctx.set_score_ledger(&ledger);
        const harness::Evaluation eval =
            harness::evaluate_product(env, model, detect_options(), &ctx);
        const score::RocCurve roc(ledger.samples());
        op.out = detect_text(model.name, eval.measured.detection_run, roc);
        pass.forwarded +=
            count_of(ctx.registry(), telemetry::names::kSwitchForwarded);
      } catch (const std::exception& e) {
        op.ok = false;
        op.error = e.what();
      }
      op.sec = since(op_start);
      pass.ops.push_back(std::move(op));
    }
  }
  pass.wall = since(start);
  return pass;
}

/// detect with the detection block of evaluate_product called directly:
/// testbed build, kill-chain Testbed::run and ROC in their own spans.
Pass detect_traced_pass(std::uint64_t seed, Tracer& tracer, Layers& layers) {
  Pass pass;
  const auto start = Clock::now();
  const harness::EvaluationOptions options = detect_options();
  Recorded rec;
  rec.learn_until = detect_env(seed).warmup;
  // The anomaly replay runs on the first sub-seed's stream of the first
  // product that deploys an anomaly engine.
  const products::ProductModel* replay_model = nullptr;
  for (const products::ProductModel& model : products::product_catalog()) {
    if (model.make_config(kSensitivity).anomaly_engine) {
      replay_model = &model;
      break;
    }
  }
  telemetry::Registry totals;
  std::uint64_t observations = 0;
  const std::size_t mark = tracer.mark();
  Tracer::Span root(tracer, "detect.pass");
  for (std::uint64_t i = 0; i < kDetectSeeds; ++i) {
    const harness::TestbedConfig env = detect_env(util::derive_seed(seed, i));
    for (const products::ProductModel& model : products::product_catalog()) {
      const auto op_start = Clock::now();
      Op op;
      op.key = model.name + "/" + std::to_string(i);
      try {
        Tracer::Span op_span(tracer, "detect.op", root.id());
        score::ScoreLedger ledger;
        harness::RunContext ctx;
        harness::RunResult run;
        {
          harness::RunContext::Scope scope(ctx);
          std::optional<harness::Testbed> bed;
          {
            Tracer::Span span(tracer, "harness.testbed_build", op_span.id());
            bed.emplace(env, &model, options.sensitivity);
          }
          bed->set_score_ledger(&ledger);
          if (i == 0 && &model == replay_model) record_mirror(*bed, rec);
          Tracer::Span span(tracer, "harness.detect", op_span.id());
          const auto chain = attack::KillChain::preset(
              options.kill_chain, util::hash64("evaluate") ^ env.seed,
              env.measure * 0.08, env.external_hosts, env.internal_hosts);
          run = bed->run(chain);
        }
        Tracer::Span span(tracer, "score.roc", op_span.id());
        const score::RocCurve roc(ledger.samples());
        op.out = detect_text(model.name, run, roc);
        observations += ledger.observations();
        totals.merge_from(ctx.registry());
      } catch (const std::exception& e) {
        op.ok = false;
        op.error = e.what();
      }
      op.sec = since(op_start);
      pass.ops.push_back(std::move(op));
    }
  }
  pass.forwarded = count_of(totals, telemetry::names::kSwitchForwarded);
  pass.wall = since(start);

  const auto total = [&](std::string_view name) {
    return static_cast<double>(count_of(totals, name));
  };
  layers["lb.drop_ratio"] = ratio(total(telemetry::names::kLbDropped),
                                  total(telemetry::names::kLbOffered));
  const double pool_hits = total(telemetry::names::kPayloadPoolHits);
  const double pool_misses = total(telemetry::names::kPayloadPoolMisses);
  layers["traffic.pool_hit_ratio"] =
      ratio(pool_hits, pool_hits + pool_misses);
  layers["payload.pool_misses"] = pool_misses;
  layers["flowtable.probes_per_lookup"] =
      ratio(total(telemetry::names::kFlowTableProbes),
            total(telemetry::names::kFlowTableLookups));
  layers["score.observations"] = static_cast<double>(observations);
  layers["score.roc_s"] = tracer.total("score.roc", mark);
  if (replay_model != nullptr) {
    layers["ids.anomaly_ns_per_pkt"] = replay_anomaly_ns(rec, *replay_model);
  }
  return pass;
}

// --- campaign ---------------------------------------------------------------

/// run_campaign over the 192-cell grid into a fresh store, then
/// aggregate and the CSV/HTML writers. With a tracer, each cell runs in
/// a span through RunOptions::runner, after its testbed construction is
/// timed on its own.
Pass campaign_pass(std::uint64_t seed, const std::filesystem::path& dir,
                   Tracer* tracer, Layers* layers) {
  Pass pass;
  const auto start = Clock::now();
  const std::size_t mark = tracer != nullptr ? tracer->mark() : 0;
  const campaign::CampaignSpec spec =
      campaign::CampaignSpec::parse(campaign_spec_text(seed));
  campaign::ResultStore store = fresh_store(dir / "idsbench.jsonl", spec);
  telemetry::Registry telemetry;
  campaign::RunOptions options;
  options.jobs = campaign_jobs();
  options.telemetry = &telemetry;
  // The scheduler serializes on_cell calls.
  options.on_cell = [&](const campaign::CellResult& r, std::size_t,
                        std::size_t) {
    pass.ops.push_back({"", r.wall_sec, r.ok, r.error, "", ""});
  };
  if (tracer != nullptr) {
    options.runner = [tracer](const campaign::CampaignSpec& s,
                              const campaign::CampaignCell& cell,
                              harness::RunContext& ctx) {
      Tracer::Span cell_span(*tracer, "campaign.cell");
      {
        // A scratch registry keeps this extra testbed out of the cell's
        // persisted telemetry.
        telemetry::Registry scratch;
        telemetry::ScopedRegistry scoped(&scratch);
        Tracer::Span span(*tracer, "harness.testbed_build", cell_span.id());
        harness::Testbed bed(cell_env(s, cell),
                             &products::product(cell.product),
                             cell.sensitivity);
      }
      return campaign::run_cell(s, cell, ctx);
    };
  }
  const auto run_start = Clock::now();
  campaign::run_campaign(spec, store, options);
  const double run_wall = since(run_start);
  std::optional<Tracer::Span> agg_span;
  if (tracer != nullptr) agg_span.emplace(*tracer, "campaign.aggregate");
  const campaign::CampaignAggregate agg =
      campaign::aggregate(spec, store.results());
  agg_span.reset();
  std::optional<Tracer::Span> render_span;
  if (tracer != nullptr) render_span.emplace(*tracer, "results.render");
  pass.out = campaign::to_csv(spec, agg);
  std::ofstream(dir / "idsbench.csv") << pass.out;
  std::ofstream(dir / "idsbench_stages.csv")
      << campaign::stages_to_csv(spec, store.results());
  std::ofstream(dir / "idsbench.html") << results::html_document(
      "Campaign '" + spec.name + "'",
      {campaign::summary_table_doc(spec, agg),
       campaign::eer_table_doc(spec, agg)});
  render_span.reset();
  pass.forwarded = count_of(telemetry, telemetry::names::kSwitchForwarded);
  pass.wall = since(start);

  if (tracer != nullptr && layers != nullptr) {
    std::vector<double> builds =
        tracer->durations("harness.testbed_build", mark);
    std::vector<double> cells = tracer->durations("campaign.cell", mark);
    double cell_sum = 0.0;
    for (const double c : cells) cell_sum += c;
    const auto median = [](std::vector<double> v) {
      if (v.empty()) return 0.0;
      std::sort(v.begin(), v.end());
      const std::size_t n = v.size();
      return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
    };
    (*layers)["harness.testbed_build_s"] = median(builds);
    (*layers)["campaign.cell_s"] = median(cells);
    (*layers)["campaign.overhead_s"] =
        run_wall - cell_sum / static_cast<double>(options.jobs);
    (*layers)["campaign.aggregate_s"] =
        tracer->total("campaign.aggregate", mark);
    (*layers)["results.render_s"] = tracer->total("results.render", mark);
  }
  return pass;
}

// --- Set-up -----------------------------------------------------------------

/// Everything a workload prepares before its first timed operation:
/// product catalog, make_config and rule/Aho-Corasick compilation, spec
/// parse, the first Testbed construction and the store open.
void set_up(const std::string& workload, std::uint64_t seed,
            const std::filesystem::path& dir) {
  if (workload == "scorecard") {
    const products::ProductModel& model = scorecard_product();
    const ids::PipelineConfig cfg = model.make_config(kSensitivity);
    const ids::SignatureEngine engine(
        cfg.rules, ids::SignatureEngineOptions{kSensitivity, true,
                                               cfg.stream_reassembly});
    const harness::Testbed bed(scorecard_env(seed), &model, kSensitivity);
  } else if (workload == "detect") {
    for (const products::ProductModel& model : products::product_catalog()) {
      const ids::PipelineConfig cfg = model.make_config(kSensitivity);
      const ids::SignatureEngine engine(
          cfg.rules, ids::SignatureEngineOptions{kSensitivity, true,
                                                 cfg.stream_reassembly});
    }
    const harness::Testbed bed(detect_env(seed),
                               &products::product_catalog().front(),
                               kSensitivity);
  } else {
    const campaign::CampaignSpec spec =
        campaign::CampaignSpec::parse(campaign_spec_text(seed));
    const std::vector<campaign::CampaignCell> cells =
        campaign::expand_cells(spec);
    const campaign::ResultStore store = fresh_store(dir / "setup.jsonl", spec);
    const campaign::CampaignCell& cell = cells.front();
    const harness::Testbed bed(cell_env(spec, cell),
                               &products::product(cell.product),
                               cell.sensitivity);
  }
}

// --- Main -------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::filesystem::path work_dir;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "idsbench_runner: %s\nusage: idsbench_runner --workload "
               "scorecard|detect|campaign --seed N --seconds S --trace 0|1 "
               "--work-dir DIR\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (key == "--work-dir") {
        args.work_dir = value;
      } else {
        usage("unknown flag " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (args.workload != "scorecard" && args.workload != "detect" &&
      args.workload != "campaign") {
    usage("unknown workload '" + args.workload + "'");
  }
  if (!have_seed || !(args.seconds > 0.0) || args.work_dir.empty()) {
    usage("--seed, --seconds > 0 and --work-dir are required");
  }
  return args;
}

Pass untraced_pass(const Args& args) {
  if (args.workload == "scorecard") return scorecard_pass(args.seed);
  if (args.workload == "detect") return detect_pass(args.seed);
  return campaign_pass(args.seed, args.work_dir, nullptr, nullptr);
}

Pass traced_pass(const std::string& workload, const Args& args,
                 Tracer& tracer, Layers& layers) {
  if (workload == "scorecard") {
    return scorecard_traced_pass(args.seed, tracer, layers);
  }
  if (workload == "detect") {
    return detect_traced_pass(args.seed, tracer, layers);
  }
  return campaign_pass(args.seed, args.work_dir, &tracer, &layers);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

Doc build_doc() {
  bool sanitized = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
  const std::string flags = IDSBENCH_CXX_FLAGS;
  if (flags.find("-fsanitize") != std::string::npos) sanitized = true;
  Doc d = Doc::object();
  d.set("build_type", IDSBENCH_BUILD_TYPE)
      .set("compiler", IDSBENCH_COMPILER)
      .set("cxx_flags", flags)
      .set("sanitized", sanitized);
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  const Args args = parse_args(argc, argv);
  std::filesystem::create_directories(args.work_dir);

  Doc result = Doc::object();
  result.set("workload", args.workload)
      .set("seed", args.seed)
      .set("trace", args.trace)
      .set("build", build_doc());

  set_up(args.workload, args.seed, args.work_dir);
  result.set("setup_cold_s", since(process_start));
  Doc setup = Doc::array();
  const auto time_set_up = [&](int samples) {
    for (int i = 0; i < samples; ++i) {
      const auto start = Clock::now();
      for (int j = 0; j < kSetupBatch; ++j) {
        set_up(args.workload, args.seed, args.work_dir);
      }
      setup.push(since(start) / kSetupBatch);
    }
  };
  time_set_up(kSetupSamples);

  // Passes run until --seconds is reached or the next pass would likely
  // end more than half a pass past it.
  Doc passes = Doc::array();
  const auto measure_start = Clock::now();
  int rounds = 0;
  const auto more = [&] {
    ++rounds;
    const double elapsed = since(measure_start);
    return elapsed + 0.5 * elapsed / rounds < args.seconds;
  };
  if (!args.trace) {
    do {
      passes.push(to_doc(untraced_pass(args)));
      time_set_up(kSetupSamplesPerPass);
    } while (more());
    result.set("passes", std::move(passes)).set("setup_s", std::move(setup));
    result.set("peak_rss_mb", peak_rss_mb());
  } else {
    Tracer tracer;
    Doc traced = Doc::array();
    Doc layers = Doc::array();
    const auto traced_run = [&](const std::string& workload, Doc& into) {
      Layers values;
      into.push(to_doc(traced_pass(workload, args, tracer, values)));
      Doc doc = Doc::object();
      for (const auto& [name, value] : values) doc.set(name, value);
      layers.push(std::move(doc));
    };
    // Traced first: a first-pass warm-up cost then inflates the overhead
    // ratio instead of hiding tracing cost.
    do {
      traced_run(args.workload, traced);
      passes.push(to_doc(untraced_pass(args)));
    } while (more());
    // Layers the requested workload does not drive come from one traced
    // pass of the workload that does.
    Doc census = Doc::array();
    for (const std::string other : {"scorecard", "detect", "campaign"}) {
      if (other != args.workload) traced_run(other, census);
    }
    result.set("passes", std::move(passes))
        .set("setup_s", std::move(setup))
        .set("traced_passes", std::move(traced))
        .set("census_passes", std::move(census))
        .set("layers", std::move(layers));
    std::ofstream(args.work_dir / "spans.json")
        << results::to_json(tracer.to_doc()) << "\n";
  }
  std::printf("%s\n", results::to_json(result).c_str());
  return 0;
}
