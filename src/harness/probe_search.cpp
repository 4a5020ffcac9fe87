#include "harness/probe_search.hpp"

#include <algorithm>

namespace idseval::harness {

ProbeScheduler::ProbeScheduler(Probe probe, telemetry::Registry* sink,
                               std::size_t threads)
    : probe_(std::move(probe)), sink_(sink), pool_(threads) {}

ProbeScheduler::~ProbeScheduler() {
  std::scoped_lock lock(mutex_);
  for (auto& [key, e] : entries_) {
    if (e.state == State::kQueued) e.state = State::kIdle;
  }
  // pool_ is destroyed next: its workers drain the remaining tickets,
  // which now find nothing to run, and finish the running probes.
}

void ProbeScheduler::enqueue(Entry& e, ProbeLane lane) {
  e.lane = lane;
  ready_.push({lane, seq_++, &e});
  pool_.submit([this] { run_next(); });
}

void ProbeScheduler::launch(ProbeKind kind, double rate_scale,
                            ProbeLane lane) {
  std::scoped_lock lock(mutex_);
  launch_locked(kind, rate_scale, lane);
}

ProbeScheduler::Entry& ProbeScheduler::launch_locked(ProbeKind kind,
                                                     double rate_scale,
                                                     ProbeLane lane) {
  auto [it, fresh] = entries_.try_emplace({kind, rate_scale});
  Entry& e = it->second;
  if (fresh) {
    e.kind = kind;
    e.rate_scale = rate_scale;
  }
  ++e.wanted;
  if (e.state == State::kIdle) {
    e.state = State::kQueued;
    enqueue(e, lane);
  } else if (e.state == State::kQueued && lane < e.lane) {
    enqueue(e, lane);  // the older, lower-lane ticket goes stale
  }
  return e;
}

void ProbeScheduler::cancel(ProbeKind kind, double rate_scale) {
  std::scoped_lock lock(mutex_);
  const auto it = entries_.find({kind, rate_scale});
  if (it == entries_.end() || it->second.wanted == 0) return;
  Entry& e = it->second;
  if (--e.wanted == 0 && e.state == State::kQueued) {
    e.state = State::kIdle;
  }
}

const LoadPoint& ProbeScheduler::take(ProbeKind kind, double rate_scale) {
  std::unique_lock lock(mutex_);
  const auto it = entries_.find({kind, rate_scale});
  Entry& e = it != entries_.end() && (it->second.wanted > 0 ||
                                       it->second.state == State::kDone)
                 ? it->second
                 : launch_locked(kind, rate_scale, ProbeLane::kCritical);
  done_cv_.wait(lock, [&e] { return e.state == State::kDone; });
  if (e.wanted > 0) --e.wanted;
  lock.unlock();
  // Only this thread reads a finished entry, so the rest runs unlocked.
  if (e.error) std::rethrow_exception(e.error);
  path_.emplace_back(kind, rate_scale);
  if (!e.on_path) {
    e.on_path = true;
    if (sink_ != nullptr) sink_->merge_from(e.registry);
    e.registry = {};
  }
  return e.point;
}

void ProbeScheduler::run_next() {
  Entry* e = nullptr;
  {
    std::scoped_lock lock(mutex_);
    while (e == nullptr && !ready_.empty()) {
      Entry* candidate = ready_.top().entry;
      ready_.pop();
      if (candidate->state == State::kQueued) e = candidate;
    }
    if (e == nullptr) return;
    e->state = State::kRunning;
  }
  try {
    telemetry::ScopedRegistry scope(sink_ != nullptr ? &e->registry
                                                     : nullptr);
    e->point = probe_(e->kind, e->rate_scale);
  } catch (...) {
    e->error = std::current_exception();
  }
  {
    std::scoped_lock lock(mutex_);
    e->state = State::kDone;
  }
  done_cv_.notify_all();
}

// --- Searches ---------------------------------------------------------------

namespace {

bool zero_loss(const LoadPoint& p, double loss_epsilon) noexcept {
  return p.loss_ratio <= loss_epsilon && p.failures == 0;
}

/// The zero-loss bracket's probes, in walk order.
std::vector<double> bracket(const ZeroLossSearch& search) {
  std::vector<double> scales;
  double last = 0.0;
  for (double scale = 1.0; scale <= search.max_scale; scale *= 2.0) {
    scales.push_back(scale);
    last = scale;
  }
  // A bracket that stops short of max_scale probes it directly, so fast
  // products are measured at the full range, not at the last power of
  // two.
  if (last < search.max_scale) scales.push_back(search.max_scale);
  return scales;
}

std::vector<double> rungs(const ThroughputLadder& ladder) {
  // "Maximal data input rate that can be processed successfully": the
  // best sustained processing rate over a ladder up to the overload
  // scale. A single overload probe would report the post-collapse rate
  // of products whose sensors die past their lethal dose.
  const double top = ladder.overload_scale;
  return {top / 8.0, top / 4.0, top / 3.0, top * 0.4,
          top / 2.0, top * 0.75, top};
}

std::vector<double> rungs(const LethalDoseSearch& search) {
  std::vector<double> scales;
  for (double scale = 2.0; scale <= search.max_scale; scale *= 1.6) {
    scales.push_back(scale);
  }
  return scales;
}

}  // namespace

void ZeroLossSearch::launch(ProbeScheduler& s) const {
  for (const double scale : bracket(*this)) {
    s.launch(ProbeKind::kClean, scale, ProbeLane::kCritical);
  }
}

double ZeroLossSearch::walk(ProbeScheduler& s) const {
  // Bracket: grow until loss appears (or max_scale is reached).
  const std::vector<double> scales = bracket(*this);
  double lo = 0.0;  // highest scale with zero loss
  double lo_pps = 0.0;
  double hi = 0.0;  // lowest scale with loss (0 = none found)
  std::size_t next = 0;
  while (next < scales.size() && hi == 0.0) {
    const double scale = scales[next++];
    const LoadPoint& p = s.take(ProbeKind::kClean, scale);
    if (zero_loss(p, loss_epsilon)) {
      lo = scale;
      lo_pps = p.offered_pps;
    } else {
      hi = scale;
    }
  }
  for (; next < scales.size(); ++next) {
    s.cancel(ProbeKind::kClean, scales[next]);
  }
  if (hi == 0.0) return lo_pps;  // never lost anything up to max_scale

  // Bisection refines the knee. Each round's probe was launched by the
  // round before; the round launches both probes the next round may
  // need, then cancels the one the outcome rules out. The scales are
  // computed exactly as a sequential bisection computes them: with
  // lo = mid the next midpoint is 0.5 * (mid + hi), with hi = mid it is
  // 0.5 * (lo + mid).
  if (iterations > 0) {
    s.launch(ProbeKind::kClean, 0.5 * (lo + hi), ProbeLane::kCritical);
  }
  for (int i = 0; i < iterations; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double below = 0.5 * (lo + mid);
    const double above = 0.5 * (mid + hi);
    const bool more = i + 1 < iterations;
    if (more) {
      s.launch(ProbeKind::kClean, below, ProbeLane::kCritical);
      s.launch(ProbeKind::kClean, above, ProbeLane::kCritical);
    }
    const LoadPoint& p = s.take(ProbeKind::kClean, mid);
    if (zero_loss(p, loss_epsilon)) {
      lo = mid;
      lo_pps = p.offered_pps;
      if (more) s.cancel(ProbeKind::kClean, below);
    } else {
      hi = mid;
      if (more) s.cancel(ProbeKind::kClean, above);
    }
  }
  return lo_pps;
}

void ThroughputLadder::launch(ProbeScheduler& s) const {
  for (const double scale : rungs(*this)) {
    s.launch(ProbeKind::kClean, scale, ProbeLane::kLadder);
  }
}

double ThroughputLadder::walk(ProbeScheduler& s) const {
  double best = 0.0;
  for (const double scale : rungs(*this)) {
    best = std::max(best, s.take(ProbeKind::kClean, scale).processed_pps);
  }
  return best;
}

void LethalDoseSearch::launch(ProbeScheduler& s) const {
  for (const double scale : rungs(*this)) {
    s.launch(ProbeKind::kFlood, scale, ProbeLane::kLadder);
  }
}

std::optional<double> LethalDoseSearch::walk(ProbeScheduler& s) const {
  const std::vector<double> scales = rungs(*this);
  std::optional<double> dose;
  std::size_t next = 0;
  while (next < scales.size() && !dose.has_value()) {
    const LoadPoint& p = s.take(ProbeKind::kFlood, scales[next++]);
    if (p.failures > 0) dose = p.offered_pps;
  }
  for (; next < scales.size(); ++next) {
    s.cancel(ProbeKind::kFlood, scales[next]);
  }
  return dose;
}

void InducedLatency::launch(ProbeScheduler& s) const {
  s.launch(ProbeKind::kLatencyIds, rate_scale, ProbeLane::kLadder);
  s.launch(ProbeKind::kLatencyBaseline, rate_scale, ProbeLane::kLadder);
}

double InducedLatency::walk(ProbeScheduler& s) const {
  const double with_ids =
      s.take(ProbeKind::kLatencyIds, rate_scale).mean_delivery_latency_sec;
  const double baseline = s.take(ProbeKind::kLatencyBaseline, rate_scale)
                              .mean_delivery_latency_sec;
  return std::max(0.0, with_ids - baseline);
}

namespace {
constexpr ZeroLossSearch kScorecardZeroLoss{96.0, 1e-4, 7};
constexpr ThroughputLadder kScorecardLadder{96.0};
constexpr LethalDoseSearch kScorecardLethalDose{128.0};
}  // namespace

void LoadMetricsSearch::launch(ProbeScheduler& s) const {
  kScorecardZeroLoss.launch(s);
  kScorecardLadder.launch(s);
  kScorecardLethalDose.launch(s);
  InducedLatency{rate_scale}.launch(s);
}

LoadMetrics LoadMetricsSearch::walk(ProbeScheduler& s) const {
  LoadMetrics m;
  m.zero_loss_pps = kScorecardZeroLoss.walk(s);
  m.system_throughput_pps =
      std::max(kScorecardLadder.walk(s), m.zero_loss_pps);
  m.lethal_dose_pps = kScorecardLethalDose.walk(s);
  m.induced_latency_sec = InducedLatency{rate_scale}.walk(s);
  return m;
}

}  // namespace idseval::harness
