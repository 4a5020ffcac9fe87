// Load-probe searches and the scheduler that runs their probes. A probe is
// one short testbed simulation; the Table 3 throughput metrics are
// searches over probes at different rate scales. Each probe is a pure
// function of (config, product, sensitivity, probe kind, exact rate
// scale), so a ProbeScheduler bound to one (config, product, sensitivity)
// memoizes probe results under (kind, scale) and runs them on a thread
// pool ahead of need. The searches then walk the results in exactly the
// order a one-probe-at-a-time search would, so speculation changes how
// fast a value is found, never which value.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "telemetry/registry.hpp"
#include "util/thread_pool.hpp"

namespace idseval::harness {

/// One point of a load sweep.
struct LoadPoint {
  double rate_scale = 1.0;
  double offered_pps = 0.0;
  double tapped_pps = 0.0;
  double processed_pps = 0.0;
  double loss_ratio = 0.0;
  std::uint64_t failures = 0;
  double mean_delivery_latency_sec = 0.0;
};

/// What a probe simulates at its rate scale.
enum class ProbeKind : std::uint8_t {
  kClean,            ///< Attack-free background load.
  kFlood,            ///< Background load plus SYN-flood trains.
  kLatencyIds,       ///< Long window with the product attached.
  kLatencyBaseline,  ///< The same window with no IDS.
};

/// Scheduling class: critical probes (the zero-loss walk, whose rounds
/// depend on each other) start before any queued ladder probe.
enum class ProbeLane : std::uint8_t { kCritical, kLadder };

/// Memoizing probe runner. launch() asks for a probe ahead of use; it is
/// reference counted, so several searches may ask for the same probe and
/// it runs once. take() waits for a launched probe and consumes one
/// launch; cancel() withdraws one launch, and a probe nobody wants any
/// more is skipped if it has not started. At most `threads` probes run
/// at once.
///
/// Telemetry: each probe records into its own Registry. The first take()
/// of a probe appends it to the path and merges its registry into
/// `sink`, on the calling thread; later takes of the same probe (memo
/// hits) and probes that are never taken merge nothing. The sink's
/// content therefore depends only on the sequence of take() calls,
/// never on worker count or timing. With a null sink, probes record
/// nothing.
class ProbeScheduler {
 public:
  using Probe = std::function<LoadPoint(ProbeKind, double rate_scale)>;

  /// `threads == 0` selects hardware_concurrency.
  ProbeScheduler(Probe probe, telemetry::Registry* sink,
                 std::size_t threads = 0);
  /// Skips every probe that has not started and waits for running ones.
  ~ProbeScheduler();

  ProbeScheduler(const ProbeScheduler&) = delete;
  ProbeScheduler& operator=(const ProbeScheduler&) = delete;

  void launch(ProbeKind kind, double rate_scale, ProbeLane lane);
  void cancel(ProbeKind kind, double rate_scale);
  /// Rethrows the probe's exception if it threw. The reference stays
  /// valid for the scheduler's lifetime.
  const LoadPoint& take(ProbeKind kind, double rate_scale);

  /// Every take() so far, in call order (memo hits included).
  const std::vector<std::pair<ProbeKind, double>>& path() const noexcept {
    return path_;
  }

 private:
  /// kIdle: not queued (never launched, or cancelled before it
  /// started).
  enum class State : std::uint8_t { kIdle, kQueued, kRunning, kDone };
  struct Entry {
    ProbeKind kind = ProbeKind::kClean;
    double rate_scale = 0.0;
    State state = State::kIdle;
    ProbeLane lane = ProbeLane::kLadder;  ///< Best lane queued at.
    int wanted = 0;
    bool on_path = false;
    LoadPoint point;
    std::exception_ptr error;
    telemetry::Registry registry;
  };
  /// Ready-queue item, ordered by lane and then by launch order. An
  /// entry can be queued more than once (a lane upgrade, a relaunch
  /// after a skip); stale items are ignored when popped.
  struct Ticket {
    ProbeLane lane;
    std::uint64_t seq;
    Entry* entry;
    bool operator<(const Ticket& o) const noexcept {
      // std::priority_queue pops the largest: invert.
      return lane != o.lane ? lane > o.lane : seq > o.seq;
    }
  };
  using Key = std::pair<ProbeKind, double>;

  // Both need mutex_ held.
  Entry& launch_locked(ProbeKind kind, double rate_scale, ProbeLane lane);
  void enqueue(Entry& e, ProbeLane lane);
  void run_next();

  Probe probe_;
  telemetry::Registry* sink_;
  std::mutex mutex_;
  std::condition_variable done_cv_;
  std::map<Key, Entry> entries_;
  std::priority_queue<Ticket> ready_;
  std::uint64_t seq_ = 0;
  std::vector<std::pair<ProbeKind, double>> path_;
  // Last: destroyed first, so no worker outlives the state above.
  util::ThreadPool pool_;
};

// Each search launches every probe it may need at once and then walks the
// results in the order a sequential search probes them. Running one is
// run(scheduler, search); a caller that runs several searches on one
// scheduler launches them all first, so their probes overlap.

/// Maximal Throughput with Zero Loss: a doubling bracket from 1x (plus
/// max_scale when the last doubling stops short of it), then bisection
/// of the knee. Returns the offered pps of the highest zero-loss probe.
struct ZeroLossSearch {
  double max_scale = 64.0;
  double loss_epsilon = 1e-4;
  int iterations = 7;

  void launch(ProbeScheduler& s) const;
  double walk(ProbeScheduler& s) const;
};

/// System throughput: every rung of a load ladder up to the overload
/// scale; the best processed rate wins.
struct ThroughputLadder {
  double overload_scale = 48.0;

  void launch(ProbeScheduler& s) const;
  double walk(ProbeScheduler& s) const;
};

/// Network Lethal Dose: flood probes on a geometric ladder from 2x; the
/// first rung with a sensor failure wins.
struct LethalDoseSearch {
  double max_scale = 96.0;

  void launch(ProbeScheduler& s) const;
  std::optional<double> walk(ProbeScheduler& s) const;
};

/// Induced latency: the product run minus the no-IDS baseline, both at
/// `rate_scale`.
struct InducedLatency {
  double rate_scale = 1.0;

  void launch(ProbeScheduler& s) const;
  double walk(ProbeScheduler& s) const;
};

/// The four load-dependent Table 3 measurements of one evaluation.
struct LoadMetrics {
  double zero_loss_pps = 0.0;
  /// Never below zero_loss_pps: anything sustained at zero loss was by
  /// definition processed successfully.
  double system_throughput_pps = 0.0;
  std::optional<double> lethal_dose_pps;
  double induced_latency_sec = 0.0;
};

/// All four searches on one scheduler, with the ranges the scorecard
/// uses: zero loss up to 96x (7 bisection rounds, loss epsilon 1e-4),
/// the throughput ladder up to 96x, the lethal dose up to 128x, and the
/// latency pair at the environment's `rate_scale`. Every probe is
/// launched before any walk starts, so the ladders fill the workers the
/// zero-loss walk leaves idle, and the memo runs a rung that is also a
/// zero-loss probe (32x, for one) once. Telemetry merges in walk order:
/// zero loss, throughput ladder, lethal dose, induced latency.
struct LoadMetricsSearch {
  double rate_scale = 1.0;

  void launch(ProbeScheduler& s) const;
  LoadMetrics walk(ProbeScheduler& s) const;
};

template <class Search>
auto run(ProbeScheduler& s, const Search& search) {
  search.launch(s);
  return search.walk(s);
}

}  // namespace idseval::harness
