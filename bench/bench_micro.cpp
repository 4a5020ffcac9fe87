// Microbenchmarks (google-benchmark) for the substrate hot paths whose
// costs the simulation's abstract op model stands in for: multi-pattern
// scanning, payload synthesis, entropy, DES event dispatch, and the SPSC
// ring. These bound how fast the *harness itself* runs, which caps how
// much evaluation a token of wall-clock buys.
#include <benchmark/benchmark.h>

#include "ids/aho_corasick.hpp"
#include "ids/anomaly_engine.hpp"
#include "netsim/simulator.hpp"
#include "traffic/payload.hpp"
#include "util/rng.hpp"

using namespace idseval;

namespace {

std::vector<std::string> bench_patterns() {
  return {"/../../etc/passwd", "cmd.exe", "\x90\x90\x90\x90\x90\x90",
          "/bin/sh -c", "Login incorrect", "update.vbs", "su - root",
          "login: root", "/etc/passwd", "Important message"};
}

void BM_AhoCorasickScan(benchmark::State& state) {
  const ids::AhoCorasick ac(bench_patterns());
  util::Rng rng(1);
  const std::string payload =
      traffic::synthesize(traffic::PayloadKind::kHttpRequest,
                          static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ac.contains_any(payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_AhoCorasickScan)->Arg(128)->Arg(512)->Arg(1400);

void BM_PayloadSynthesis(benchmark::State& state) {
  util::Rng rng(2);
  const auto kind = static_cast<traffic::PayloadKind>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(traffic::synthesize(kind, 400, rng));
  }
}
BENCHMARK(BM_PayloadSynthesis)
    ->Arg(static_cast<int>(traffic::PayloadKind::kHttpRequest))
    ->Arg(static_cast<int>(traffic::PayloadKind::kClusterRpc))
    ->Arg(static_cast<int>(traffic::PayloadKind::kRandom));

void BM_PayloadEntropy(benchmark::State& state) {
  util::Rng rng(3);
  const std::string payload = traffic::random_printable(
      static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ids::payload_entropy(payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PayloadEntropy)->Arg(128)->Arg(1400);

void BM_SimulatorEvents(benchmark::State& state) {
  for (auto _ : state) {
    netsim::Simulator sim;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      sim.schedule_at(netsim::SimTime::from_us(static_cast<double>(i % 97)),
                      [] {});
    }
    benchmark::DoNotOptimize(sim.run_until());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SimulatorEvents)->Arg(1024)->Arg(16384);

void BM_Xoshiro(benchmark::State& state) {
  util::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next());
  }
}
BENCHMARK(BM_Xoshiro);

}  // namespace

BENCHMARK_MAIN();
