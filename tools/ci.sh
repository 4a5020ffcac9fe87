#!/usr/bin/env bash
# One-command CI: build the plain and sanitizer presets, run ctest under
# both, and check the committed bench outputs. A sanitizer run is
# exactly:  tools/ci.sh asan-ubsan   (and the outputs check:
# tools/ci.sh results)
set -euo pipefail
cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default asan-ubsan tsan results)
fi

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)

# The seeded bench binaries whose output holds no wall-clock figure:
# each must print exactly its committed results/<name>.txt.
# (bench_fig4_eer, bench_micro, bench_campaign and bench_netsim print
# timings; bench_fig4_eer is diffed with its timings masked.)
results_benches=(bench_table1_logistical bench_table2_architectural
  bench_table3_performance bench_fig3_confusion bench_fig5_weighted_scores
  bench_fig6_requirement_mapping bench_x1_host_overhead
  bench_x2_profile_crossover bench_x3_payload_realism
  bench_x4_load_balancing bench_x5_weight_robustness bench_x6_data_pool)

for preset in "${presets[@]}"; do
  if [ "${preset}" = "results" ]; then
    echo "==== results: timing-free bench outputs vs results/ ===="
    cmake --preset default
    cmake --build --preset default -j"${jobs}" \
      --target "${results_benches[@]}" bench_fig4_eer
    stale=0
    for bench in "${results_benches[@]}"; do
      if ! "build-default/bench/${bench}" | diff -u "results/${bench}.txt" -
      then
        echo "results/${bench}.txt differs from the binary's output"
        stale=1
      fi
    done
    # bench_fig4_eer prints its sweeps' wall-clock cost ("0.824s wall",
    # "speedup: 9.0x"); with those masked, its EER tables and evidence
    # observation count must match the committed file.
    mask_timings() {
      sed -E 's/[0-9.]+s wall/<t>s wall/; s/speedup: [0-9.]+x/speedup: <r>x/'
    }
    if ! diff -u <(mask_timings < results/bench_fig4_eer.txt) \
      <(build-default/bench/bench_fig4_eer | mask_timings)
    then
      echo "results/bench_fig4_eer.txt differs beyond its timing figures"
      stale=1
    fi
    [ "${stale}" -eq 0 ] || exit 1
    continue
  fi
  echo "==== preset: ${preset} ===="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j"${jobs}"
  if [ "${preset}" = "tsan" ]; then
    # The thread-sanitizer leg targets the concurrency the tool actually
    # uses: the thread pool behind campaign --jobs / rank --jobs, the
    # load-probe scheduler and its speculative searches, the background
    # trace writer, the campaign scheduler and its store, the telemetry
    # registry merges, and the golden-hash determinism suite.
    # --no-tests=error keeps a filter typo from passing as a silent
    # no-op.
    ctest --preset "${preset}" --output-on-failure --no-tests=error \
      -R 'ThreadPoolTest|TraceSinkTest|SchedulerTest|StoreTest|RegistryTest|ScopedRegistryTest|DeterminismTest|ProbeSearchTest|ProbeTelemetryTest|MeasureTest'
  else
    ctest --preset "${preset}" -j"${jobs}"
  fi
done

# Event-core benchmark smoke under the Release preset: checks the
# zero-heap-fallback invariant and archives the throughput report next to
# the build tree. The testbed and megaflow floors hard-fail on an
# optimized, sanitizer-free build; the ICS/CAN floors only warn.
# Skipped when only specific presets were requested.
if [ $# -eq 0 ]; then
  echo "==== bench smoke (release) ===="
  cmake --preset release
  cmake --build --preset release -j"${jobs}" --target bench_netsim
  build-release/bench/bench_netsim --smoke --out BENCH_netsim.json
fi

# Traced-campaign smoke test under the sanitizer build: the example CI
# campaign must produce a well-formed JSONL trace with zero buffer drops
# (trace-check exits non-zero otherwise) and a per-stage latency CSV
# whose shape matches the grid exactly — campaign_ci.spec expands to
# 8 cells x 4 pipeline stages = 32 data rows, with no NaN/inf cells.
for preset in "${presets[@]}"; do
  if [ "${preset}" = "asan-ubsan" ]; then
    echo "==== traced campaign (${preset}) ===="
    out_dir=$(mktemp -d)
    trap 'rm -rf "${out_dir}"' EXIT
    "build-${preset}/tools/idseval_cli" campaign \
      --spec examples/campaign_ci.spec --jobs 2 \
      --out "${out_dir}" --trace "${out_dir}/trace.jsonl"
    "build-${preset}/tools/idseval_cli" trace-check "${out_dir}/trace.jsonl"
    "build-${preset}/tools/idseval_cli" trace-check \
      --csv "${out_dir}/ci_campaign_stages.csv" --expect-rows 32
    "build-${preset}/tools/idseval_cli" trace-check \
      --csv "${out_dir}/ci_campaign.csv"
    rm -rf "${out_dir}"
    trap - EXIT
    # Flow-table core focus run: the open-addressing FlowTable, packed
    # FlowTuple keys, the XOR-aliasing regressions, and the per-flow
    # eviction paths get an explicit sanitizer pass (they are also part
    # of the full suite above), plus the megaflow bench section in smoke
    # mode — its throughput floor is warn-only under instrumentation.
    # (ctest names are the discovered gtest suites, not the binary
    # names; --no-tests=error keeps a filter typo from passing as a
    # silent no-op.)
    echo "==== flow-table focus (${preset}) ===="
    ctest --preset "${preset}" --output-on-failure --no-tests=error \
      -R 'FlowTableTest|FlowTupleTest|KeyAliasingTest|FlowStateEvictionTest'
    "build-${preset}/bench/bench_netsim" --smoke \
      --out "build-${preset}/BENCH_netsim_smoke.json"
    # Scan-cache focus run: the interned-payload memo, the flat-map port
    # windows, and the streaming reassembly (against the naive
    # full-rescan oracle) get an explicit sanitizer pass, then an
    # ecommerce evaluation drives the largest memo population (over 4096
    # distinct payloads) end to end.
    echo "==== scan-cache focus (${preset}) ===="
    ctest --preset "${preset}" --output-on-failure --no-tests=error \
      -R 'ScanCacheTest|FlatMapTest|ReassemblyTest|FullRescanOracleTest'
    "build-${preset}/tools/idseval_cli" evaluate --product SentryNID \
      --profile ecommerce
    # Kill-chain focus run: the staged campaign machinery (preset
    # determinism, stage ordering, pivoting), the per-technique/per-stage
    # breakdown arithmetic, and the ics/canbus profile pins get an
    # explicit sanitizer pass, then one traced kill-chain evaluation
    # drives the whole staged path — emitter stage overrides, ledger
    # labels, breakdown rendering, and the "attack." counters the trace
    # checker now recognizes — end to end.
    echo "==== kill-chain focus (${preset}) ===="
    ctest --preset "${preset}" --output-on-failure --no-tests=error \
      -R 'KillChainTest|KillChainRunTest|BreakdownTest|ProfileProperty'
    out_dir=$(mktemp -d)
    trap 'rm -rf "${out_dir}"' EXIT
    "build-${preset}/tools/idseval_cli" evaluate --product SentryNID \
      --profile ics --kill-chain ics-takeover \
      --trace "${out_dir}/killchain_trace.jsonl"
    "build-${preset}/tools/idseval_cli" trace-check \
      "${out_dir}/killchain_trace.jsonl"
    rm -rf "${out_dir}"
    trap - EXIT
  fi
  if [ "${preset}" = "tsan" ]; then
    # End-to-end race check: the example CI campaign on two pool workers
    # with tracing on, so cell scheduling, store appends, per-cell
    # registry merges, and the background trace writer all run under the
    # race detector.
    echo "==== traced campaign, 2 jobs (${preset}) ===="
    out_dir=$(mktemp -d)
    trap 'rm -rf "${out_dir}"' EXIT
    "build-${preset}/tools/idseval_cli" campaign \
      --spec examples/campaign_ci.spec --jobs 2 \
      --out "${out_dir}" --trace "${out_dir}/trace.jsonl"
    "build-${preset}/tools/idseval_cli" trace-check "${out_dir}/trace.jsonl"
    rm -rf "${out_dir}"
    trap - EXIT
  fi
done
