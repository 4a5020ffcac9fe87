#!/usr/bin/env python3
"""idsbench: end-to-end and per-layer benchmark of idseval.

Run from the root of a checkout:

    python3 idsbench/run.py --workload scorecard|detect|campaign \\
        --seed N --seconds S --trace 0|1

Builds the runner (Release) under .bench_build/idsbench, runs one
workload, checks every operation's output digest and prints, as the last
line of standard output, one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1
the per-layer ones. The line before it carries the machine fingerprint and
the details behind the numbers.

    python3 idsbench/run.py --record --workload W --seed N --seconds 1

runs the workload once and stores its digests in references.json.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import benchstats  # noqa: E402

WORKLOADS = ("scorecard", "detect", "campaign")
REFERENCES = BENCH_DIR / "references.json"
RUNNER_TIMEOUT_S = 170

def fail(message):
    print(f"idsbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root):
    """Configures and builds the runner; returns its path."""
    build_dir = root / ".bench_build" / "idsbench"
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "--target",
              "idsbench_runner", "-j", jobs]]
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        proc = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir / "idsbench_runner", build_dir


def run_runner(runner, build_dir, args):
    work_dir = build_dir / "work" / args.workload
    cmd = [str(runner), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"runner exceeded {RUNNER_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"runner exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("runner printed nothing")
    return json.loads(lines[-1])


def load_references(workload, seed):
    if not REFERENCES.exists():
        return {}
    refs = json.loads(REFERENCES.read_text())
    return refs.get(workload, {}).get(str(seed), {})


def outputs(passes):
    """Yields (key, digest, ops) per checked output of the passes: one per
    operation, or one per pass whose operations share a pass output
    (campaign: the aggregate CSV covers every cell of the pass)."""
    for p in passes:
        if "out" in p:
            yield "aggregate", benchstats.digest(p["out"]), p["ops"]
        for op in p["ops"]:
            if "out" in op:
                yield op["key"], benchstats.digest(op["out"]), [op]


def check(workload, seed, raw):
    """Counts failed operations: thrown, campaign cell not ok, or output
    digest different from the reference. Seeds without a recorded
    reference are checked against the run's own first output per key."""
    refs = dict(load_references(workload, seed))
    source = "recorded" if refs else "self"
    passes = raw["passes"]
    every = (passes + raw.get("traced_passes", []) +
             raw.get("census_passes", []))
    failed_ids = {id(op) for p in every for op in p["ops"] if not op["ok"]}
    for key, dig, ops in outputs(passes):
        # A recorded seed must cover every output: a key it lacks means
        # the references are stale, not that the output is right.
        expected = refs.get(key) if source == "recorded" else \
            refs.setdefault(key, dig)
        if expected != dig:
            failed_ids.update(id(op) for op in ops)
    trace_equal = True
    if raw["trace"]:
        # Traced passes must reproduce the untraced outputs exactly: the
        # mirror recorder and the split calls must not perturb anything.
        untraced = {}
        for p in passes:
            for op in p["ops"]:
                if "out" in op:
                    text = op.get("cmp", op["out"])
                    untraced[op["key"]] = benchstats.digest(text)
            if "out" in p:
                untraced["aggregate"] = benchstats.digest(p["out"])
        for key, dig, ops in outputs(raw["traced_passes"]):
            if untraced.get(key) != dig:
                trace_equal = False
                failed_ids.update(id(op) for op in ops)
    attempted = sum(len(p["ops"]) for p in every)
    return attempted, len(failed_ids), source, trace_equal


def end_to_end(raw):
    passes = raw["passes"]
    op_secs = [op["s"] for p in passes for op in p["ops"]]
    # The tail rule applies within each pass; the run reports the median
    # pass tail, which a single slow pass cannot move.
    tails = [benchstats.tail([op["s"] for op in p["ops"]]) for p in passes]
    _, tail_pct, tail_beyond = tails[0]
    values = {
        "setup_s": benchstats.median(raw["setup_s"]),
        "wall_s": benchstats.median([p["wall_s"] for p in passes]),
        "op_p50_s": benchstats.median(op_secs),
        "op_tail_s": benchstats.median([t[0] for t in tails]),
        "sim_pkts_per_s": benchstats.median(
            [p["forwarded"] / p["wall_s"] for p in passes]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    details = {
        "passes": len(passes),
        "operations": len(op_secs),
        "op_tail": {"percentile": tail_pct, "beyond": tail_beyond,
                    "samples_per_pass": len(passes[0]["ops"])},
        "setup_samples": len(raw["setup_s"]),
        "setup_cold_s": raw["setup_cold_s"],
    }
    return values, details


def per_layer(raw, names):
    values = {}
    for name in names:
        samples = [layers[name] for layers in raw["layers"] if name in layers]
        if samples:
            values[name] = benchstats.median(samples)
    traced = [p["wall_s"] for p in raw["traced_passes"]]
    untraced = [p["wall_s"] for p in raw["passes"]]
    values["trace.overhead_ratio"] = (benchstats.median(traced) /
                                      benchstats.median(untraced))
    details = {"traced_passes": len(traced), "untraced_passes": len(untraced)}
    return values, details


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha(root):
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest(root):
    """Digest of the idseval sources the runner was built from; stands in
    for the git SHA when the checkout is not a repository."""
    parts = []
    for path in sorted((root / "src").rglob("*")):
        if path.is_file():
            parts.append(str(path.relative_to(root)))
            parts.append(path.read_text(errors="replace"))
    return benchstats.digest("\n".join(parts))


def fingerprint(root, build):
    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "compiler": build["compiler"],
        "build_type": build["build_type"],
        "sanitized": build["sanitized"],
        "git_sha": git_sha(root),
        "source_digest": source_digest(root),
    }


def record(workload, seed, raw):
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    entry = {}
    for key, dig, _ in outputs(raw["passes"]):
        if entry.setdefault(key, dig) != dig:
            fail(f"{workload} seed {seed}: {key} is not deterministic")
    refs.setdefault(workload, {})[str(seed)] = entry
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"recorded {workload} seed {seed}: {len(entry)} digests",
          file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's digests as the references")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    runner, build_dir = build(root)
    raw = run_runner(runner, build_dir, args)
    if args.record:
        record(args.workload, args.seed, raw)
        return

    attempted, failed, ref_source, trace_equal = check(args.workload,
                                                       args.seed, raw)
    # BENCHMARK.json declares the metrics and their units.
    config = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in config["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        values, details = per_layer(raw, units)
        details["traced_equals_untraced"] = trace_equal
    else:
        values, details = end_to_end(raw)
    missing = [name for name in units if name not in values]
    fp = fingerprint(root, raw["build"])
    details.update({
        "workload": args.workload,
        "seed": args.seed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "references": ref_source,
        "missing_metrics": missing,
        "fingerprint": fp,
        # Only an optimized, unsanitized build may serve as a baseline.
        "baseline_eligible": (fp["build_type"] == "Release" and
                              not fp["sanitized"]),
    })
    print(json.dumps({"idsbench": details}, sort_keys=True))
    result = {
        "correct": failed == 0 and trace_equal and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
