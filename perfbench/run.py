#!/usr/bin/env python3
"""Iris benchmark: builds the harness from source and runs one workload.

    python3 perfbench/run.py --workload drill|slo|control|all --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --compare BASE.json NEW.json

Run it from the repository root. The first run configures and builds two
variants of the harness under .bench_build/ (observability compiled in, and
IRIS_OBS=OFF for the obs.overhead_ratio probe); later runs rebuild
incrementally. Each run prints a metric table, writes its full result with
provenance to .bench_build/results/, and ends stdout with one JSON line:
{"correct", "attempted", "failed", "metrics"} holding the end-to-end metrics
of BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1). Exit
status is 0 only when every answer checked out. Untraced times are scaled
to a reference host speed by the harness's host-speed gauge (GAUGE_REF_MS).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("drill", "slo", "control")
RUN_TIMEOUT_S = 170
ROUNDS = 3
# Set-up-only harness processes per round: setup_s is the median over
# these and the rounds' own set-ups.
SETUPS_PER_ROUND = 3
# The harness's host-speed gauge takes this long on the reference host.
# Untraced times are reported as if the host ran at that speed: wall time
# x GAUGE_REF_MS / the gauge time measured next to it. The raw wall times
# are kept in the result file as wall_*.
GAUGE_REF_MS = 2.0
# An op is scaled by the median gauge of the ops within this many of it.
GAUGE_WINDOW = 2
# Compilers and the harness keep their scratch files inside the checkout.
ENV = dict(os.environ, TMPDIR=str(BUILD / "tmp"))

# Per-layer metric -> (end-to-end metric it should move, on which workload).
LAYER_MOVES = {
    "core.planner_build_ms": "drill op_p50_ms, ops_per_s",
    "core.replan_cut_ms": "drill op_p50_ms",
    "core.replan_scenarios": "drill op_p50_ms",
    "core.replan_reuse_ratio": "drill op_p50_ms",
    "core.sweep_pruned_ratio": "drill op_p50_ms, setup_s",
    "core.slo_search_ms": "slo op_p50_ms",
    "core.slo_plans_per_probe": "slo op_p50_ms",
    "core.provision_ms": "slo and control op_p50_ms (small)",
    "core.amp_cut_ms": "drill setup_s",
    "reliability.mc_ms": "slo op_p50_ms, ops_per_s",
    "reliability.event_gen_ms": "slo op_p50_ms, ops_per_s",
    "reliability.criterion_ms": "slo op_p50_ms, ops_per_s",
    "reliability.events_per_run": "slo op_p50_ms, ops_per_s",
    "fleet.drill_glue_ms": "drill op_p50_ms",
    "fleet.books_rebuilt_ratio": "control op_p50_ms",
    "fleet.recoveries_per_op": "control op_p90_ms",
    "control.build_ms": "control op_p50_ms",
    "control.loop_ms": "control op_p50_ms",
    "control.commands_per_apply": "control op_p50_ms, reconfig_makespan_ms",
    "control.command_attempt_ratio": "control op_p50_ms, reconfig_makespan_ms",
    "control.journal_records_per_apply": "control op_p50_ms",
    "obs.series_per_region": "control op_p50_ms",
    "obs.export_ms": "control op_p50_ms",
    "obs.overhead_ratio": "control ops_per_s",
    "trace.overhead_ratio": "none (cost of the spans on this workload)",
    "trace.unattributed_share": "none (op time no layer call covers)",
}


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"missing {path.name} at the repository root", 2)
    return json.loads(path.read_text())


def build(variant, obs_on):
    """Configures (once) and incrementally builds one harness variant."""
    out = BUILD / variant
    log = BUILD / f"{variant}.log"
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release",
                      f"-DIRIS_OBS={'ON' if obs_on else 'OFF'}"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log, "a") as fh:
        for cmd in steps:
            if subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT,
                              env=ENV).returncode:
                tail = log.read_text().splitlines()[-30:]
                fail(f"build of {variant} failed:\n" + "\n".join(tail))
    return out / "iris_perfbench"


def run_harness(binary, args):
    """Runs the harness; returns (exit code, parsed last stdout line)."""
    try:
        proc = subprocess.run([str(binary), *args], stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, env=ENV)
    except subprocess.TimeoutExpired:
        fail(f"harness timed out after {RUN_TIMEOUT_S} s")
    if proc.returncode in (2, 3):  # usage error, or refused to time
        sys.exit(proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"harness printed no result (exit {proc.returncode})")
    return proc.returncode, json.loads(lines[-1])


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def host_scaled(lat, gauge):
    """Op latencies at the reference host speed: each op over the median
    gauge time of the ops around it (the harness times the gauge right
    after every op), so one stray gauge reading cannot skew an op."""
    out = []
    for i, ms in enumerate(lat):
        near = gauge[max(i - GAUGE_WINDOW, 0):i + GAUGE_WINDOW + 1]
        out.append(ms * GAUGE_REF_MS / statistics.median(near))
    return out


def pooled_rounds(binary, args, seed, seconds):
    """An untraced run: ROUNDS harness processes in sequence, each with its
    own set-up and a share of the seconds, pooled into one result. Separate
    processes average out the memory-layout luck of a single process, which
    moves drill and control op times by about 10% from process to process
    on a shared host. Each round is preceded by SETUPS_PER_ROUND set-up-only
    processes, so setup_s is the median of ROUNDS * (SETUPS_PER_ROUND + 1)
    set-ups spread across the run. Times are scaled to the reference host
    speed by the gauge (see GAUGE_REF_MS)."""
    rounds = []
    setups = []
    wall_setups = []
    violations = []
    code = 0
    for k in range(ROUNDS):
        round_args = args + ["--seed", str(seed * 1000 + k)]
        for _ in range(SETUPS_PER_ROUND):
            c, res = run_harness(binary, round_args + ["--setup-only"])
            code = code or c
            violations += res["violations"]
            if "setup_s" in res:  # absent when the set-up threw
                wall_setups.append(res["setup_s"])
                setups.append(res["setup_s"] * GAUGE_REF_MS
                              / res["setup_gauge_ms"])
        c, res = run_harness(binary, round_args + [
            "--seconds", str(seconds / ROUNDS)])
        code = code or c
        rounds.append(res)
        wall_setups.append(res["setup_s"])
        setups.append(res["setup_s"] * GAUGE_REF_MS / res["setup_gauge_ms"])
    first = rounds[0]
    wall = [ms for r in rounds for ms in r["lat_ms"]]
    lat = [ms for r in rounds for ms in host_scaled(r["lat_ms"], r["gauge_ms"])]
    violations += [v for r in rounds for v in r["violations"]]
    if len({r["digest"] for r in rounds}) != 1:
        violations.append("rounds disagree on the reference answers")
    for name in first["metrics"]:  # virtual-clock metrics must repeat exactly
        if len({json.dumps(r["metrics"][name]) for r in rounds}) != 1:
            violations.append(f"rounds disagree on {name}")
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": 1000 * len(lat) / sum(lat), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(lat), "unit": "ms"},
        "wall_setup_s": {"value": statistics.median(wall_setups), "unit": "s"},
        "wall_ops_per_s": {"value": 1000 * len(wall) / sum(wall),
                           "unit": "1/s"},
        "wall_op_p50_ms": {"value": statistics.median(wall), "unit": "ms"},
        "gauge_ms": {"value": statistics.median(
            [g for r in rounds for g in r["gauge_ms"]]), "unit": "ms"},
        "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in rounds),
                        "unit": "MB"},
        "fail_ratio": {"value": failed / attempted, "unit": "1"},
        **first["metrics"],
    }
    # p90 only where at least ten ops lie beyond it.
    if len(lat) - math.ceil(0.9 * len(lat)) >= 10:
        metrics["op_p90_ms"] = {"value": nearest_rank(lat, 0.9), "unit": "ms"}
    res = {
        "workload": first["workload"], "seed": seed, "trace": 0,
        "correct": all(r["correct"] for r in rounds) and not violations,
        "attempted": attempted, "failed": failed, "violations": violations,
        "compiler": first["compiler"], "flags": first["flags"],
        "rounds": ROUNDS, "setup_samples": len(setups), "metrics": metrics,
    }
    return code, res


def obs_overhead_ratio(on_bin, off_bin):
    """Control op time with observability compiled in over the same ops in
    the IRIS_OBS=OFF build, alternating builds to share host drift."""
    on, off = [], []
    for _ in range(2):
        for binary, sink in ((on_bin, on), (off_bin, off)):
            code, res = run_harness(binary, ["--obs-probe"])
            if code != 0 or not res.get("correct"):
                fail("obs probe: a control op ended unhealthy")
            sink.extend(res["op_ms"])
    return statistics.median(on) / statistics.median(off)


def commit():
    if os.environ.get("IRIS_BENCH_COMMIT"):
        return os.environ["IRIS_BENCH_COMMIT"]
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return "unknown"


def print_table(res, trace):
    print(f"# workload {res['workload']}  seed {res['seed']}  "
          f"{'traced' if trace else 'untraced'}  "
          f"attempted {res['attempted']}  failed {res['failed']}  "
          f"correct {res['correct']}")
    for v in res["violations"]:
        print(f"#   violation: {v}")
    if trace:
        print(f"  {'per-layer metric':36s} {'value':>14s}  {'unit':6s} moves")
        for name, m in sorted(res["metrics"].items()):
            print(f"  {name:36s} {m['value']:14.6g}  {m['unit']:6s} "
                  f"{LAYER_MOVES.get(name, '')}")
        m = res["metrics"]
        print(f"# tracing overhead on {res['workload']}: "
              f"x{m['trace.overhead_ratio']['value']:.4f}; unattributed share "
              f"of op time: {m['trace.unattributed_share']['value']:.4f}")
    else:
        for name, m in sorted(res["metrics"].items()):
            print(f"  {name:24s} {m['value']:14.6g}  {m['unit']}")


def run_one(spec, workload, seed, seconds, trace):
    # Both variants are built on the first run, whatever its mode: only that
    # run is allowed the time of a full build.
    on_bin = build("obs-on", True)
    off_bin = build("obs-off", False)
    traces = BUILD / "traces"
    traces.mkdir(exist_ok=True)
    args = ["--workload", workload, "--trace", "1" if trace else "0"]
    if trace:
        code, res = run_harness(on_bin, args + [
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace-out", str(traces / f"{workload}-seed{seed}.json")])
        if res["correct"]:
            res["metrics"]["obs.overhead_ratio"] = {
                "value": obs_overhead_ratio(on_bin, off_bin), "unit": "1"}
    else:
        code, res = pooled_rounds(on_bin, args, seed, seconds)

    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    res["provenance"] = {
        "commit": commit(),
        "compiler": res.pop("compiler"),
        "flags": res.pop("flags"),
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "why": whys.get(workload, ""),
    }
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(res, indent=1, sort_keys=True) + "\n")
    print_table(res, trace)
    print(f"# result written to {out.relative_to(ROOT)}")

    correct = bool(res["correct"]) and code == 0
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    metrics = {}
    for name in wanted:
        if name in res["metrics"]:
            metrics[name] = res["metrics"][name]
        elif correct:
            fail(f"metric {name} missing from the {workload} run")
    line = {"correct": correct,
            "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}
    return line


def compare(base_path, new_path):
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    for label, r in (("base", base), ("new", new)):
        p = r["provenance"]
        print(f"# {label}: {r['workload']} commit {p['commit'][:12]} "
              f"{p['compiler']} nproc {p['nproc']} seed {p['seed']}")
    if base["workload"] != new["workload"]:
        print("# warning: comparing different workloads")
    print(f"  {'metric':36s} {'base':>14s} {'new':>14s} {'delta':>14s} "
          f"{'delta/base':>10s}")
    for name in sorted(set(base["metrics"]) | set(new["metrics"])):
        b = base["metrics"].get(name, {}).get("value")
        n = new["metrics"].get(name, {}).get("value")
        if b is None or n is None:
            print(f"  {name:36s} {'-' if b is None else f'{b:14.6g}':>14s} "
                  f"{'-' if n is None else f'{n:14.6g}':>14s}")
            continue
        rel = f"{(n - b) / b:+10.2%}" if b else f"{'n/a':>10s}"
        print(f"  {name:36s} {b:14.6g} {n:14.6g} {n - b:+14.6g} {rel}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    a = ap.parse_args()
    if a.compare:
        compare(*a.compare)
        return 0
    if not a.workload:
        ap.error("--workload is required")
    if not ((ROOT / "CMakeLists.txt").is_file()
            and (ROOT / "src" / "CMakeLists.txt").is_file()):
        fail("no Iris sources next to perfbench/: run it from a repository "
             "checkout", 2)
    spec = load_spec()
    seconds = int(a.seconds) if a.seconds == int(a.seconds) else a.seconds
    if a.workload != "all":
        line = run_one(spec, a.workload, a.seed, seconds, bool(a.trace))
        print(json.dumps(line))
        return 0 if line["correct"] else 1
    lines = {w: run_one(spec, w, a.seed, seconds, bool(a.trace))
             for w in WORKLOADS}
    for w, line in lines.items():
        print(f"# {w}: {json.dumps(line)}")
    summary = {
        "correct": all(l["correct"] for l in lines.values()),
        "attempted": sum(l["attempted"] for l in lines.values()),
        "failed": sum(l["failed"] for l in lines.values()),
        "metrics": {f"{w}.{k}": v for w, l in lines.items()
                    for k, v in l["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
