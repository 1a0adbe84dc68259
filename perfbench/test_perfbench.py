#!/usr/bin/env python3
"""The benchmark's own checks. Run from the repository root:

    python3 perfbench/test_perfbench.py

- two traced runs with one seed give byte-identical per-layer counts;
- the virtual-clock control metrics repeat exactly, whatever the seed;
- the harness refuses to time under IRIS_PLANNER_ORACLE;
- run.py fails without printing a result when the sources are absent;
- --compare prints every metric's delta with its base;
- host-speed scaling divides each op by the gauge time around it.
Takes about a minute (it builds the harness first if needed).
"""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]
COUNT = re.compile(r"(_per_|_ratio$|_scenarios$|events_per_run$)")


def run(*args, env=None, cwd=ROOT):
    return subprocess.run([*RUN, *args], cwd=cwd, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=600)


def result_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def result_file(workload, seed, trace):
    path = ROOT / ".bench_build" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


class PerfbenchTest(unittest.TestCase):
    def test_traced_counts_repeat_exactly(self):
        lines = []
        for _ in range(2):
            proc = run("--workload", "control", "--seed", "5", "--seconds", "1",
                       "--trace", "1")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            lines.append(result_line(proc))
        counts = [{k: json.dumps(v) for k, v in line["metrics"].items()
                   if COUNT.search(k) and not k.endswith("overhead_ratio")}
                  for line in lines]
        self.assertGreaterEqual(len(counts[0]), 10)
        self.assertEqual(counts[0], counts[1])

    def test_virtual_clock_metrics_repeat_exactly(self):
        seen = []
        for seed in (3, 4):
            proc = run("--workload", "control", "--seed", str(seed),
                       "--seconds", "1", "--trace", "0")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            m = result_file("control", seed, 0)["metrics"]
            seen.append((m["reconfig_makespan_ms"], m["capacity_gap_ms"]))
        self.assertEqual(seen[0], seen[1])
        self.assertGreater(seen[0][0]["value"], 0)

    def test_refuses_under_planner_oracle(self):
        env = dict(os.environ, IRIS_PLANNER_ORACLE="1")
        proc = run("--workload", "drill", "--seed", "1", "--seconds", "1",
                   "--trace", "0", env=env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_fails_without_sources(self):
        bare = ROOT / ".bench_build" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench")
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run("--workload", "drill", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_compare_prints_deltas_with_base(self):
        proc = run("--workload", "control", "--seed", "6", "--seconds", "1",
                   "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        path = ROOT / ".bench_build" / "results" / "control-seed6-trace0.json"
        proc = run("--compare", str(path), str(path))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        for name in ("setup_s", "op_p50_ms", "reconfig_makespan_ms"):
            self.assertRegex(proc.stdout, rf"{name}\s+\S+\s+\S+\s+\+0\s+\+0\.00%")


    def test_host_scaling_follows_the_gauge(self):
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", ROOT / "perfbench" / "run.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        ref = mod.GAUGE_REF_MS
        # The host halves its speed after op 5: ops and gauge both double.
        lat = [10.0] * 6 + [20.0] * 6
        gauge = [ref] * 6 + [2 * ref] * 6
        self.assertEqual(mod.host_scaled(lat, gauge), [10.0] * 12)
        # One slow gauge reading is outvoted by its neighbours.
        gauge = [ref] * 12
        gauge[4] = 5 * ref
        self.assertEqual(mod.host_scaled([10.0] * 12, gauge), [10.0] * 12)


if __name__ == "__main__":
    sys.exit(unittest.main())
