"""Smoke check of the benchmark itself at a tiny input size.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json once with tracing off and once with
it on (``run.py --tiny``), and asserts that each run exits 0 with a
well-formed last line in which every end-to-end or per-layer metric appears
with its unit, that each workload's named metrics appear in its record with
a unit, and that ``run.py`` fails without a result in a directory holding
only BENCHMARK.json and perfbench/. Takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

NAMED = {
    "mc-bright": ("mc_job_s", "mc_pulses_per_s"),
    "search": ("search_s.standard", "search_s.snspd"),
    "cli-modes": ("cli.simulate_s", "cli.protocol_s"),
}


def _check(condition, message):
    if not condition:
        raise SystemExit(f"smoke: FAIL: {message}")


def _run(cwd, workload, trace):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_runs(spec):
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, name, trace)
            _check(proc.returncode == 0, f"{name} trace={trace} exited "
                   f"{proc.returncode}: {proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.splitlines()[-1])
            _check(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} result keys {sorted(result)}")
            _check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace={trace} reports failures: {proc.stdout[-2000:]}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            _check(set(got) == set(want), f"{name} trace={trace} metrics differ: "
                   f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
            for metric, entry in got.items():
                _check(entry["unit"] == want[metric], f"{metric} unit {entry['unit']}")
                _check(isinstance(entry["value"], (int, float))
                       and math.isfinite(entry["value"]), f"{metric} value {entry['value']}")
            record = json.loads((OUT / f"{name}-seed3-trace{trace}.json").read_text())
            _check(record["failed_frac"] == 0.0, f"{name} failed_frac {record['failed_frac']}")
            for metric in NAMED[name]:
                _check(metric in record["named"] and record["named"][metric]["unit"],
                       f"{name} record lacks named metric {metric}")
            print(f"smoke: {name} trace={trace} ok ({result['attempted']} jobs)")


def check_bare_directory():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, "mc-bright", 0)
    shutil.rmtree(bare)
    _check(proc.returncode != 0, "run.py succeeded without the package")
    _check('"correct"' not in proc.stdout, "run.py printed a result without the package")
    print("smoke: bare directory fails without a result, ok")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_runs(spec)
    check_bare_directory()
    print("smoke: all ok")


if __name__ == "__main__":
    main()
