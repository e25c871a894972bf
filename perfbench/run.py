"""Run one benchmark workload against the checkout's ``mdiqds`` and print
its metrics.

    python3 perfbench/run.py --workload mc-bright --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run it from the root of a checkout; it imports ``mdiqds`` from ``src/`` and
exits non-zero, printing no result, when that package is missing.

Set-up (imports, input generation and one untimed warm-up job) is timed
first; then jobs run back to back until ``--seconds`` have passed. With
``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it carries the
per-layer metrics of a traced run, in which every job runs twice, once
traced and once not, and the difference of the two medians is reported as
``trace.overhead_s``. ``--workload all`` runs each workload in its own
process and prints every workload's named metrics side by side.

Every run also writes its full record (the workload's named metrics, each
job's inputs, timings, report sha256 digests and check failures, the ratio
bases, the machine) to ``.perfbench_out/``, and a traced run writes its spans
there too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SPEC = ROOT / "BENCHMARK.json"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (smoke check only)")
    return parser.parse_args(argv)


def _import_package():
    """Import mdiqds from this checkout's src/, or return None."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import mdiqds.estimation
        import mdiqds.protocol
        import mdiqds.relay
        import mdiqds.scenario
        import mdiqds.security
        import mdiqds.session
    except ImportError as exc:
        print(f"perfbench: cannot import mdiqds from {src}: {exc}", file=sys.stderr)
        return None
    if Path(mdiqds.__file__).resolve().parent != (src / "mdiqds").resolve():
        print(f"perfbench: mdiqds was imported from {mdiqds.__file__}, not {src}",
              file=sys.stderr)
        return None
    return mdiqds


def _machine() -> dict:
    import numpy
    import scipy

    info = {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }
    for path, key, field in (("/proc/meminfo", "ram_mb", "MemTotal:"),
                             ("/proc/self/status", "threads", "Threads:")):
        try:
            for line in Path(path).read_text().splitlines():
                if line.startswith(field):
                    value = int(line.split()[1])
                    info[key] = value // 1024 if key == "ram_mb" else value
        except OSError:
            pass
    return info


def _job_seconds(outcome):
    return sum(outcome.parts.values())


def _median_seconds(outcomes):
    """Median job time over the jobs that completed and passed their check."""
    times = [_job_seconds(o) for o in outcomes if o.parts and not o.problems]
    return statistics.median(times) if times else 0.0


def _measure(workload, rng, seconds, tracer, jobs, outcomes):
    """Run jobs back to back for ``seconds``; with a tracer, run each job
    untraced and traced, alternating which goes first. Appends every job and
    outcome to ``jobs``/``outcomes``; returns (untraced, traced, traced ids)."""
    from workloads import run_checked

    plain, traced, traced_ids = [], [], []
    start = perf_counter()
    while not plain or perf_counter() - start < seconds:
        job = workload.make_job(rng)
        if tracer is None:
            order = (False,)
        else:
            order = (True, False) if len(traced) % 2 else (False, True)
        for traced_run in order:
            if traced_run:
                traced_ids.append(len(traced_ids))
                with tracer.job(traced_ids[-1]):
                    outcome = run_checked(workload, job)
                traced.append(outcome)
            else:
                outcome = run_checked(workload, job)
                plain.append(outcome)
            jobs.append(job)
            outcomes.append(outcome)
    return plain, traced, traced_ids


def _print_summary(args, machine, outcomes, failed, named, metrics, bases, computed):
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(outcomes)} jobs (1 warm-up), {failed} failed")
    print(f"  machine: {machine}")
    for name, (value, unit, n) in named.items():
        print(f"  {name:34s} {value:14.6g} {unit:8s} median of {n} jobs")
    print(f"  {'failed_frac':34s} {failed / len(outcomes):14.6g} {'ratio':8s} "
          f"{failed}/{len(outcomes)} jobs")
    for name, (value, unit) in metrics.items():
        note = f"= {bases[name][0]:.6g} / {bases[name][1]:.6g}" if name in bases else ""
        if name in computed:
            note += " (computed)"
        print(f"  {name:34s} {value:14.6g} {unit:8s} {note}")
    for i, outcome in enumerate(outcomes):
        for problem in outcome.problems:
            print(f"  job {i} FAILED: {problem}")
        digests = " ".join(f"{part}={d[:16]}" for part, d in outcome.digests.items())
        print(f"  job {i} report sha256: {digests}")


def run_workload(args) -> int:
    start = perf_counter()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    mdiqds = _import_package()
    if mdiqds is None:
        return 2
    import numpy as np

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    workload = workloads.WORKLOADS[args.workload](args.tiny)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, mdiqds)
    jobs = [workload.make_job(rng)]
    outcomes = [workloads.run_checked(workload, jobs[0])]
    setup_s = perf_counter() - start

    plain, traced, traced_ids = _measure(workload, rng, args.seconds, tracer, jobs, outcomes)
    failed = sum(bool(o.problems) for o in outcomes)
    job_s = _median_seconds(plain)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    named = workload.named([o for o in plain if not o.problems])
    bases, computed = {}, set()
    if tracer is None:
        metrics = {"job_s": (job_s, "s"), "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        tracer.uninstall()
        overhead_s = _median_seconds(traced) - job_s
        metrics, bases = tracing.per_layer(tracer.spans, traced_ids, overhead_s)
        computed = tracing.COMPUTED

    machine = _machine()
    metric_entries = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "machine": machine,
        "setup_s": setup_s, "job_s": job_s, "peak_rss_mb": peak_rss_mb,
        "attempted": len(outcomes), "failed_frac": failed / len(outcomes),
        "named": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in named.items()},
        "metrics": metric_entries,
        "ratio_bases": {k: {"numerator": a, "denominator": b} for k, (a, b) in bases.items()},
        "computed": sorted(computed),
        "jobs": [{"inputs": j, "warm_up": i == 0, "parts": o.parts, "digests": o.digests,
                  "problems": o.problems} for i, (j, o) in enumerate(zip(jobs, outcomes))],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.json")

    _print_summary(args, machine, outcomes, failed, named, metrics, bases, computed)
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes),
                      "failed": failed, "metrics": metric_entries}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process), then one
    table of every workload's named metrics."""
    names = [w["name"] for w in json.loads(SPEC.read_text())["workloads"]]
    rows, status = [], 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
            continue
        record = json.loads((OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").read_text())
        status |= int(not json.loads(proc.stdout.splitlines()[-1])["correct"])
        rows += [(name, k, v["value"], v["unit"], v["samples"])
                 for k, v in record["named"].items()]
        rows.append((name, "failed_frac", record["failed_frac"], "ratio", record["attempted"]))
        rows += [(name, k, v["value"], v["unit"], "") for k, v in record["metrics"].items()]
    print(f"\n{'workload':12s} {'metric':34s} {'value':>12s} {'unit':12s} samples")
    for name, metric, value, unit, n in rows:
        print(f"{name:12s} {metric:34s} {value:12.6g} {unit:12s} {n}")
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
