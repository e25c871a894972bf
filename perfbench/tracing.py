"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ``mdiqds`` modules from outside
the package: it replaces the module (or class) attribute that callers look
the function up by, so calls made inside the package are traced too. Spans
(name, start, end, parent, job id, counters) stay in memory until the run
writes them out. Nothing under ``src/`` is modified; the wrappers live only
in the benchmark process and are removed again by ``uninstall``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import time


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._job: int | None = None
        self._originals: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def job(self, job_id: int):
        """Record spans under ``job_id`` while the block runs."""
        self.enabled, self._job = True, job_id
        try:
            yield
        finally:
            self.enabled, self._job = False, None

    def wrap(self, owner, attr: str, name: str, annotate=None):
        """Replace ``owner.attr`` with a wrapper that records a span named
        ``name``; ``annotate(result, bound_arguments)`` returns its counters."""
        original = getattr(owner, attr)
        signature = inspect.signature(original) if annotate else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            span = {
                "id": len(self.spans),
                "name": name,
                "job": self._job,
                "parent": self._stack[-1] if self._stack else None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if annotate is not None:
                bound = signature.bind(*args, **kwargs).arguments
                span["attrs"] = annotate(result, bound)
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def write(self, path):
        path.write_text(json.dumps(self.spans))


# -- the mdiqds layers -------------------------------------------------------


def _heavy_fraction(tables) -> float:
    """P(a pulse takes the session engine's heavy path), computed from the
    arrival-class marginals: every class pair except (0,0), (1,0), (0,1)."""
    z_a, z_b = tables.marginal_zero["a"], tables.marginal_zero["b"]
    s_a, s_b = tables.marginal_single["a"], tables.marginal_single["b"]
    return 1.0 - z_a * z_b - s_a * z_b - z_a * s_b


def _session_counts(sifted, args):
    tables = args.get("tables")
    heavy = _heavy_fraction(tables) if tables is not None else 0.0
    return {
        "pulses": sifted.n_pulses,
        "events": len(sifted.ev_bell),
        "heavy_pulses": heavy * sifted.n_pulses,
    }


def _sifted_counts(sifted, args):
    nbytes = sum(
        getattr(sifted, f).nbytes for f in vars(sifted) if f.startswith("ev_")
    )
    return {"events": len(sifted.ev_bell), "bytes": nbytes}


def _estimate_counts(result, args):
    estimates = result.estimates.values()
    return {"estimates": len(estimates), "usable": sum(e.usable for e in estimates)}


def _report_counts(report, args):
    return {"feasible": int(report.feasible)}


def _trials(result, args):
    return {"trials": int(args["trials"])}


def install(tracer: Tracer, mdiqds) -> None:
    """Wrap every layer boundary that the per-layer metrics read."""
    scenario, security = mdiqds.scenario, mdiqds.security
    tables_cls = mdiqds.session.ChannelTables
    tracer.wrap(tables_cls, "__init__", "session.tables")
    tracer.wrap(tables_cls, "expected_rates", "session.expected_rates")
    tracer.wrap(mdiqds.relay, "occupation_distribution", "relay.fock")
    tracer.wrap(scenario, "run_kgp_session", "session.run_kgp_session", _session_counts)
    tracer.wrap(security, "expected_sifted_data", "session.expected_sifted_data",
                _sifted_counts)
    for owner in (scenario, security):
        tracer.wrap(owner, "estimate_yields", "estimation.estimate_yields", _estimate_counts)
        tracer.wrap(owner, "build_security_report", "security.build_security_report",
                    _report_counts)
    tracer.wrap(mdiqds.estimation, "linprog", "estimation.linprog")
    tracer.wrap(security, "signature_length_search", "security.signature_length_search")
    tracer.wrap(mdiqds.protocol, "simulate_honest_batch", "protocol.honest_batch", _trials)
    tracer.wrap(mdiqds.protocol, "simulate_repudiating_alice", "protocol.repudiation",
                _trials)
    tracer.wrap(mdiqds.protocol, "simulate_forging_bob", "protocol.forging", _trials)
    tracer.wrap(scenario, "run_montecarlo", "scenario.run_montecarlo")
    tracer.wrap(scenario, "run", "scenario.run")
    tracer.wrap(scenario, "render_report", "scenario.render")


def _job_totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: summed seconds, call count and summed counters."""
    by_id = {span["id"]: span for span in spans}
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span["name"], {"s": 0.0, "calls": 0})
        entry["s"] += span["end"] - span["start"]
        entry["calls"] += 1
        for key, value in span.get("attrs", {}).items():
            entry[key] = entry.get(key, 0) + value
        if span["name"] == "session.expected_sifted_data":
            parent = span["parent"]
            while parent is not None and by_id[parent]["name"] != "security.signature_length_search":
                parent = by_id[parent]["parent"]
            if parent is not None:
                entry["search_evals"] = entry.get("search_evals", 0) + 1
    return totals


# (metric, span name, field, unit): the median over traced jobs of the
# per-job sum of that field
_PER_JOB = (
    ("session.run_kgp_session_s", "session.run_kgp_session", "s", "s"),
    ("session.pulses", "session.run_kgp_session", "pulses", "count"),
    ("session.events", "session.run_kgp_session", "events", "count"),
    ("session.tables_s", "session.tables", "s", "s"),
    ("session.expected_rates_s", "session.expected_rates", "s", "s"),
    ("relay.fock_evals", "relay.fock", "calls", "count"),
    ("relay.fock_s", "relay.fock", "s", "s"),
    ("session.expected_sifted_data_s", "session.expected_sifted_data", "s", "s"),
    ("session.sifted_events", "session.expected_sifted_data", "events", "count"),
    ("session.sifted_bytes", "session.expected_sifted_data", "bytes", "B"),
    ("estimation.estimate_yields_s", "estimation.estimate_yields", "s", "s"),
    ("estimation.lp_solves", "estimation.linprog", "calls", "count"),
    ("estimation.lp_s", "estimation.linprog", "s", "s"),
    ("security.search_evals", "session.expected_sifted_data", "search_evals", "count"),
    ("security.build_report_s", "security.build_security_report", "s", "s"),
    ("protocol.honest_batch_s", "protocol.honest_batch", "s", "s"),
    ("protocol.repudiation_s", "protocol.repudiation", "s", "s"),
    ("protocol.forging_s", "protocol.forging", "s", "s"),
    ("scenario.run_s", "scenario.run", "s", "s"),
    ("scenario.render_s", "scenario.render", "s", "s"),
)

# (metric, numerator (span, field) list, denominator list, unit): a ratio of
# sums over all traced jobs, reported with its base (the denominator)
_RATIOS = (
    ("session.events_per_pulse", [("session.run_kgp_session", "events")],
     [("session.run_kgp_session", "pulses")], "events/pulse"),
    ("session.heavy_frac", [("session.run_kgp_session", "heavy_pulses")],
     [("session.run_kgp_session", "pulses")], "ratio"),
    ("estimation.usable_frac", [("estimation.estimate_yields", "usable")],
     [("estimation.estimate_yields", "estimates")], "ratio"),
    ("security.feasible_frac", [("security.build_security_report", "feasible")],
     [("security.build_security_report", "calls")], "ratio"),
    ("protocol.trials_per_s",
     [(n, "trials") for n in ("protocol.honest_batch", "protocol.repudiation",
                              "protocol.forging")],
     [(n, "s") for n in ("protocol.honest_batch", "protocol.repudiation",
                         "protocol.forging")], "1/s"),
)

# values derived from a model rather than observed at a boundary
COMPUTED = {"session.heavy_frac", "session.sifted_bytes"}


def per_layer(spans: list[dict], job_ids: list[int], overhead_s: float):
    """Per-layer metrics of the traced jobs.

    Returns ``(metrics, bases)``: ``metrics`` maps a name to ``(value,
    unit)``; ``bases`` maps each ratio to its (numerator, denominator) sums.
    """
    per_job = []
    for job_id in job_ids:
        per_job.append(_job_totals([s for s in spans if s["job"] == job_id]))

    def field(totals, span, name):
        return totals.get(span, {}).get(name, 0)

    metrics = {}
    for metric, span, name, unit in _PER_JOB:
        values = [field(t, span, name) for t in per_job]
        metrics[metric] = (statistics.median(values), unit)
    bases = {}
    for metric, numerator, denominator, unit in _RATIOS:
        top = sum(field(t, s, n) for t in per_job for s, n in numerator)
        base = sum(field(t, s, n) for t in per_job for s, n in denominator)
        metrics[metric] = (top / base if base else 0.0, unit)
        bases[metric] = (top, base)
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics, bases
