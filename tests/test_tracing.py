"""The benchmark's span recorder against the package it wraps.

``perfbench/tracing.py`` wraps functions by looking them up as attributes of
the ``mdiqds`` modules, so a renamed or dropped import breaks the traced
benchmark. This checks the same lookups, one traced run, and the uninstall.
"""

import importlib.util
import inspect
from pathlib import Path

import mdiqds
import mdiqds.estimation
import mdiqds.protocol
import mdiqds.relay
import mdiqds.scenario
import mdiqds.security
import mdiqds.session

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# what install() and its counters read, by module
REQUIRED = {
    mdiqds.scenario: ("build_security_report", "estimate_yields", "run_kgp_session"),
    mdiqds.security: ("build_security_report", "estimate_yields", "expected_sifted_data"),
    mdiqds.estimation: ("linprog",),
    mdiqds.relay: ("occupation_distribution",),
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_the_package():
    for module, names in REQUIRED.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    # the session counters read the tables the session was drawn from
    assert "tables" in inspect.signature(mdiqds.scenario.run_kgp_session).parameters
    owners = (mdiqds.scenario, mdiqds.security, mdiqds.estimation, mdiqds.relay,
              mdiqds.protocol, mdiqds.session.ChannelTables)
    before = [dict(vars(owner)) for owner in owners]

    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, mdiqds)
        wrapped = {(owner, attr) for owner, attr, _ in tracer._originals}
        assert {(module, name) for module, names in REQUIRED.items()
                for name in names} <= wrapped
        with tracer.job(0):
            code, _ = mdiqds.scenario.run(mdiqds.scenario.scenario_from_dict({}))
        assert code == mdiqds.scenario.EXIT_OK
        reports = [span for span in tracer.spans
                   if span["name"] == "security.build_security_report"]
        assert [span["attrs"] for span in reports] == [{"feasible": 1}]
    finally:
        tracer.uninstall()
    for owner, attrs in zip(owners, before):
        assert all(vars(owner)[name] is value for name, value in attrs.items()), owner
