"""Command line interface: analytic | simulate | protocol | tables."""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .errors import DomainError, ValidationError
from .scenario import (
    EXIT_VALIDATION,
    read_scenario_file,
    render_report,
    run,
    scenario_from_dict,
    table_rows_to_csv,
)


def _load(config, preset, mode, seed, scale, output_format):
    """The config file's fields, overridden by the options given and the mode."""
    raw = read_scenario_file(config) if config is not None else {}
    options = {"seed": seed, "scale_factor": scale, "format": output_format}
    raw = {**raw, **{k: v for k, v in options.items() if v is not None}, "mode": mode}
    return scenario_from_dict(raw, preset=preset)


def _emit(code: int, payload: dict, out: str | None, output_format: str):
    if output_format == "csv":
        text = table_rows_to_csv(payload["rows"])
    else:
        text = render_report(payload)
    if out:
        Path(out).write_text(text)
        click.echo(f"report written to {out}")
    else:
        click.echo(text, nl=False)
    sys.exit(code)


def _common_options(fn):
    fn = click.option("--config", type=click.Path(), default=None,
                      help="scenario JSON file")(fn)
    fn = click.option("--preset", default=None, help="detector preset name")(fn)
    fn = click.option("--seed", type=int, default=None, help="64-bit RNG seed")(fn)
    fn = click.option("--scale", type=float, default=None,
                      help="desk-scale divisor for pulse budgets")(fn)
    fn = click.option("--out", type=click.Path(), default=None, help="output path")(fn)
    fn = click.option("--format", "output_format",
                      type=click.Choice(["json", "csv"]), default=None)(fn)
    return fn


def _dispatch(mode, config, preset, seed, scale, out, output_format):
    try:
        scenario = _load(config, preset, mode, seed, scale, output_format)
        # checked before the run, so a long simulation is not lost at the end
        if out is not None and not Path(out).parent.is_dir():
            raise ValidationError(f"output directory does not exist: {Path(out).parent}")
        code, payload = run(scenario)
    except (ValidationError, DomainError) as exc:
        # a DomainError here comes from configured inputs (the analytic ones)
        click.echo(f"validation error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    _emit(code, payload, out, scenario.output_format)


@click.group()
def main():
    """Simulator and finite-size security calculator for
    measurement-device-independent quantum digital signatures."""


@main.command()
@_common_options
def analytic(config, preset, seed, scale, out, output_format):
    """Replay the security pipeline from configured inputs."""
    _dispatch("analytic", config, preset, seed, scale, out, output_format)


@main.command()
@_common_options
def simulate(config, preset, seed, scale, out, output_format):
    """Monte-Carlo key generation at a scaled pulse budget."""
    _dispatch("montecarlo", config, preset, seed, scale, out, output_format)


@main.command()
@_common_options
def protocol(config, preset, seed, scale, out, output_format):
    """Signing-protocol trial batteries against the analytic bounds."""
    _dispatch("protocol", config, preset, seed, scale, out, output_format)


@main.command()
@_common_options
def tables(config, preset, seed, scale, out, output_format):
    """Replay the published raw-key-generation-time rows."""
    _dispatch("table-sweep", config, preset, seed, scale, out, output_format)


if __name__ == "__main__":
    main()
