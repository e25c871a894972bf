"""Command line interface: analytic | simulate | protocol | tables."""

from __future__ import annotations

import functools
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

# command -> (scenario mode, help text)
COMMANDS = {
    "analytic": ("analytic", "Replay the security pipeline from configured inputs."),
    "simulate": ("montecarlo", "Monte-Carlo key generation at a scaled pulse budget."),
    "protocol": ("protocol", "Signing-protocol trial batteries against the analytic bounds."),
    "tables": ("table-sweep", "Replay the published raw-key-generation-time rows."),
}

# every command's options; --seed, --scale and --format, when given, override
# the scenario-file key that their value is named after
OPTIONS = (
    click.Option(["--config"], type=click.Path(), help="scenario JSON file"),
    click.Option(["--preset"], help="detector preset name"),
    click.Option(["--seed"], type=int, help="64-bit RNG seed"),
    click.Option(["--scale", "scale_factor"], type=float,
                 help="desk-scale divisor for pulse budgets"),
    click.Option(["--out"], type=click.Path(), help="output path"),
    click.Option(["--format"], type=click.Choice(["json", "csv"])),
)


def _run(mode: str, config, preset, out, **overrides):
    """Run ``mode`` on the config file's fields, overridden by the options
    given, and exit with the run's code."""
    try:
        raw = read_scenario_file(config) if config is not None else {}
        raw = {**raw, **{k: v for k, v in overrides.items() if v is not None}, "mode": mode}
        scenario = scenario_from_dict(raw, preset=preset)
        # checked before the run, so a long simulation is not lost at the end
        if out is not None and not Path(out).parent.is_dir():
            raise ValidationError(f"output directory does not exist: {Path(out).parent}")
        code, payload = run(scenario)
    except (ValidationError, DomainError) as exc:
        # a DomainError here comes from configured inputs (the analytic ones)
        # or from a session past the samplers' limits
        click.echo(f"validation error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    if scenario.format == "csv":
        text = table_rows_to_csv(payload["rows"])
    else:
        text = render_report(payload)
    if out:
        Path(out).write_text(text)
        click.echo(f"report written to {out}")
    else:
        click.echo(text, nl=False)
    sys.exit(code)


@click.group()
def main():
    """Simulator and finite-size security calculator for
    measurement-device-independent quantum digital signatures."""


for _name, (_mode, _help) in COMMANDS.items():
    main.add_command(click.Command(_name, callback=functools.partial(_run, _mode),
                                   params=list(OPTIONS), help=_help))


if __name__ == "__main__":
    main()
