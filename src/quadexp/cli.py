"""Command line interface: case runner, range runner, symbolic suites.

Exit codes: 0 the run completed (whatever the verdicts), 1 input error,
2 internal error.
"""

from __future__ import annotations

import json
import sys
import traceback

import click

from .errors import DomainError, NotSquareFree, QuadexpError
from .pipeline import (CaseParams, DIRECTIONS, SYMBOLIC_SUITES, run_case,
                       run_range, verify_symbolic)

_DEFAULTS = CaseParams()  # each case option defaults to its field here
_CASE_OPTIONS = [
    click.option("--precision-bits", type=int,
                 default=_DEFAULTS.precision_bits, show_default=True),
    click.option("--deg-bound", type=int, default=_DEFAULTS.deg_bound,
                 help="degree bound for recognition (default: twice the field degree)"),
    click.option("--height-bound", type=int, default=_DEFAULTS.height_bound,
                 show_default=False,
                 help="coefficient height bound for recognition (default 10^40)"),
    click.option("--conductor-direction",
                 type=click.Choice(DIRECTIONS),
                 default=_DEFAULTS.conductor_direction, show_default=True),
    click.option("--search-bound", type=int, default=_DEFAULTS.search_bound,
                 show_default=True),
    click.option("--cache-dir", type=click.Path(), default=_DEFAULTS.cache_dir,
                 help="class polynomial cache directory"),
    click.option("--given-conductor", type=int,
                 default=_DEFAULTS.given_conductor, show_default=True,
                 help="conductor of the given side of the match"),
    click.option("--skip-recognition", is_flag=True, default=False,
                 help="stop after the arithmetic stage and J evaluation"),
    click.option("--json", "json_path", type=click.Path(), default=None,
                 help="write the full report(s) to this file"),
]


def _with_case_options(cmd):
    for opt in reversed(_CASE_OPTIONS):
        cmd = opt(cmd)
    return cmd


def _input_error(exc: QuadexpError):
    click.echo(f"input error: {exc}", err=True)
    sys.exit(1)


def _params(skip_recognition, **fields) -> CaseParams:
    try:
        return CaseParams(recognition=not skip_recognition, **fields)
    except DomainError as exc:  # a field out of range: an input error
        _input_error(exc)


def _internal_error(exc: Exception):
    if not isinstance(exc, QuadexpError):  # a bug: keep its traceback
        traceback.print_exc()
    click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
    sys.exit(2)


@click.group()
def main():
    """Arithmetic verification runs for exponential values on quadratic fields."""


@main.command()
@click.argument("d", type=int)
@_with_case_options
def case(d, json_path, **opts):
    """Run the full experiment for one square-free integer D."""
    params = _params(**opts)
    try:
        report = run_case(d, params)
    except NotSquareFree as exc:
        _input_error(exc)
    except Exception as exc:
        _internal_error(exc)
    payload = report.dumps()
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        click.echo(f"report written to {json_path}")
    else:
        click.echo(payload)
    click.echo(f"verdict: {report.verdict()}", err=True)


@main.command(name="range")
@click.argument("d_min", type=int)
@click.argument("d_max", type=int)
@click.option("--workers", type=int, default=1, show_default=True)
@click.option("--csv", "csv_path", type=click.Path(), default=None,
              help="write the summary table to this file")
@_with_case_options
def range_cmd(d_min, d_max, workers, csv_path, json_path, **opts):
    """Run all square-free d in [D_MIN, D_MAX]."""
    params = _params(**opts)
    try:
        summary = run_range(d_min, d_max, params, workers=workers)
    except DomainError as exc:  # workers below 1: an input error
        _input_error(exc)
    except Exception as exc:
        _internal_error(exc)
    if json_path:
        blob = [r.to_json() for r in summary.reports]
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(blob, fh, sort_keys=True, indent=2)
        click.echo(f"{len(summary.reports)} reports written to {json_path}")
    table = summary.csv()
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(table)
        click.echo(f"summary table written to {csv_path}")
    else:
        click.echo(table, nl=False)
    click.echo(json.dumps(summary.counts(), sort_keys=True), err=True)


@main.command()
@click.argument("suite", type=click.Choice(sorted(SYMBOLIC_SUITES)))
@click.option("--json", "json_path", type=click.Path(), default=None)
def symbolic(suite, json_path):
    """Run one of the fixed symbolic verification suites."""
    try:
        checks = verify_symbolic(suite)
    except Exception as exc:
        _internal_error(exc)
    for c in checks:
        click.echo(f"{'PASS' if c.passed else 'FAIL'}  {c.name}")
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump([c.to_json() for c in checks], fh, sort_keys=True, indent=2)
    sys.exit(0)


if __name__ == "__main__":
    main()
