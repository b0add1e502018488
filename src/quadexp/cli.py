"""Command line interface: case runner, range runner, symbolic suites.

Exit codes: 0 the run completed (whatever the verdicts); 1 input error,
found before any work and printed as ``input error: ...`` under the usage
line: a malformed command line, an unwritable ``--json`` or ``--csv`` path
or ``--cache-dir`` directory, d not square-free, or a bound or worker count
out of its domain; 2 internal error, with the traceback of any exception
that is not a ``QuadexpError``.

``--cache-dir`` receives each certified class polynomial, for inspection;
no run reads it back. ``CaseParams`` checks it, so a path that is neither a
writable directory nor missing under one is an input error before any work.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import DomainError, NotSquareFree, QuadexpError
from .pipeline import (CaseParams, DIRECTIONS, SYMBOLIC_SUITES, run_case,
                       run_range, verify_symbolic)


class _Parser(argparse.ArgumentParser):
    """``--help`` but no ``-h``, no abbreviated options, input errors exit 1."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help",
                          help="show this message and exit")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"input error: {message}\n")


def _output_path(path: str) -> str:
    """An output path, checked before the run; an existing file is kept."""
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot write {path}: {exc.strerror}")
    if not existed:
        os.remove(path)
    return path


_DEFAULTS = CaseParams()  # each case option defaults to its field here
_CASE_FIELDS = {  # field: (type, help); CaseParams rejects a bad value
    "precision_bits": (int, "(default: %(default)s)"),
    "deg_bound": (int, "degree bound for recognition "
                       "(default: 4 h_imag, twice the field degree)"),
    "height_bound": (int, "coefficient height bound for recognition "
                          "(default 10^40)"),
    "conductor_direction": (str, f"{' or '.join(DIRECTIONS)} "
                                 "(default: %(default)s)"),
    "search_bound": (int, "(default: %(default)s)"),
    "cache_dir": (str, "directory, made if missing, that receives each "
                       "certified class polynomial for inspection; no run "
                       "reads it back"),
    "given_conductor": (int, "conductor of the given side of the match "
                             "(default: %(default)s)"),
}


def _case_params(args) -> CaseParams:
    return CaseParams(recognition=not args.skip_recognition,
                      **{name: getattr(args, name) for name in _CASE_FIELDS})


def _case(args):
    """Run the full experiment for one square-free integer D."""
    report = run_case(args.d, _case_params(args))
    payload = report.dumps()
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        print(f"report written to {args.json_path}")
    else:
        print(payload)
    sys.stdout.flush()  # a merged stream keeps the report before the verdict
    print(f"verdict: {report.verdict()}", file=sys.stderr)


def _range(args):
    """Run all square-free d in [D_MIN, D_MAX]."""
    summary = run_range(args.d_min, args.d_max, _case_params(args),
                        workers=args.workers)
    if args.json_path:
        blob = [r.to_json() for r in summary.reports]
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(blob, fh, sort_keys=True, indent=2)
        print(f"{len(summary.reports)} reports written to {args.json_path}")
    table = summary.csv()
    if args.csv_path:
        with open(args.csv_path, "w", encoding="utf-8") as fh:
            fh.write(table)
        print(f"summary table written to {args.csv_path}")
    else:
        print(table, end="")
    sys.stdout.flush()
    print(json.dumps(summary.counts(), sort_keys=True), file=sys.stderr)


def _symbolic(args):
    """Run one of the fixed symbolic verification suites."""
    checks = verify_symbolic(args.suite)
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name}")
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump([c.to_json() for c in checks], fh, sort_keys=True, indent=2)


_case_options = argparse.ArgumentParser(add_help=False)
for _name, (_type, _help) in _CASE_FIELDS.items():
    _case_options.add_argument("--" + _name.replace("_", "-"), type=_type,
                               default=getattr(_DEFAULTS, _name), help=_help)
_case_options.add_argument("--skip-recognition", action="store_true",
                           help="stop after the arithmetic stage and J evaluation")
_case_options.add_argument("--json", dest="json_path", type=_output_path,
                           help="write the full report(s) to this file")

PARSER = _Parser(prog="quadexp", description="Arithmetic verification runs "
                 "for exponential values on quadratic fields.")
COMMANDS = PARSER.add_subparsers(dest="command", required=True)


def _command(name, run, parents=()):
    cmd = COMMANDS.add_parser(name, parents=parents, help=run.__doc__,
                              description=run.__doc__)
    cmd.set_defaults(run=run)
    return cmd


_cmd = _command("case", _case, [_case_options])
_cmd.add_argument("d", metavar="D", type=int)
_cmd = _command("range", _range, [_case_options])
_cmd.add_argument("d_min", metavar="D_MIN", type=int)
_cmd.add_argument("d_max", metavar="D_MAX", type=int)
_cmd.add_argument("--workers", type=int, default=1,
                  help="processes to run the cases in (default: %(default)s)")
_cmd.add_argument("--csv", dest="csv_path", type=_output_path,
                  help="write the summary table to this file")
_cmd = _command("symbolic", _symbolic)
_cmd.add_argument("suite", choices=sorted(SYMBOLIC_SUITES))
_cmd.add_argument("--json", dest="json_path", type=_output_path,
                  help="write the checks to this file")


def main(argv: list[str] | None = None) -> None:
    args = PARSER.parse_args(argv)
    try:
        args.run(args)
    except (DomainError, NotSquareFree) as exc:  # a bound, --workers or d
        PARSER.error(str(exc))
    except Exception as exc:
        if not isinstance(exc, QuadexpError):  # a bug: keep its traceback
            import traceback  # loaded on this path only
            traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
