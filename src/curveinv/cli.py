"""Command-line interface.

Subcommands:
  analyze <file>   full pipeline on a curve document
  sing <expr>      quick local analysis of one plane equation
  corpus           run the builtin corpus and print the summary table

No option sets a jet truncation order: the engine picks it (see
``jets``), and no reported number depends on it.

Exit codes: 0 success, 1 invariant-check failure, 2 input error,
3 truncation cap exceeded (see ``errors``).  A reader that closes stdout
early changes no exit code.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from typing import List, Optional

from .errors import CurveInvError, ParseError, SchemaError, TruncationCapExceeded
from .plane import PlaneAnalysis, PlaneSingularity
from .poly import parse_poly
from .report import AnalysisOptions, analyze, run_corpus, to_json, to_text
from .schema import INPUT_BOUND, MAX_INPUT_DIGITS, load_curve
from .spectral import dump_json

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_TRUNCATION_CAP = 3

# Report windows: at most this many tail indices p and cyclic pages m.
# A run at both caps takes seconds; the report grows with their product.
MAX_WINDOW = 128


_DECIMAL = re.compile(r"\s*([+-]?)[0-9]+\s*")


def _window_bound(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        # int() refuses a decimal string of more than 4300 digits; such a
        # bound stands in as +-INPUT_BOUND, which _cmd_analyze reports
        match = _DECIMAL.fullmatch(text)
        if match is None:
            raise argparse.ArgumentTypeError("window bounds must be integers")
        return -INPUT_BOUND if match[1] == "-" else INPUT_BOUND


def _parse_window(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("window must be 'a,b'")
    lo, hi = map(_window_bound, parts)
    if lo > hi:
        raise argparse.ArgumentTypeError("window must satisfy a <= b")
    return (lo, hi)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call only: parsing leaves no state
    in it."""
    parser = argparse.ArgumentParser(
        prog="curveinv",
        description=(
            "exact local invariants of curve singularities and "
            "second-page degeneration verdicts for curve models"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = AnalysisOptions()

    def report_format(p):
        p.add_argument(
            "--format", choices=("text", "json-like"), default="text",
            help="report format",
        )

    p_analyze = sub.add_parser("analyze", help="analyze a curve document")
    p_analyze.set_defaults(handler=_cmd_analyze)
    p_analyze.add_argument("file", help="path to a curve JSON document")
    report_format(p_analyze)
    p_analyze.add_argument(
        "--hc-window", type=_parse_window, default=defaults.hc_window,
        metavar="a,b",
        help="range of the cyclic splitting integer m (default %d,%d)"
        % defaults.hc_window,
    )
    p_analyze.add_argument(
        "--tail-window", type=int, default=defaults.tail_window, metavar="p",
        help="largest tail index p rendered (default %(default)s)",
    )

    p_sing = sub.add_parser("sing", help="quick analysis of one plane equation")
    p_sing.set_defaults(handler=_cmd_sing)
    p_sing.add_argument("expr", help="defining equation, e.g. 'u^2+v^3'")
    p_sing.add_argument(
        "--vars", default="u,v", metavar="u,v",
        help="comma-separated variable names (default u,v)",
    )
    report_format(p_sing)

    sub.add_parser("corpus", help="run the builtin corpus").set_defaults(
        handler=_cmd_corpus
    )
    return parser


def _emit(text: str) -> None:
    """Print one report.  If the reader has closed stdout, drop the rest:
    stdout is pointed at the null device, so the flush at exit cannot fail
    again, and the subcommand still returns its own exit code."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _cmd_analyze(args) -> int:
    doc = load_curve(args.file)
    if args.tail_window < 1:
        raise SchemaError("tail window must be at least 1", "--tail-window")
    if args.tail_window > MAX_WINDOW:
        raise SchemaError(f"tail window must be at most {MAX_WINDOW}", "--tail-window")
    lo, hi = args.hc_window
    if max(-lo, hi) >= INPUT_BOUND:
        raise SchemaError(
            f"hc window bounds must have at most {MAX_INPUT_DIGITS} digits",
            "--hc-window",
        )
    if hi - lo + 1 > MAX_WINDOW:
        raise SchemaError(
            f"hc window must span at most {MAX_WINDOW} values", "--hc-window"
        )
    options = AnalysisOptions(tail_window=args.tail_window, hc_window=(lo, hi))
    report = analyze(doc, options)
    _emit(to_json(report) if args.format == "json-like" else to_text(report))
    return EXIT_OK if report.ok() else EXIT_CHECK_FAILURE


def _cmd_sing(args) -> int:
    variables = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    if len(variables) != 2:
        raise SchemaError("exactly two variables required", "--vars")
    if variables[0] == variables[1]:
        raise SchemaError(f"repeated variable name {variables[0]!r}", "--vars")
    f = parse_poly(args.expr, variables)
    try:
        sing = PlaneSingularity(f, label=args.expr)
    except ValueError as exc:
        raise SchemaError(str(exc), "expr")
    analysis = PlaneAnalysis(sing)
    inv = analysis.invariants
    tail = analysis.tail_map_general()
    weights = analysis.effective_weights
    if args.format == "json-like":
        # str(Fraction(0)) is "0": absent entries need no Fraction
        grid = [["0"] * len(tail.columns) for _ in analysis.tjurina.basis]
        for j, column in enumerate(tail.columns):
            for i, c in column.items():
                grid[i][j] = str(c)
        _emit(
            dump_json(
                {
                    "equation": str(f),
                    "mu": inv.mu,
                    "tau": inv.tau,
                    "qh_by_saito": inv.qh_by_saito,
                    "wh_in_coords": inv.wh_in_coords,
                    "weights": None if weights is None else [str(w) for w in weights],
                    "tail_rank": tail.rank,
                    "tail_matrix": grid,
                }
            )
        )
    else:
        _emit(
            "\n".join(
                [
                    f"equation: {f}",
                    f"mu = {inv.mu}, tau = {inv.tau}",
                    f"quasihomogeneous (tau = mu): {inv.qh_by_saito}",
                    f"weights in these coordinates: ({weights[0]}, {weights[1]})"
                    if weights is not None
                    else "no weight system in these coordinates",
                    f"tail map rank: {tail.rank}",
                ]
            )
        )
    return EXIT_OK


def _cmd_corpus(args) -> int:
    text, ok = run_corpus()
    _emit(text)
    return EXIT_OK if ok else EXIT_CHECK_FAILURE


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CurveInvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, TruncationCapExceeded):
            return EXIT_TRUNCATION_CAP
        if isinstance(exc, (ParseError, SchemaError)):
            return EXIT_INPUT_ERROR
        return EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
