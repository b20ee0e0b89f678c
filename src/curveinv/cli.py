"""Command-line interface.

Subcommands:
  analyze <file>   full pipeline on a curve document
  sing <expr>      quick local analysis of one plane equation
  corpus           run the builtin corpus and print the summary table

No option sets a jet truncation order: the engine picks it (see
``jets``), and no reported number depends on it.

Exit codes: 0 success, 1 invariant-check failure, 2 input error,
3 truncation cap exceeded (see ``errors``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .errors import CurveInvError, ParseError, SchemaError, TruncationCapExceeded
from .plane import PlaneAnalysis, PlaneSingularity
from .poly import parse_poly
from .report import AnalysisOptions, analyze, run_corpus, to_json, to_text
from .schema import load_curve

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_TRUNCATION_CAP = 3


def _parse_window(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("window must be 'a,b'")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError("window bounds must be integers")
    if lo > hi:
        raise argparse.ArgumentTypeError("window must satisfy a <= b")
    return (lo, hi)


def _build_parser() -> argparse.ArgumentParser:
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
    p_sing.add_argument("expr", help="defining equation, e.g. 'u^2+v^3'")
    p_sing.add_argument(
        "--vars", default="u,v", metavar="u,v",
        help="comma-separated variable names (default u,v)",
    )
    report_format(p_sing)

    sub.add_parser("corpus", help="run the builtin corpus")
    return parser


def _cmd_analyze(args) -> int:
    doc = load_curve(args.file)
    if args.tail_window < 1:
        raise SchemaError("tail window must be at least 1", "--tail-window")
    options = AnalysisOptions(
        tail_window=args.tail_window,
        hc_window=tuple(args.hc_window),
    )
    report = analyze(doc, options)
    if args.format == "json-like":
        print(to_json(report))
    else:
        print(to_text(report))
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
    mu, tau = analysis.milnor_tjurina()
    tail = analysis.tail_map_general()
    weights = analysis.effective_weights
    if args.format == "json-like":
        print(
            json.dumps(
                {
                    "equation": str(f),
                    "mu": mu,
                    "tau": tau,
                    "qh_by_saito": analysis.saito_test(),
                    "wh_in_coords": weights is not None,
                    "weights": None if weights is None else [str(w) for w in weights],
                    "tail_rank": tail.rank,
                    "tail_matrix": [[str(x) for x in row] for row in tail.matrix],
                },
                sort_keys=True,
                indent=2,
            )
        )
    else:
        print(f"equation: {f}")
        print(f"mu = {mu}, tau = {tau}")
        print(f"quasihomogeneous (tau = mu): {analysis.saito_test()}")
        if weights is not None:
            print(f"weights in these coordinates: ({weights[0]}, {weights[1]})")
        else:
            print("no weight system in these coordinates")
        print(f"tail map rank: {tail.rank}")
    return EXIT_OK


def _cmd_corpus(args) -> int:
    text, ok = run_corpus()
    print(text)
    return EXIT_OK if ok else EXIT_CHECK_FAILURE


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "sing": _cmd_sing,
        "corpus": _cmd_corpus,
    }
    try:
        return handlers[args.command](args)
    except CurveInvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, TruncationCapExceeded):
            return EXIT_TRUNCATION_CAP
        if isinstance(exc, (ParseError, SchemaError)):
            return EXIT_INPUT_ERROR
        return EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
