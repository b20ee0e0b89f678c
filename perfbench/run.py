"""Benchmark of the curveinv command line, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload plane-sing --seed 1 --seconds 20 --trace 0

Load model: a closed loop with one client and one op at a time, in this
fresh process.  An op is one in-process ``curveinv.cli.main(argv)`` call
with stdout captured; it passes when it exits 0, its stdout has the sha256
recorded in ``references.json`` and the workload's oracle agrees with it.

``--trace 0`` prints the end-to-end metrics.  Their times are scaled to a
fixed machine speed (see ``reference_work``): on a shared host a core's
speed can swing by 2x over seconds to minutes with other tenants' load
(seen on a 2-vCPU KVM guest), and unscaled medians of two runs of the
same code differ by as much.  The unscaled values are printed beside them.  ``--trace 1`` runs every op
twice, untraced and with wrappers on each layer (see ``tracing.py``), and
prints the per-layer metrics: counts and self times per op, with the
traced op time beside them.  ``cli.main`` is the root span, so time spent
in engine code that no wrapper covers shows in ``cli.main.self_s`` (or in
the self time of the nearest wrapped caller).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it, starting
with ``run:``, records the workload, seed, interpreter, machine and
commit.  The exit code is 0 only when every op passed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
SETUP_REPEATS = 25
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import curveinv"

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _layer(prefix: str, quantities: str):
    units = {"calls": "count", "self_s": "s", "rows": "count", "cells": "count",
             "T_max": "order", "working_order_max": "order", "certified_ratio": "ratio"}
    return [(f"{prefix}.{q}", units[q]) for q in quantities.split()]


# Per traced op means, except maxima over the run (_max) and ratios (_ratio).
PER_LAYER = (
    [m for role in ("milnor", "tjurina", "witness", "recheck")
     for m in _layer(f"jets.build.{role}", "calls self_s rows T_max")]
    + [("jets.build.attempts", "count"), ("jets.build.certified_ratio", "ratio")]
    + _layer("jets.normal_form", "calls self_s")
    + _layer("jets.membership_with_witness", "calls self_s")
    + _layer("plane.PlaneAnalysis_init", "self_s")
    + _layer("plane.mult_by_f", "self_s")
    + _layer("plane.tail_map_general", "calls self_s")
    + _layer("plane.tail_map_wh_scalar", "self_s")
    + _layer("linalg.rref", "calls self_s cells")
    + _layer("branches.delta_one_branch", "calls self_s working_order_max certified_ratio")
    + _layer("branches.delta_report", "self_s")
    + _layer("branches.intersection_multiplicity", "self_s")
    + _layer("poly.pow", "calls self_s")
    + _layer("lci.verify_parametrization", "self_s")
    + _layer("lci.obstruction", "self_s")
    + _layer("spectral.degeneration_verdict", "calls self_s")
    + _layer("spectral.global_invariants", "calls self_s")
    + _layer("spectral.e1_page", "calls self_s")
    + _layer("spectral.e2_page", "self_s")
    + _layer("spectral.hc_pages", "self_s")
    + _layer("spectral.render_page", "self_s")
    + _layer("report.analyze", "self_s")
    + _layer("report.run_corpus", "self_s")
    + _layer("report.to_json", "self_s")
    + _layer("report.to_text", "self_s")
    + [("report.output_bytes", "B")]
    + _layer("poly.parse_poly", "calls self_s")
    + _layer("poly.substitute", "calls self_s")
    + _layer("poly.weight_feasibility", "self_s")
    + _layer("schema.build_curve", "self_s")
    + _layer("cli.main", "self_s")
    + [("bench.traced_op_s", "s"), ("trace_overhead_ratio", "ratio")]
)


class BenchError(Exception):
    """The benchmark cannot run here (no engine sources, broken set-up)."""


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

# Reported times are scaled to a machine on which reference_work takes this
# long; the constant only fixes the unit, parent and change share it.
REFERENCE_S = 0.012

_RNG = random.Random(0)
_REF_MATRIX = [[Fraction(_RNG.randint(-9, 9), _RNG.randint(1, 5)) for _ in range(15)]
               for _ in range(14)]
_REF_POLY = {(i, j): (7 * i + 3 * j) % 11 - 5 for i in range(12) for j in range(12) if (i + j) % 3}


def reference_work() -> None:
    """Fixed work shaped like the engine's inner loops, timed around each op.

    Fraction row reduction and a dict-of-monomials product, as in
    ``linalg.rref`` and ``Poly.__mul__``, but frozen here, so an engine
    change cannot move it.  Contention from other tenants slows this and
    the engine alike (an integer loop tracks it less well), so an op's time
    divided by the reference time around it is steady where either alone
    is not.
    """
    rows = [row[:] for row in _REF_MATRIX]
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inverse = 1 / rows[col][col]
        rows[col] = [x * inverse for x in rows[col]]
        for r in range(len(rows)):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    product: dict = {}
    for (i, j), x in _REF_POLY.items():
        for (k, l), y in _REF_POLY.items():
            product[i + k, j + l] = product.get((i + k, j + l), 0) + x * y


def reference_s() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def pin_to_one_cpu() -> int:
    """Keep this process, and the imports it times, on one CPU.

    On a shared host contention differs from core to core, so an op that
    migrates away from the core its reference time was taken on is scaled
    by the wrong speed.  On a 2-vCPU KVM guest (Xeon, Python 3.11) pinning
    cut the within-run spread of scaled corpus op times from 0.19 to 0.08.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def load_cli():
    """Import curveinv.cli from this checkout's src/, and nowhere else."""
    if not (SRC / "curveinv" / "__init__.py").is_file():
        raise BenchError(f"no curveinv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import curveinv.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "curveinv":
        raise BenchError(f"curveinv imported from {cli.__file__}, not {SRC}")
    return cli


def measure_setup_s() -> tuple:
    """Median wall time of a fresh interpreter importing curveinv: scaled, raw."""
    raw, scaled = [], []
    before = reference_s()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        raw.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"import curveinv failed: {proc.stderr.strip()}")
        after = reference_s()
        scaled.append(raw[-1] * 2 * REFERENCE_S / (before + after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def commit_id() -> str:
    """HEAD of the checkout's git repository; 'unknown' outside one.

    The ceiling keeps git from looking for a repository above the checkout.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_record(args, nproc: int, cpu: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu": cpu,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "commit": commit_id(),
    }


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


class Runner:
    """Runs ops through the CLI and checks each output."""

    def __init__(self, cli, workload: workloads.Workload, workdir: Path, references: dict):
        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.references = references
        self.failures: list = []

    def argv(self, op: workloads.Op) -> list:
        if op.doc is None:
            return list(op.argv)
        path = self.workdir / f"{op.doc['label']}.json"
        if not path.exists():
            path.write_text(json.dumps(op.doc))
        return [str(path) if a == workloads.DOC else a for a in op.argv]

    def call(self, argv: list):
        """(seconds, exit code or error text, stdout) of one CLI call."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a crash
            code = f"raised {exc!r}"
        return time.perf_counter() - start, code, out.getvalue()

    def verify(self, op: workloads.Op, code, stdout: str) -> bool:
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if code != 0:
            problem = f"exit {code}"
        elif digest != self.references.get(op.key):
            problem = f"stdout sha256 {digest[:12]} differs from the reference"
        else:
            problem = workloads.check_output(self.workload, op, stdout)
        if problem is not None:
            self.failures.append(f"{op.key[:120]}: {problem}")
        return problem is None


def _tail(latencies: list, pct: int) -> float:
    ordered = sorted(latencies)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def _timings(latencies: list, ok: int, tail_pct: int) -> dict:
    return {
        "ops_per_s": ok / sum(latencies),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * _tail(latencies, tail_pct),
    }


def run_untraced(runner: Runner, seed: int, seconds: float) -> tuple:
    """Whole passes until ``seconds`` have gone and ``min_passes`` are done.

    Each op's time is scaled by REFERENCE_S over the mean of the reference
    times just before and just after it.
    """
    workload = runner.workload
    raw, scaled, ok = [], [], 0
    start = time.perf_counter()
    before = reference_s()
    for number, ops in enumerate(workload.passes(seed)):
        if number >= workload.min_passes and time.perf_counter() - start >= seconds:
            break
        for op in ops:
            elapsed, code, stdout = runner.call(runner.argv(op))
            after = reference_s()
            raw.append(elapsed)
            scaled.append(elapsed * 2 * REFERENCE_S / (before + after))
            before = after
            ok += runner.verify(op, code, stdout)
    metrics = dict(_timings(scaled, ok, workload.tail_pct), ok_ratio=ok / len(raw))
    detail = {"samples": len(raw), "passes": number, "tail_pct": workload.tail_pct,
              "failed_ratio": 1 - ok / len(raw),
              "unscaled": _timings(raw, ok, workload.tail_pct)}
    return len(raw), len(raw) - ok, metrics, detail


def run_traced(runner: Runner, seed: int, seconds: float) -> tuple:
    """Each op once untraced and once traced, in alternating order.

    Per-layer numbers come from the traced calls; the ratio of the two sums
    of op times is the tracing overhead.  Ratios are 1 when nothing was
    attempted.
    """
    totals: dict = {}
    untraced_s = traced_s = 0.0
    out_bytes = attempted = failed = 0
    start = time.perf_counter()
    for number, ops in enumerate(runner.workload.passes(seed)):
        if number >= 1 and time.perf_counter() - start >= seconds:
            break
        for op in ops:
            argv = runner.argv(op)
            tracer = tracing.Tracer()
            # Alternate which call goes first, so neither gains from the other.
            for traced in ((False, True) if attempted % 4 == 0 else (True, False)):
                if traced:
                    with tracer:
                        elapsed, code, stdout = runner.call(argv)
                    traced_s += elapsed
                else:
                    elapsed, code, stdout = runner.call(argv)
                    untraced_s += elapsed
                failed += not runner.verify(op, code, stdout)
                attempted += 1
            out_bytes += len(stdout.encode())
            for key, value in tracing.summarize(tracer.take()).items():
                if key.endswith("_max"):
                    totals[key] = max(totals.get(key, 0), value)
                    continue
                totals[key] = totals.get(key, 0) + value
    n = attempted // 2
    metrics = {}
    for name, _ in PER_LAYER:
        if name.endswith("_max"):
            metrics[name] = totals.get(name, 0)
        elif name == "jets.build.certified_ratio":
            attempts = totals.get("jets.build.attempts", 0)
            metrics[name] = totals.get("jets.build.certified", 0) / attempts if attempts else 1.0
        elif name == "branches.delta_one_branch.certified_ratio":
            calls = totals.get("branches.delta_one_branch.calls", 0)
            metrics[name] = (
                totals.get("branches.delta_one_branch.certified", 0) / calls if calls else 1.0
            )
        else:
            metrics[name] = totals.get(name, 0) / n
    metrics["report.output_bytes"] = out_bytes / n
    metrics["bench.traced_op_s"] = traced_s / n
    metrics["trace_overhead_ratio"] = traced_s / untraced_s
    return attempted, failed, metrics, {"samples": n, "passes": number}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    try:
        cli = load_cli()
        cpu = pin_to_one_cpu()
        setup_s, setup_raw_s = measure_setup_s() if args.trace == 0 else (None, None)
        workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
        try:
            references = json.loads(REFERENCES.read_text())
            runner = Runner(cli, workloads.WORKLOADS[args.workload], workdir, references)
            measure = run_traced if args.trace else run_untraced
            attempted, failed, metrics, detail = measure(runner, args.seed, args.seconds)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    if args.trace == 0:
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = dict(END_TO_END)
    else:
        units = dict(PER_LAYER)
    for failure in runner.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:<48} {metrics[name]:>14.6g} {unit}")
    if args.trace == 0:
        print(f"{'failed_ratio':<48} {detail['failed_ratio']:>14.6g} ratio")
        detail["unscaled"]["setup_s"] = setup_raw_s
        for name, value in detail["unscaled"].items():
            print(f"{name + ' (unscaled)':<48} {value:>14.6g} {units[name]}")
    print("run: " + json.dumps(dict(run_record(args, nproc, cpu), **detail), sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
