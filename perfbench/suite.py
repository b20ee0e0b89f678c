"""Run every workload, untraced and traced, and print or save the results.

Usage (from the repository root):

    python3 perfbench/suite.py [--seed N] [--seconds S] [--out FILE]

Each run is its own ``run.py`` process.  The script prints the end-to-end
metrics of every workload with their units, then each workload's largest
per-layer self times as shares of the traced op time.  With ``--out`` it
also writes every run's record and result as JSON (``baseline.json`` is
such a file).  It exits 1 if any op of any run failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run
import workloads

SCRIPT = Path(__file__).resolve().parent / "run.py"


def one_run(name: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"{name} trace={trace} exited {proc.returncode}")
    record = json.loads(lines[-2][len("run: "):])
    return {"run": record, "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    runs = [
        one_run(name, args.seed, args.seconds, trace)
        for name in workloads.WORKLOADS for trace in (0, 1)
    ]
    for entry in runs:
        record, result = entry["run"], entry["result"]
        metrics = result["metrics"]
        status = "ok" if result["correct"] else f"FAILED {result['failed']}/{result['attempted']}"
        if record["trace"] == 0:
            print(f"{record['workload']} ({status}, {record['samples']} ops, "
                  f"tail = p{record['tail_pct']}, failed_ratio {record['failed_ratio']:.4g})")
            for name, m in metrics.items():
                print(f"  {name:<14} {m['value']:>12.4f} {m['unit']}")
        else:
            op_s = metrics["bench.traced_op_s"]["value"]
            shares = sorted(
                ((m["value"] / op_s, name) for name, m in metrics.items()
                 if name.endswith(".self_s")), reverse=True,
            )
            print(f"  traced ({status}): op {1000 * op_s:.1f} ms, overhead "
                  f"x{metrics['trace_overhead_ratio']['value']:.3f}, self times "
                  f"{sum(share for share, _ in shares):.2%} of it")
            for share, name in shares[:6]:
                print(f"    {share:7.2%} {name}")
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    return 0 if all(entry["result"]["correct"] for entry in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
