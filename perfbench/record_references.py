"""Record the byte-identity reference of every op any seed can produce.

Usage (from the repository root):

    python3 perfbench/record_references.py

Runs each op of every workload's catalogue once through the CLI and
writes the sha256 of its stdout to a fresh ``references.json``.  An op
that exits non-zero or disagrees with its oracle is not recorded, and the
script exits 1.  Run it only at a commit whose outputs are the intended reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    cli = run.load_cli()
    refs = {}
    bad = 0
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=run.HERE))
    try:
        for name in sorted(workloads.WORKLOADS):
            workload = workloads.WORKLOADS[name]
            runner = run.Runner(cli, workload, workdir, refs)
            for op in workload.catalogue():
                elapsed, code, stdout = runner.call(runner.argv(op))
                problem = f"exit {code}" if code != 0 else workloads.check_output(workload, op, stdout)
                if problem:
                    print(f"NOT RECORDED {op.key}: {problem}", file=sys.stderr)
                    bad += 1
                    continue
                refs[op.key] = hashlib.sha256(stdout.encode()).hexdigest()
                print(f"{elapsed:8.3f}s {op.key[:100]}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
