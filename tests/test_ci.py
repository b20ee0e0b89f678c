"""The CI workflow's benchmark smoke steps cover every benchmark workload.

Read with a regular expression: CI installs only pytest and Hypothesis, so
no YAML parser is at hand.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_loops_list_every_benchmark_workload():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    loops = re.findall(r"^\s*for w in ([^;\n]*); do\s*$", workflow, re.MULTILINE)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = sorted(workload["name"] for workload in benchmark["workloads"])
    # the untraced and the traced smoke step
    assert len(loops) == 2
    for loop in loops:
        assert sorted(loop.split()) == names
