"""The CI workflow covers every benchmark workload and installs the test
tools at the versions ``pyproject.toml`` pins.

Read with regular expressions: CI installs only pytest and Hypothesis, so
no YAML parser is at hand, and Python 3.10 has no ``tomllib``.
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


def test_workflow_installs_the_pinned_test_extra():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    pyproject = (ROOT / "pyproject.toml").read_text()
    installed = re.findall(r"^\s*run: python -m pip install (.*)$", workflow, re.MULTILINE)
    extra = re.search(r"^test = \[(.*)\]$", pyproject, re.MULTILINE)
    assert len(installed) == 1 and extra is not None
    pins = sorted(installed[0].split())
    assert pins == sorted(re.findall(r'"([^"]+)"', extra[1]))
    assert all(re.fullmatch(r"[a-z]+==[0-9.]+", pin) for pin in pins)


def test_lowest_workflow_python_is_the_requires_python_floor():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    pyproject = (ROOT / "pyproject.toml").read_text()
    matrix = re.findall(r"^\s*python-version: \[(.*)\]$", workflow, re.MULTILINE)
    floor = re.findall(r'^requires-python = ">=([0-9.]+)"$', pyproject, re.MULTILINE)
    assert len(matrix) == 1 and len(floor) == 1
    versions = re.findall(r'"([0-9.]+)"', matrix[0])
    lowest = min(versions, key=lambda v: tuple(map(int, v.split("."))))
    assert lowest == floor[0]
