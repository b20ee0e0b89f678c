"""The benchmark's catalogues, replayed in process.

Every op any seed of the ``wide-pages``, ``lci-chain``, ``plane-sing`` and
``corpus`` workloads can produce (text and json-like, every name scheme,
sign and genus) runs through ``curveinv.cli.main`` as ``perfbench/run.py``
runs it; its stdout must have the sha256 recorded in
``perfbench/references.json`` and agree with the workload's oracle.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "name,ops",
    [("wide-pages", 216), ("lci-chain", 78), ("plane-sing", 144), ("corpus", 1)],
)
def test_catalogue_ops_match_the_references(name, ops, tmp_path):
    workload = workloads.WORKLOADS[name]
    references = json.loads(run.REFERENCES.read_text())
    runner = run.Runner(run.load_cli(), workload, tmp_path, references)
    catalogue = workload.catalogue()
    for op in catalogue:
        _, code, stdout = runner.call(runner.argv(op))
        runner.verify(op, code, stdout)
    assert len(catalogue) == ops
    assert not runner.failures, runner.failures[:5]
