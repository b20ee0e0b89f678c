"""Self-tests of the benchmark: generators, oracles and the tracer.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

cli = run.load_cli()
SEEDED = ("plane-sing", "lci-chain", "wide-pages")


def _keys(name, seed, passes=2):
    stream = workloads.WORKLOADS[name].passes(seed)
    return [[op.key for op in next(stream)] for _ in range(passes)]


@pytest.mark.parametrize("name", SEEDED)
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    assert _keys(name, 7) == _keys(name, 7)
    assert _keys(name, 7) != _keys(name, 8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_pass_has_the_same_shapes(name):
    workload = workloads.WORKLOADS[name]
    for seed in (1, 2):
        ops = next(workload.passes(seed))
        assert len(ops) == len(workload.variants_per_pass())
        catalogue = {op.key for op in workload.catalogue()}
        assert {op.key for op in ops} <= catalogue


def test_every_catalogue_op_has_a_reference():
    references = json.loads(run.REFERENCES.read_text())
    for workload in workloads.WORKLOADS.values():
        missing = [op.key for op in workload.catalogue() if op.key not in references]
        assert not missing, missing[:5]


def test_milnor_oracles_known_values():
    for n in range(1, 41):
        assert oracles.brieskorn_pham_milnor(2, n + 1) == n  # A_n
    assert oracles.brieskorn_pham_milnor(3, 5) == 8  # E8
    assert oracles.brieskorn_pham_milnor(3, 4) == 6  # E6
    assert oracles.qh_milnor(*oracles.e_type_weights(3)) == 7  # E7
    for n in range(4, 12):
        assert oracles.qh_milnor(*oracles.d_type_weights(n - 1)) == n  # D_n


def test_semigroup_oracle_known_values():
    assert oracles.semigroup_gaps([4, 6, 9]) == 6  # t469: gaps 1, 2, 3, 5, 7, 11
    assert oracles.semigroup_gaps([2, 3]) == 1  # cusp
    assert oracles.semigroup_gaps([3, 5]) == 4  # (3-1)(5-1)/2
    with pytest.raises(ValueError):
        oracles.semigroup_gaps([4, 6])


def test_tail_percentile_keeps_ten_samples_beyond():
    for workload in workloads.WORKLOADS.values():
        n = workload.min_passes * len(workload.variants_per_pass())
        if workload.tail_pct < 100:
            assert n - (n * workload.tail_pct + 99) // 100 >= 10


def _attribute_snapshot():
    snap = {}
    for key, mod in list(sys.modules.items()):
        if key == "curveinv" or key.startswith("curveinv."):
            for attr, value in vars(mod).items():
                snap[(key, attr)] = value
                if isinstance(value, type):
                    for name, member in vars(value).items():
                        snap[(key, attr, name)] = member
    return snap


def _traced(workload, op):
    workdir = Path(tempfile.mkdtemp(dir=HERE))
    try:
        runner = run.Runner(cli, workloads.WORKLOADS[workload], workdir, {})
        argv = runner.argv(op)
        original = cli.main
        with tracing.Tracer() as tracer:
            assert cli.main is not original
            elapsed, code, stdout = runner.call(argv)
        assert code == 0
        return elapsed, tracing.summarize(tracer.take())
    finally:
        shutil.rmtree(workdir)


def test_wrappers_are_removed_after_the_traced_run():
    before = _attribute_snapshot()
    op = next(workloads.WORKLOADS["wide-pages"].passes(3))[0]
    _traced("wide-pages", op)
    after = _attribute_snapshot()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert not changed, changed[:5]


def test_build_roles_and_self_time_accounting():
    op = workloads._plane_op(workloads._bp(3, 4), ("u", "v"), "+")
    elapsed, summary = _traced("plane-sing", op)
    for role in ("milnor", "tjurina", "witness", "recheck"):
        assert summary[f"jets.build.{role}.calls"] == 1
        assert summary[f"jets.build.{role}.rows"] > 0
    assert summary["jets.build.witness.T_max"] > summary["jets.build.milnor.T_max"]
    assert "jets.build.other.calls" not in summary
    self_total = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert 0 < self_total <= elapsed


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
