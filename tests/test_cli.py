"""CLI surface: subcommands, formats, exit codes, determinism."""

import json
import time

import pytest

from curveinv import corpus
from curveinv.cli import main
from curveinv.report import AnalysisOptions, analyze, to_json
from curveinv.schema import build_curve, load_curve, serialize_curve


@pytest.fixture
def nodal_file(tmp_path):
    docs = {doc["label"]: doc for doc in corpus.curve_models()}
    path = tmp_path / "nodal.json"
    path.write_text(json.dumps(docs["nodal-rational"]))
    return str(path)


def test_analyze_text(nodal_file, capsys):
    assert main(["analyze", nodal_file]) == 0
    out = capsys.readouterr().out
    assert "verdict: Degenerates" in out
    assert "milnor-formula" in out


def test_analyze_json_like(nodal_file, capsys):
    assert main(["analyze", nodal_file, "--format", "json-like"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"]["value"] == "Degenerates"
    assert doc["global_invariants"]["tau_total"]["value"] == 1


def test_analyze_options(nodal_file, capsys):
    code = main(
        ["analyze", nodal_file, "--truncation", "12",
         "--hc-window", "0,2", "--tail-window", "2", "--format", "json-like"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(doc["pages"]["hc"]) == ["0", "1", "2"]


def test_sing_quick_mode(capsys):
    assert main(["sing", "u^3+v^5"]) == 0
    out = capsys.readouterr().out
    assert "mu = 8, tau = 8" in out
    assert "(1/3, 1/5)" in out


def test_sing_custom_variables(capsys):
    assert main(["sing", "a*b", "--vars", "a,b"]) == 0
    assert "mu = 1, tau = 1" in capsys.readouterr().out


def test_corpus_runs_clean(capsys):
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out
    assert "FailsViaTau" in out and "Degenerates" in out
    assert "FAIL" not in out


def test_parse_error_exit_2(capsys):
    assert main(["sing", "u^2 +"]) == 2


def test_schema_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"genus": 0, "singularities": [{"kind": "plane", '
                    '"f": "u*v", "variables": ["u", "v", "w"]}]}')
    assert main(["analyze", str(path)]) == 2


def test_missing_file_exit_2(capsys):
    assert main(["analyze", "/no/such/file.json"]) == 2


def test_non_isolated_exit_3(capsys):
    assert main(["sing", "u^2"]) == 3


# -- lci germs: parametrization check and working-order retries -------------

def _lci_file(tmp_path, variables, equations, images):
    doc = {
        "label": "lci-model",
        "genus": 0,
        "singularities": [{
            "kind": "lci", "label": "germ", "variables": variables,
            "equations": equations, "parametrization": images,
        }],
    }
    path = tmp_path / "lci.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_lci_parametrization_off_the_curve_fails(tmp_path, capsys):
    # z^2 - y^3 pulls back to t^110 - t^108, above a fixed order of 64.
    path = _lci_file(tmp_path, ["x", "y", "z"], ["y^2-x^3", "z^2-y^3"],
                     ["t^24", "t^36", "t^55"])
    assert main(["analyze", path]) == 1
    out = capsys.readouterr().out
    assert "[   fail] parametrization-vanishes (germ)" in out


def test_lci_parametrization_off_the_curve_at_high_order_fails(tmp_path, capsys):
    # z^2 - x^5 - x^21 pulls back to -t^42, above the working order 8 * 5.
    path = _lci_file(tmp_path, ["x", "y", "z"], ["y^2-x^3", "z^2-x^5-x^21"],
                     ["t^2", "t^3", "t^5"])
    assert main(["analyze", path]) == 1
    out = capsys.readouterr().out
    assert "[   fail] parametrization-vanishes (germ)" in out


def test_lci_delta_after_one_doubling(tmp_path, capsys):
    # <20, 21, 22> has conductor 200, above the starting order 8 * 22.
    path = _lci_file(tmp_path, ["x", "y", "z"], ["x^11-y^10", "z^2-x*y"],
                     ["t^20", "t^22", "t^21"])
    assert main(["analyze", path, "--format", "json-like"]) == 0
    sing = json.loads(capsys.readouterr().out)["singularities"][0]
    assert sing["delta"]["value"] == 100


def test_lci_without_conductor_stops_at_cap(tmp_path, capsys):
    # Every exponent is even, so the semigroup has no conductor at any order.
    path = _lci_file(tmp_path, ["x", "y", "z"], ["y^2-x^3", "z^2-y^3"],
                     ["t^8", "t^12", "t^18"])
    start = time.perf_counter()
    assert main(["analyze", path]) == 1
    # Only catches a hang: the whole doubling chain takes well under 1 s.
    assert time.perf_counter() - start < 10
    assert "up to 4096" in capsys.readouterr().err


# -- singularities without delta/r data ------------------------------------

MISSING_DELTA = "error: a singularity lacks delta/r data needed for global sums\n"


@pytest.mark.parametrize(
    "sing",
    [
        {"kind": "plane", "f": "u^2-v^3", "variables": ["u", "v"]},
        {"kind": "lci", "variables": ["x", "y", "z"],
         "equations": ["y^2-x^3", "z^2-y^3"]},
    ],
    ids=["plane-without-branches", "lci-without-parametrization"],
)
def test_analyze_without_delta_data_exit_1(sing, tmp_path, capsys):
    path = tmp_path / "nodelta.json"
    path.write_text(json.dumps({"genus": 0, "singularities": [sing]}))
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == MISSING_DELTA


# -- round trips and determinism -------------------------------------------

def test_schema_round_trip(tmp_path):
    for doc in corpus.curve_models():
        first = build_curve(doc)
        path = tmp_path / "roundtrip.json"
        path.write_text(serialize_curve(first))
        second = load_curve(str(path))
        assert first == second


def test_reports_byte_identical():
    for doc in corpus.curve_models():
        a = to_json(analyze(build_curve(doc), AnalysisOptions()))
        b = to_json(analyze(build_curve(doc), AnalysisOptions()))
        assert a == b
