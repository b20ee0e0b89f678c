"""CLI surface: subcommands, formats, exit codes, determinism."""

import json
import time

import pytest

from curveinv import cli, corpus, jets, plane
from curveinv.cli import main
from curveinv.errors import NotMPrimary
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
        ["analyze", nodal_file,
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
    # The doubling chain gives up at max(64, 4 + 2 * max degree); the
    # Jacobian of u^2*v^40 has degree 41.
    for expr, order in (("u^2", 64), ("u^2*v^40", 86)):
        assert main(["sing", expr]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: no m-primality certificate up to truncation order {order}\n"
        )


@pytest.mark.parametrize(
    "expr,start",
    [("u^2+v^80", 1), ("u^2+v^80", 70), ("(u+v)^2+v^9", 1)],
)
@pytest.mark.parametrize("fmt", ["text", "json-like"])
def test_truncation_only_starts_the_doubling_chain(
    expr, start, fmt, monkeypatch, capsys
):
    # Where the chain starts changes which orders it tries, never a report.
    # u^2+v^80 certifies only above order 78.
    assert main(["sing", expr, "--format", fmt]) == 0
    default = capsys.readouterr().out
    monkeypatch.setattr(jets, "default_truncation", lambda generators: start)
    assert main(["sing", expr, "--format", fmt]) == 0
    assert capsys.readouterr().out == default


@pytest.mark.parametrize("expr", ["1", "0"])
def test_constant_sing_equation_exit_2(expr, capsys):
    assert main(["sing", expr]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: expr: ")


def test_value_error_in_a_handler_is_not_an_input_error(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal invariant broken")

    monkeypatch.setattr(cli, "PlaneAnalysis", broken)
    with pytest.raises(ValueError, match="internal invariant broken"):
        main(["sing", "u^2+v^3"])


def test_repeated_sing_variable_exit_2(capsys):
    # u,u used to read 'u' as u*u' and exit 3 with a cap message.
    assert main(["sing", "u", "--vars", "u,u"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --vars: repeated variable name 'u'\n"


@pytest.mark.parametrize(
    "sing",
    [
        {"kind": "plane", "f": "u^2-v^3", "variables": ["u", "u"],
         "asserted": {"delta": 1, "r": 1}},
        # used to print a full report with e=3
        {"kind": "lci", "variables": ["x", "y", "y"],
         "equations": ["y^2-x^3", "y^2-x^5"], "asserted": {"delta": 3, "r": 1}},
    ],
    ids=["plane", "lci"],
)
def test_repeated_document_variable_exit_2(sing, tmp_path, capsys):
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps({"genus": 0, "singularities": [sing]}))
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: $.singularities[0].variables: repeated variable name\n"
    )


# Python's recursion limit is 1000 frames; the parser takes four per level.
DEEP_EXPR = "(" * 3000 + "u" + ")" * 3000 + "^2+v^3"


@pytest.mark.parametrize(
    "command,content,message",
    [
        ("analyze", b"\xff\xfe{}", "error: $: cannot read file: "),
        ("analyze", b'{"genus": ' + b"1" * 5000 + b"}", "error: $: not valid JSON: "),
        ("sing", "u^2+v^3+" + "1" * 5000 + "*u^5",
         "error: integer literal too long (at position 8)"),
        ("analyze", b"[" * 100000, "error: $: not valid JSON: "),
        ("sing", DEEP_EXPR, "error: parentheses nested deeper than 100 (at position 100)"),
        ("analyze", json.dumps({"genus": 0, "singularities": [
            {"kind": "plane", "f": DEEP_EXPR, "variables": ["u", "v"]}]}).encode(),
         "error: $.singularities[0].f: bad expression "),
    ],
    ids=["not-utf8", "json-integer-too-long", "literal-too-long", "json-too-deep",
         "parentheses-too-deep", "document-parentheses-too-deep"],
)
def test_input_that_python_rejects_exit_2(
    command, content, message, tmp_path, capsys
):
    if command == "analyze":
        path = tmp_path / "input.json"
        path.write_bytes(content)
        argv = ["analyze", str(path)]
    else:
        argv = ["sing", content]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)


def test_not_m_primary_is_an_internal_failure(monkeypatch, capsys):
    # Every algebra built past the Milnor one is at a certified order, so
    # NotMPrimary there breaks an invariant: exit 1, not the cap's exit 3.
    def uncertified(generators, truncation_order, **kwargs):
        raise NotMPrimary(truncation_order)

    monkeypatch.setattr(plane, "JetAlgebra", uncertified)
    assert main(["sing", "u^2+v^3"]) == 1
    assert "not certified m-primary" in capsys.readouterr().err


# -- option validation -------------------------------------------------------

def test_tail_window_below_one_exit_2(nodal_file, capsys):
    assert main(["analyze", nodal_file, "--tail-window", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --tail-window: tail window must be at least 1\n"


@pytest.mark.parametrize(
    "argv",
    [["sing", "u^2+v^3", "--tail-window", "2"],
     ["sing", "u^2+v^3", "--hc-window=0,2"],
     ["corpus", "--format", "json-like"],
     ["corpus", "--tail-window", "1"],
     ["analyze", "curve.json", "--truncation", "5"],
     ["sing", "u^2+v^3", "--truncation", "5"],
     ["corpus", "--truncation", "5"]],
    ids=["sing-tail-window", "sing-hc-window", "corpus-format", "corpus-tail-window",
         "analyze-truncation", "sing-truncation", "corpus-truncation"],
)
def test_option_a_subcommand_does_not_read_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


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


def test_lci_parametrization_through_t_power_exit_2(tmp_path, capsys):
    # Every exponent is even, so the semigroup has no conductor at any order.
    path = _lci_file(tmp_path, ["x", "y", "z"], ["y^2-x^3", "z^2-y^3"],
                     ["t^8", "t^12", "t^18"])
    assert main(["analyze", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: parametrization: parametrization factors through t^2\n"
    )


# -- plane branch data -------------------------------------------------------

def test_off_curve_branch_exit_2(tmp_path, capsys):
    # u*v + v^20 pulls back to t^20 along (0, t), above eight times its degree.
    sing = {"kind": "plane", "f": "u*v+v^20", "variables": ["u", "v"],
            "branches": [{"images": ["t", "0"], "equation": "v"},
                         {"images": ["0", "t"], "equation": "u"}]}
    path = tmp_path / "offcurve.json"
    path.write_text(json.dumps({"genus": 0, "singularities": [sing]}))
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "branches[1]" in captured.err


@pytest.mark.parametrize(
    "sing, path, message",
    [
        ({"kind": "plane", "f": "u*v", "variables": ["u", "v"],
          "branches": [{"images": ["t", "0"], "equation": "v"},
                       {"images": ["t", "0"], "equation": "v"}]},
         "branches[1]", "repeats branches[0]"),
        ({"kind": "plane", "f": "u^2-v^3", "variables": ["u", "v"],
          "branches": [{"images": ["t^6", "t^4"]}]},
         "branches[0]", "factors through t^2"),
    ],
    ids=["repeated", "non-primitive"],
)
def test_repeated_or_non_primitive_branch_exit_2(sing, path, message, tmp_path, capsys):
    doc = tmp_path / "badbranch.json"
    doc.write_text(json.dumps({"genus": 0, "singularities": [sing]}))
    start = time.perf_counter()
    assert main(["analyze", str(doc)]) == 2
    # The non-primitive branch used to double its working order to 4096.
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert path in captured.err and message in captured.err


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


@pytest.mark.parametrize(
    "sing,message",
    [
        # u*v has two branches; one branch alone gives 2*delta - r + 1 = 0.
        ({"kind": "plane", "f": "u*v", "variables": ["u", "v"],
          "branches": [{"images": ["t", "0"], "equation": "v"}]},
         "mu=1 but 2*delta - r + 1 = 0"),
        # The cusp has mu = 2, delta = 1, r = 1.
        ({"kind": "plane", "f": "u^2-v^3", "variables": ["u", "v"],
          "asserted": {"delta": 2, "r": 1}},
         "mu=2 but 2*delta - r + 1 = 4 (delta=2, r=1)"),
        ({"kind": "plane", "f": "u^2-v^3", "variables": ["u", "v"],
          "asserted": {"delta": 0, "r": 1}},
         "mu=2 but 2*delta - r + 1 = 0 (delta=0, r=1)"),
    ],
    ids=["branches", "asserted-too-large", "asserted-too-small"],
)
def test_milnor_mismatch_reaches_the_cli(sing, message, tmp_path, capsys):
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps({"genus": 0, "singularities": [sing]}))
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


# -- asserted delta/r --------------------------------------------------------

def _write_doc(tmp_path, sing):
    path = tmp_path / "asserted.json"
    path.write_text(json.dumps({"genus": 1, "singularities": [sing]}))
    return str(path)


def test_lci_asserted_delta_r_is_tagged(tmp_path, capsys):
    sing = {"kind": "lci", "variables": ["x", "y", "z"],
            "equations": ["y^2-x^3", "z^2-y^3"],
            "asserted": {"delta": 7, "r": 1, "note": "from t^4, t^6, t^9"}}
    assert main(["analyze", _write_doc(tmp_path, sing), "--format", "json-like"]) == 0
    doc = json.loads(capsys.readouterr().out)
    summary = doc["singularities"][0]
    assert summary["delta"] == {"value": 7, "provenance": "asserted-input"}
    assert summary["r"] == {"value": 1, "provenance": "asserted-input"}
    assert doc["global_invariants"]["delta_total"]["value"] == 7
    assert doc["global_invariants"]["p_a"]["value"] == 8


def test_asserted_note_must_be_a_string(tmp_path, capsys):
    sing = {"kind": "plane", "f": "u^2-v^3", "variables": ["u", "v"],
            "asserted": {"delta": 1, "r": 1, "note": 3}}
    assert main(["analyze", _write_doc(tmp_path, sing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "$.singularities[0].asserted.note" in captured.err


CUSP_WITH_BRANCH = {"kind": "plane", "f": "u^2-v^3", "variables": ["u", "v"],
                    "branches": [{"images": ["t^3", "t^2"]}]}
LCI_WITH_PARAMETRIZATION = {"kind": "lci", "variables": ["x", "y", "z"],
                            "equations": ["y^2-x^3", "z^2-y^3"],
                            "parametrization": ["t^4", "t^6", "t^9"]}


@pytest.mark.parametrize(
    "sing,asserted,status,code",
    [
        (CUSP_WITH_BRANCH, (1, 1), "pass", 0),
        (CUSP_WITH_BRANCH, (5, 1), "fail", 1),
        (LCI_WITH_PARAMETRIZATION, (6, 1), "pass", 0),
        (LCI_WITH_PARAMETRIZATION, (7, 1), "fail", 1),
    ],
    ids=["plane-agree", "plane-disagree", "lci-agree", "lci-disagree"],
)
def test_asserted_delta_r_checked_against_computed(
    sing, asserted, status, code, tmp_path, capsys
):
    delta, r = asserted
    sing = dict(sing, asserted={"delta": delta, "r": r})
    assert main(["analyze", _write_doc(tmp_path, sing)]) == code
    computed = "delta=1, r=1" if sing["kind"] == "plane" else "delta=6, r=1"
    line = next(
        line for line in capsys.readouterr().out.splitlines()
        if "asserted-delta-r" in line
    )
    assert line.startswith(f"  [{status:>7}] asserted-delta-r")
    assert line.endswith(f"asserted delta={delta}, r={r}; computed {computed}")


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
