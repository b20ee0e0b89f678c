"""CLI surface: subcommands, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from curveinv import cli, corpus, jets, plane, poly, schema
from curveinv.cli import main
from curveinv.errors import NotMPrimary
from curveinv.report import (
    AnalysisOptions, analyze, to_json, to_text,
)
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


def test_options_of_one_call_do_not_reach_the_next(nodal_file, capsys):
    # the parser is built once per process
    argv = ["analyze", nodal_file, "--hc-window", "0,2", "--tail-window", "2"]
    assert main(argv) == 0
    narrow = capsys.readouterr().out
    assert main(["analyze", nodal_file]) == 0
    out = capsys.readouterr().out
    assert out == to_text(analyze(load_curve(nodal_file), AnalysisOptions())) + "\n"
    assert out != narrow


def test_analyze_json_like_escapes_a_non_ascii_label(tmp_path, capsys):
    docs = {doc["label"]: doc for doc in corpus.curve_models()}
    doc = dict(docs["nodal-rational"], label="nœud \"α\" \U0001f600")
    path = tmp_path / "label.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    assert main(["analyze", str(path), "--format", "json-like"]) == 0
    out = capsys.readouterr().out
    report = analyze(build_curve(doc), AnalysisOptions())
    assert out == json.dumps(json.loads(to_json(report)), sort_keys=True, indent=2) + "\n"
    assert out.isascii()
    assert '"label": "n\\u0153ud \\"\\u03b1\\" \\ud83d\\ude00"' in out
    assert json.loads(out)["label"] == doc["label"]


def test_sing_quick_mode(capsys):
    assert main(["sing", "u^3+v^5"]) == 0
    out = capsys.readouterr().out
    assert "mu = 8, tau = 8" in out
    assert "(1/3, 1/5)" in out


def test_sing_custom_variables(capsys):
    assert main(["sing", "a*b", "--vars", "a,b"]) == 0
    assert "mu = 1, tau = 1" in capsys.readouterr().out


def test_sing_reads_a_leading_minus_only_after_a_double_dash(capsys):
    """argparse takes '-u^2-v^3' for an option, so the expression goes
    after '--'."""
    with pytest.raises(SystemExit) as exc:
        main(["sing", "-u^2-v^3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the following arguments are required: expr" in captured.err
    assert main(["sing", "--", "-u^2-v^3"]) == 0
    assert "mu = 2, tau = 2" in capsys.readouterr().out


def test_corpus_runs_clean(capsys):
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out
    assert "FailsViaTau" in out and "Degenerates" in out
    assert "FAIL" not in out


def test_corpus_exits_1_on_a_failing_check(monkeypatch, capsys):
    """A copy of cuspidal-cubic asserting delta=5 against its branch's
    delta=1 fails its asserted-delta-r check: the corpus run exits 1, the
    copy's row reads FAIL, and every other line is the golden's."""
    models = corpus.curve_models()
    cusp = next(doc for doc in models if doc["label"] == "cuspidal-cubic")
    sing = dict(cusp["singularities"][0], asserted={"delta": 5, "r": 1})
    models.append(dict(cusp, singularities=[sing]))
    monkeypatch.setattr(corpus, "curve_models", lambda: models)
    assert main(["corpus"]) == 1
    lines = capsys.readouterr().out.splitlines()
    golden = (Path(__file__).parent / "golden" / "corpus.txt").read_text().splitlines()
    # the appended model's row sits after the last model row, before the
    # blank line above the classification note
    at = len(golden) - 2
    assert lines[:at] + lines[at + 1:] == golden
    (cusp_row,) = (line for line in golden if line.startswith("  cuspidal-cubic "))
    assert lines[at] == cusp_row + ", 1 FAIL"


def test_parse_error_exit_2(capsys):
    assert main(["sing", "u^2 +"]) == 2


def test_non_string_notes_exit_2(tmp_path, capsys):
    path = tmp_path / "notes.json"
    path.write_text(json.dumps({"genus": 0, "notes": 3, "singularities": []}))
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "$.notes" in captured.err


def test_schema_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"genus": 0, "singularities": [{"kind": "plane", '
                    '"f": "u*v", "variables": ["u", "v", "w"]}]}')
    assert main(["analyze", str(path)]) == 2


def test_numeric_weights_exit_2(tmp_path, capsys):
    sing = {"kind": "plane", "f": "u*v", "variables": ["u", "v"], "weights": [0.5, "1/2"],
            "asserted": {"delta": 1, "r": 2}}
    assert main(["analyze", _write_doc(tmp_path, sing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "$.singularities[0].weights[0]" in captured.err


def test_weight_with_a_large_exponent_exit_2_at_once(tmp_path, capsys):
    # Fraction("1e20000000") would build 10**20000000 before any check
    sing = {"kind": "plane", "f": "u^2+v^3", "variables": ["u", "v"],
            "weights": ["1e20000000", "1/3"], "asserted": {"delta": 1, "r": 1}}
    start = time.perf_counter()
    assert main(["analyze", _write_doc(tmp_path, sing)]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "$.singularities[0].weights[0]" in captured.err
    sing["weights"] = ["1/2", "1/3"]
    assert main(["analyze", _write_doc(tmp_path, sing)]) == 0


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


def test_jet_space_over_budget_exit_3(capsys):
    # The chain would start at order 99999: comb(100001, 2) monomials, all
    # refused before one is listed.
    start = time.perf_counter()
    assert main(["sing", "u^2+v^100000"]) == 3
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: jet space of 5000050000 monomials at truncation order 99999 "
        f"exceeds the cap of {jets.JET_SPACE_CAP}\n"
    )


def test_tail_map_witnesses_stay_under_the_jet_space_cap(capsys):
    # u^2+v^223 certifies mu = tau = 222 at order 222, and the tail map's
    # algebras stop at order N_M + 2 = 224 (25,425 monomials); an algebra
    # at the witness order T_w + 2 = 446 would need 100,128, over the cap.
    assert main(["sing", "u^2+v^223", "--format", "json-like"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["mu"], report["tau"], report["tail_rank"]) == (222, 222, 222)


def test_reach_of_sing_on_u2_plus_v_n(capsys):
    """The README's reach line: the tail map of u^2+v^N eliminates at
    order N + 1, so N = 444 (mu = 443, 99,681 jet monomials) is the largest
    that runs and N = 445 (100,128) exits 3.  The line moves with ROADMAP
    item 7 (weighted truncation)."""
    assert main(["sing", "u^2+v^444"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert (out[1], out[-1]) == ("mu = 443, tau = 443", "tail map rank: 443")
    assert main(["sing", "u^2+v^445"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: jet space of 100128 monomials at truncation order 446 "
        f"exceeds the cap of {jets.JET_SPACE_CAP}\n"
    )


def test_expansion_over_budget_exit_2(capsys):
    # (u+v+1)^60 would expand to comb(62, 2) = 1891 terms; the bound is
    # checked before the power is formed.
    start = time.perf_counter()
    assert main(["sing", "(u+v+1)^60"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: expansion may reach 1891 terms, over the cap of "
        f"{poly.MAX_TERMS} (at position 7)\n"
    )


@pytest.mark.parametrize(
    "expr",
    ["u^2+v^3+3^10000*u^5", "u^2+v^3+1/3^10000*u^5", "u^2+v^3+3^8000*3^8000*u^5"],
    ids=["power", "power-denominator", "product"],
)
def test_oversized_coefficient_exit_2(expr, capsys):
    # a power is bounded before it is formed, a product checked after
    assert main(["sing", expr]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"more than {poly.MAX_DIGITS} digits" in captured.err


def test_coefficient_under_the_digit_bound_prints(capsys):
    # 3^8000 has 3,818 digits
    assert main(["sing", "u^2+v^3+3^4000*3^4000*u^5"]) == 0
    assert str(3 ** 8000) in capsys.readouterr().out


# 4300 digits decode as JSON, but 2 * genus or a sum over singularities
# would have more than Python prints
NINES = 10 ** 4300 - 1


@pytest.mark.parametrize(
    "doc, path",
    [
        ({"genus": NINES}, "$.genus"),
        ({"genus": 0, "singularities": [
            {"kind": "plane", "variables": ["u", "v"], "f": "u^2-v^3",
             "asserted": {"delta": NINES, "r": 1}}]},
         "$.singularities[0].asserted.delta"),
        ({"genus": 0, "singularities": [
            {"kind": "lci", "variables": ["x", "y", "z"],
             "equations": ["y^2-x^3", "z^2-y^3"],
             "asserted": {"delta": NINES, "r": 1}}]},
         "$.singularities[0].asserted.delta"),
    ],
    ids=["genus", "plane-delta", "lci-delta"],
)
@pytest.mark.parametrize("fmt", ["text", "json-like"])
def test_natural_over_the_digit_bound_exit_2(doc, path, fmt, tmp_path, capsys):
    doc_file = tmp_path / "huge.json"
    doc_file.write_text(json.dumps(doc))
    assert main(["analyze", str(doc_file), "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {path}: field {path.rsplit('.', 1)[1]!r} has more than "
        f"{schema.MAX_INPUT_DIGITS} digits\n"
    )


@pytest.mark.parametrize("fmt", ["text", "json-like"])
def test_hc_window_over_the_digit_bound_exit_2(nodal_file, fmt, capsys):
    # 4301 digits are more than int() converts, and the span is not checked
    # before the digits
    for window in (f"-{NINES},-{NINES}", f"-{'9' * 4301},0"):
        argv = ["analyze", nodal_file, f"--hc-window={window}", "--format", fmt]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --hc-window: hc window bounds must have at most "
            f"{schema.MAX_INPUT_DIGITS} digits\n"
        )


def test_input_at_the_digit_bound_prints(tmp_path, capsys):
    largest = 10 ** schema.MAX_INPUT_DIGITS - 1
    doc_file = tmp_path / "large.json"
    doc_file.write_text(json.dumps({"genus": largest}))
    window = f"--hc-window=-{largest},-{largest}"
    assert main(["analyze", str(doc_file), window, "--format", "json-like"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["global_invariants"]["betti"] == [1, 2 * largest, 1]
    assert report["options"]["hc_window"] == [-largest, -largest]


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
    # the error quotes at most a bounded prefix of the rejected input
    assert len(captured.err.encode()) < 200


def test_not_m_primary_is_an_internal_failure(monkeypatch, capsys):
    # Every algebra built past the Milnor one is at a certified order, so
    # NotMPrimary there breaks an invariant: exit 1, not the cap's exit 3.
    def uncertified(generators, truncation_order, **kwargs):
        raise NotMPrimary(truncation_order)

    monkeypatch.setattr(plane, "JetAlgebra", uncertified)
    assert main(["sing", "u^2+v^3"]) == 1
    assert "not certified m-primary" in capsys.readouterr().err


def test_failing_kernel_dimension_makes_analyze_raise(monkeypatch):
    """A kernel of .f of the wrong dimension ends the run, as the tail map
    reads the same kernel: the report has no failing kernel-cokernel-tau
    row to show."""
    def wrong_kernel(self):
        raise AssertionError("kernel of .f has dimension 0, expected tau=1")

    monkeypatch.setattr(plane.PlaneAnalysis, "mult_by_f", wrong_kernel)
    docs = {doc["label"]: doc for doc in corpus.curve_models()}
    with pytest.raises(AssertionError, match="kernel of .f has dimension 0"):
        analyze(build_curve(docs["nodal-rational"]), AnalysisOptions())


# -- option validation -------------------------------------------------------

def test_tail_window_below_one_exit_2(nodal_file, capsys):
    assert main(["analyze", nodal_file, "--tail-window", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --tail-window: tail window must be at least 1\n"


@pytest.mark.parametrize(
    "window, expected",
    [(["--tail-window", "128"], (128, 7)),
     (["--hc-window=-64,63"], (4, 128)),
     (["--tail-window", "129"], "--tail-window: tail window must be at most 128"),
     (["--hc-window=-64,64"], "--hc-window: hc window must span at most 128 values")],
    ids=["tail-at-cap", "hc-at-cap", "tail-above-cap", "hc-above-cap"],
)
def test_report_windows_have_a_budget(nodal_file, capsys, window, expected):
    """Windows at the cap of 128 run; one past it is an input error."""
    code = main(["analyze", nodal_file, *window, "--format", "json-like"])
    captured = capsys.readouterr()
    if isinstance(expected, str):
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {expected}\n"
    else:
        assert code == 0
        doc = json.loads(captured.out)
        assert (doc["options"]["tail_window"], len(doc["pages"]["hc"])) == expected


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


def test_lci_e5_chain_end_to_end(tmp_path, capsys):
    # <16, 24, 36, 54, 81> has 90 gaps (numerical_semigroup in
    # test_branches.py counts them) and conductor 180, far below the
    # working order 8 * 81; the saturation stops at the conductor.
    path = _lci_file(tmp_path, ["a", "b", "c", "d", "e"],
                     ["b^2-a^3", "c^2-b^3", "d^2-c^3", "e^2-d^3"],
                     ["t^16", "t^24", "t^36", "t^54", "t^81"])
    assert main(["analyze", path, "--format", "json-like"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"]["value"] == "FailsViaNonPlanar"
    sing = report["singularities"][0]
    assert sing["delta"] == {"provenance": "computed", "value": 90}
    assert sing["obstruction_position"] == [6, -1]


def test_lci_parametrization_through_t_power_exit_2(tmp_path, capsys):
    # Every exponent is even, so the semigroup has no conductor at any order.
    path = _lci_file(tmp_path, ["x", "y", "z"], ["y^2-x^3", "z^2-y^3"],
                     ["t^8", "t^12", "t^18"])
    assert main(["analyze", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: $.singularities[0].parametrization: parametrization factors "
        "through t^2\n"
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


# -- input errors -------------------------------------------------------------

PLANE_UV = {"kind": "plane", "variables": ["u", "v"]}


@pytest.mark.parametrize(
    "second, message",
    [
        (dict(LCI_WITH_PARAMETRIZATION, parametrization=["t^8", "t^12", "t^18"]),
         "$.singularities[1].parametrization: parametrization factors through t^2"),
        (dict(PLANE_UV, f="u*v", branches=[{"images": ["t", "0"], "equation": "v"}] * 2),
         "$.singularities[1].branches[1]: repeats branches[0]: its equation "
         "pulls back to zero"),
    ],
    ids=["lci-through-t-power", "repeated-branch"],
)
def test_analysis_errors_name_their_singularity(second, message, tmp_path, capsys):
    # The branch checks run during analysis, on a germ that does not know
    # its place in the document; analyze adds it.
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"genus": 0, "singularities": [CUSP_WITH_BRANCH, second]}))
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "case, message",
    [
        # the product bound: 21 terms times 21 terms may reach 441
        (["sing", "(u+v+1)^10*(u+v+1)^10"],
         "expansion may reach 441 terms, over the cap of 256 (at position 10)"),
        (["sing", "u$v"], "unexpected character '$' (at position 1)"),
        (["sing", "(u+v"], "expected ')' (at position 4)"),
        (dict(PLANE_UV, f="1+u^2+v^3"),
         "$.singularities[0]: equation must be nonzero with zero constant term"),
        (dict(PLANE_UV, f="u^2-v^3", weights=["1/3", "1/3"]),
         "$.singularities[0]: declared weights fail the Euler relation"),
        (dict(PLANE_UV, f="u^2-v^3", weights=["0", "1/3"]),
         "$.singularities[0]: weights must be positive"),
        (dict(LCI_WITH_PARAMETRIZATION, equations=["1+y^2-x^3", "z^2-y^3"]),
         "$.singularities[0]: equation 0 must be nonzero with zero constant term"),
        (dict(CUSP_WITH_BRANCH, kind="cusp"),
         "$.singularities[0].kind: unknown kind 'cusp'"),
        ({"kind": "lci", "variables": ["x"], "equations": []},
         "$.singularities[0].variables: lci singularity needs at least two "
         "variable names"),
        (dict(LCI_WITH_PARAMETRIZATION, parametrization=["t^4", "t^6"]),
         "$.singularities[0].parametrization: one image per variable required"),
        (dict(CUSP_WITH_BRANCH, branches=[{"images": ["t^3"]}]),
         "$.singularities[0].branches[0].images: branch needs two images"),
    ],
    ids=[
        "product-over-the-term-cap", "unexpected-character", "unclosed-parenthesis",
        "plane-constant-term", "weights-fail-euler", "weight-not-positive",
        "lci-constant-term", "unknown-kind", "one-lci-variable",
        "parametrization-too-short", "branch-with-one-image",
    ],
)
def test_input_error_messages(case, message, tmp_path, capsys):
    argv = case if isinstance(case, list) else ["analyze", _write_doc(tmp_path, case)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# -- round trips and determinism -------------------------------------------

def test_schema_round_trip(tmp_path):
    for doc in corpus.curve_models():
        first = build_curve(doc)
        path = tmp_path / "roundtrip.json"
        path.write_text(serialize_curve(first))
        second = load_curve(str(path))
        assert first == second


def test_serialize_curve_writes_the_bytes_of_json_dumps():
    docs = corpus.curve_models()
    assert len(docs) == 12
    for doc in docs:
        expected = json.dumps(doc, sort_keys=True, indent=2)
        assert serialize_curve(build_curve(doc)) == expected, doc["label"]


def test_reports_byte_identical():
    for doc in corpus.curve_models():
        a = to_json(analyze(build_curve(doc), AnalysisOptions()))
        b = to_json(analyze(build_curve(doc), AnalysisOptions()))
        assert a == b


# -- a reader that closes stdout early ---------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["sing", "u^5+v^5+u^3*v^3", "--format", "json-like"],
        ["sing", "u^5+v^5+u^3*v^3"],
        ["corpus"],
    ],
    ids=["sing-json-like", "sing-text", "corpus"],
)
def test_closed_stdout_keeps_the_exit_code(argv):
    """As with ``curveinv sing ... | head -1``: a report written to a pipe
    whose read end is already closed leaves no traceback, and the exit code
    is the subcommand's own (0 here), not the 1 of a failed check."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # before the child writes anything
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "curveinv.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.stderr == b""
    assert done.returncode == cli.EXIT_OK
