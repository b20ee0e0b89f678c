"""Byte-identity gate: CLI stdout and exit codes against recorded files.

Each case runs ``cli.main`` and compares its stdout with
``tests/golden/<name>`` and its exit code with ``tests/golden/exit_codes.json``.
The files are fixed outputs of an earlier commit (see CHANGES.md); a change
that alters any report byte fails here.
"""

import json
from pathlib import Path

import pytest

from curveinv import corpus
from curveinv.cli import main

GOLDEN = Path(__file__).parent / "golden"
WINDOW = ["--tail-window", "6", "--hc-window=-3,6"]
FORMATS = {"txt": ["--format", "text"], "json": ["--format", "json-like"]}
SING = {"e8": "u^3+v^5", "nonqh-quintic": "u^5+v^5+u^3*v^3",
        "tangent-a8": "(u+v)^2+v^9"}


def _cases():
    """(golden file name, corpus label or None, CLI arguments after the file).

    With no label the arguments are the whole command line.
    """
    cases = [("corpus.txt", None, ["corpus"])]
    for doc in corpus.curve_models():
        for ext, fmt in FORMATS.items():
            cases.append((f"analyze-{doc['label']}.{ext}", doc["label"], fmt))
    for label in ("nonqh-quintic-model", "mixed-node-t469"):
        for ext, fmt in FORMATS.items():
            cases.append((f"window-{label}.{ext}", label, WINDOW + fmt))
    for name, expr in SING.items():
        for ext, fmt in FORMATS.items():
            cases.append((f"sing-{name}.{ext}", None, ["sing", expr] + fmt))
    return cases


CASES = _cases()


def run_case(label, args, tmp_path, capsys):
    """Run one case; return (stdout, exit code)."""
    if label is None:
        argv = args
    else:
        doc = {d["label"]: d for d in corpus.curve_models()}[label]
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(doc))
        argv = ["analyze", str(path)] + args
    code = main(argv)
    return capsys.readouterr().out, code


@pytest.mark.parametrize("name,label,args", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, label, args, tmp_path, capsys):
    out, code = run_case(label, args, tmp_path, capsys)
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == expected_codes[name]
    assert out == (GOLDEN / name).read_text()
