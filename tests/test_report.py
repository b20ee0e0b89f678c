"""The json-like writer: the bytes of ``json.dumps(x, sort_keys=True,
indent=2)``, on generated values and on every corpus report."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from curveinv import corpus
from curveinv.report import AnalysisOptions, analyze, dump_json, to_json, to_structured
from curveinv.schema import build_curve


def reference(value):
    return json.dumps(value, sort_keys=True, indent=2)


# quotes, backslashes, control and non-ASCII characters, lone surrogates
characters = (
    st.sampled_from('"\\/\x00\b\f\n\r\t\x1f\x7f\xe9 \U0001f600')
    | st.integers(0xD800, 0xDFFF).map(chr)
    | st.characters()
)
texts = st.text(characters, max_size=12)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(10**99, 10**100 - 1).flatmap(lambda n: st.sampled_from((n, -n)))
    | texts
)


def _containers(children):
    # page-row key sets, with row-typed and with arbitrary values, take
    # the writer's row path and its fallback
    row_typed = {"p": st.integers(), "q": st.integers(), "provenance": texts}
    row_any = {"p": children, "q": children, "provenance": children}
    return (
        st.lists(children, max_size=4)
        | st.dictionaries(texts, children, max_size=4)
        | st.fixed_dictionaries({**row_typed, "dim": texts})
        | st.fixed_dictionaries({**row_typed, "rank": texts})
        | st.fixed_dictionaries({**row_any, "dim": children})
        | st.fixed_dictionaries({**row_any, "rank": children})
    )


values = st.recursive(scalars, _containers, max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(values)
def test_writer_matches_json_dumps(value):
    assert dump_json(value) == reference(value)


def test_writer_edge_cases():
    cases = [
        {}, [], "", [{}], {"": []}, [True, False, None, 1, 0, -1],
        {"b": 1, "a": {"d": [], "c": [[]]}},
        {"p": True, "q": 0, "provenance": "computed", "dim": "1"},
        {"p": 0, "q": False, "provenance": "computed", "rank": "1"},
        {"p": 0, "q": 0, "provenance": "computed", "dim": None},
        {"p": 0, "q": 0, "provenance": "computed", "dim": "1", "rank": "2"},
        {"p": 0, "q": 0, "provenance": "computed", "extra": "1"},
        "\ud800 \udfff é \"\\",
        -10**99,
    ]
    for value in cases:
        assert dump_json(value) == reference(value), value
    assert dump_json(True) == "true" and dump_json([False]) == "[\n  false\n]"


@pytest.mark.parametrize(
    "value",
    [1.5, (1, 2), {1, 2}, b"x", {1: "a"}, [object()], {"a": {"b": 0.0}}],
    ids=["float", "tuple", "set", "bytes", "int-key", "object", "nested-float"],
)
def test_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        dump_json(value)


@pytest.mark.parametrize("tail_window", [1, 6, 48])
def test_to_json_matches_json_dumps_on_the_corpus(tail_window):
    rows = set()
    for doc in corpus.curve_models():
        for window in ((-3, 6), (5, 5), (-1, 48)):
            options = AnalysisOptions(tail_window=tail_window, hc_window=window)
            report = analyze(build_curve(doc), options)
            structured = to_structured(report)
            assert to_json(report) == reference(structured), (doc["label"], window)
            for page in (structured["pages"]["e1"], structured["pages"]["e2"]):
                rows |= {key for key in ("entries", "d1_ranks") if page[key]}
    # both row shapes were written
    assert rows == {"entries", "d1_ranks"}
