"""The json-like writer: the bytes of ``json.dumps(x, sort_keys=True,
indent=2)``, on generated values and on every corpus report; and each
page's content against a dict built from its ``SSPage`` here."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import HC_WINDOWS
from curveinv import corpus
from curveinv.report import AnalysisOptions, analyze, to_json
from curveinv.schema import build_curve
from curveinv.spectral import UNKNOWN_ORDER, Dim, SSPage, Verdict, dump_json


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
    # page-row key sets, with row-typed and with arbitrary values
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
            structured = json.loads(to_json(report))
            assert to_json(report) == reference(structured), (doc["label"], window)
            for page in (structured["pages"]["e1"], structured["pages"]["e2"]):
                rows |= {key for key in ("entries", "d1_ranks") if page[key]}
    # both row shapes were written
    assert rows == {"entries", "d1_ranks"}


def as_json_text(text):
    """``text`` as a JSON string carries it: escapes are UTF-16 code units,
    so a high and a low surrogate side by side read back as one character."""
    return text.encode("utf-16-le", "surrogatepass").decode("utf-16-le", "surrogatepass")


def page_oracle(page):
    """The page's JSON value, built from the ``SSPage`` without the writer."""

    def rows(items, key):
        return [
            {"p": p, "q": q, key: dim.text,
             "provenance": "symbolic" if dim.coeffs else "computed"}
            for (p, q), dim in items
        ]

    return {
        "label": as_json_text(page.label),
        "verdict": page.verdict.value,
        "entries": rows(page.entries, "dim"),
        "d1_ranks": rows(page.d1_ranks, "rank"),
        "constraints": [as_json_text(text) for text in page.constraints],
        "notes": [as_json_text(text) for text in page.notes],
    }


def _symbolic(const, coeffs):
    return Dim.of(const, **coeffs)


# exact, symbolic (negative constants included) and ">=1" entries
dims = (
    st.builds(Dim, st.integers(0, 10**40))
    | st.builds(
        _symbolic,
        st.integers(-10**40, 10**40),
        st.dictionaries(
            st.sampled_from(UNKNOWN_ORDER), st.integers(-9, 9).filter(bool), min_size=1
        ),
    )
    | st.just(Dim(positive=True))
)
grid = st.dictionaries(
    st.tuples(st.integers(-200, 200), st.integers(-200, 200)), dims, max_size=6
).map(lambda d: tuple(sorted(d.items())))
pages = st.builds(
    SSPage,
    label=texts,
    entries=grid,
    d1_ranks=grid,
    verdict=st.sampled_from(Verdict),
    constraints=st.lists(texts, max_size=3).map(tuple),
    notes=st.lists(texts, max_size=3).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(pages)
def test_pages_match_the_page_oracle(page):
    expected = page_oracle(page)
    assert json.loads(dump_json(page)) == expected
    # a page is written in place at any depth, with the bytes of json.dumps
    nested = {"a": page, "b": [page, {"c": page}]}
    assert dump_json(nested) == reference(
        {"a": expected, "b": [expected, {"c": expected}]}
    )


@pytest.mark.parametrize("tail_window", [1, 6, 48])
def test_report_pages_match_the_page_oracle(tail_window):
    for doc in corpus.curve_models():
        for window in HC_WINDOWS + ((-1, 48),):
            options = AnalysisOptions(tail_window=tail_window, hc_window=window)
            report = analyze(build_curve(doc), options)
            pages = {
                "e1": page_oracle(report.e1),
                "e2": page_oracle(report.e2),
                "hc": {str(m): page_oracle(page) for m, page in report.hc.per_m},
            }
            structured = json.loads(to_json(report))
            assert structured["pages"] == pages, (doc["label"], window)
            if window == HC_WINDOWS[-1]:
                assert all(page["entries"] == [] for page in pages["hc"].values())
            for page in [report.e1, report.e2] + [p for _, p in report.hc.per_m]:
                assert json.loads(dump_json(page)) == page_oracle(page)
            # the page bytes in place are json.dumps of the oracle's pages
            assert to_json(report) == reference({**structured, "pages": pages})
