"""Page assembly, verdicts, and cyclic-homology reindexing."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import HC_WINDOWS, analyzed_model
from curveinv import corpus
from curveinv.report import AnalysisOptions, to_text
from curveinv.spectral import (
    Dim, HCPages, SSPage, Verdict, _survivor, dump_json, hc_pages, hc_text, render_page,
)

ALL_MODEL_LABELS = [doc["label"] for doc in corpus.curve_models()]


def entries(page):
    return page.entry_map()


def exact(page, pos):
    entry = entries(page)[pos]
    assert not (entry.symbolic or entry.positive), f"{pos} is {entry}"
    return entry.const


# -- dimensions -------------------------------------------------------------

def test_dim_arithmetic_and_rendering():
    e = Dim(2, kappa=1, c=-1)
    assert (e.text, e.provenance) == ("kappa - c + 2", "symbolic")
    assert Dim(-3, c=-2, k_v=1).text == "-2*c + k_v - 3"
    assert e - Dim(2, kappa=1) == Dim(0, c=-1)
    cancelled = e - Dim(2, kappa=1, c=-1)
    assert cancelled == Dim(0)
    assert (cancelled.text, cancelled.provenance) == ("0", "computed")
    assert Dim(3) + Dim(4) == Dim(7)


def test_dim_rules():
    with pytest.raises(ValueError, match="negative dimension -1"):
        Dim(1) - Dim(2)
    marker = Dim(positive=True)
    assert (marker.text, marker.provenance) == (">=1", "computed")
    with pytest.raises(ValueError, match="undetermined-positive"):
        marker - Dim(0)
    with pytest.raises(ValueError, match="undetermined-positive"):
        Dim(1) + marker


def test_survivor_constraints():
    """Under degeneration a survivor drops c, and folds kappa + k_v into
    2g + R when both carry the same coefficient; otherwise it keeps them."""
    entry = Dim(3, kappa=2, c=-1, k_v=2)
    assert _survivor(entry, (None, Dim(1)), 5) == Dim(12)
    assert _survivor(Dim(3, kappa=1, c=-1, k_v=2), (), 5) == Dim(3, kappa=1, k_v=2)
    assert _survivor(Dim(3, kappa=1, c=-1), (), 5) == Dim(3, kappa=1)
    assert _survivor(entry, (Dim(1),), None) == Dim(2, kappa=2, c=-1, k_v=2)
    marker = Dim(positive=True)
    assert _survivor(marker, (Dim(1),), 5) is marker


# -- global invariants ------------------------------------------------------

def test_global_invariants_smooth():
    gi = analyzed_model("smooth-genus-2").invariants
    assert (gi.delta_total, gi.R, gi.p_a) == (0, 0, 2)
    assert gi.betti == (1, 4, 1)


def test_global_invariants_nodal():
    gi = analyzed_model("nodal-rational").invariants
    assert (gi.delta_total, gi.tau_total, gi.R, gi.p_a) == (1, 1, 1, 1)
    assert gi.betti == (1, 1, 1)


def test_global_invariants_cuspidal():
    gi = analyzed_model("cuspidal-cubic").invariants
    assert (gi.delta_total, gi.tau_total, gi.R, gi.p_a) == (1, 2, 0, 1)
    assert gi.betti == (1, 0, 1)


def test_mu_total_identity():
    for label in ("nodal-rational", "cuspidal-cubic", "two-sing-genus-1",
                  "nonqh-quintic-model"):
        gi = analyzed_model(label).invariants
        assert gi.mu_total == 2 * gi.delta_total - gi.R


# -- verdicts ---------------------------------------------------------------

@pytest.mark.parametrize(
    "label,verdict",
    [
        ("nodal-rational", Verdict.DEGENERATES),
        ("cuspidal-cubic", Verdict.DEGENERATES),
        ("smooth-genus-2", Verdict.DEGENERATES),
        ("two-sing-genus-1", Verdict.DEGENERATES),
        ("nonqh-quintic-model", Verdict.FAILS_VIA_TAU),
        ("nonplanar-t469", Verdict.FAILS_VIA_NONPLANAR),
        ("fourspace-ci", Verdict.FAILS_VIA_NONPLANAR),
        ("mixed-node-t469", Verdict.FAILS_VIA_NONPLANAR),
    ],
)
def test_verdicts(label, verdict):
    assert analyzed_model(label).verdict.verdict is verdict


def _ledger(label):
    report = analyzed_model(label)
    [check] = [c for c in report.checks if c.name == "ledger-equivalence"]
    gi = report.invariants
    return check.status, gi.tau_total, 2 * gi.delta_total - gi.R


def test_ledger_identity():
    for label in ("nodal-rational", "cuspidal-cubic", "tacnodal-rational",
                  "e8-rational", "two-sing-genus-1", "smooth-genus-2"):
        status, tau_total, rhs = _ledger(label)
        assert status == "pass" and tau_total == rhs, label
    status, tau_total, rhs = _ledger("nonqh-quintic-model")
    assert status == "pass" and tau_total < rhs
    assert _ledger("fourspace-ci")[0] == "skipped"


def test_planar_models_satisfy_the_summed_milnor_formula():
    """On an all-planar model 2*delta - R is mu_total, so the ledger check
    compares tau_total with mu_total and cannot fail."""
    planar = [label for label in ALL_MODEL_LABELS
              if not analyzed_model(label).model.lci_records()]
    assert len(planar) == 9
    for label in planar:
        gi = analyzed_model(label).invariants
        assert gi.mu_total == 2 * gi.delta_total - gi.R, label


# -- first page -------------------------------------------------------------

def test_e1_nodal():
    page = analyzed_model("nodal-rational").e1
    assert exact(page, (0, 0)) == 1
    assert exact(page, (0, 1)) == 1
    assert exact(page, (2, 0)) == 1
    for p in range(1, 5):
        assert exact(page, (p + 1, -p)) == 1
        assert exact(page, (p + 2, -p)) == 1
    e10 = entries(page)[(1, 0)]
    assert e10.symbolic and not e10.positive
    assert e10 == Dim(1, kappa=1, c=-1)


def test_e1_smooth_genus_one():
    page = analyzed_model("elliptic-smooth").e1
    assert {pos: exact(page, pos) for pos in entries(page)} == {
        (0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1,
    }


def test_e1_cuspidal_tails():
    page = analyzed_model("cuspidal-cubic").e1
    assert exact(page, (2, 0)) == 2
    assert exact(page, (0, 1)) == 1
    for p in range(1, 5):
        assert exact(page, (p + 1, -p)) == 2
        assert exact(page, (p + 2, -p)) == 2


def test_tail_uniformity():
    page = analyzed_model("e8-rational").e1
    tails = {exact(page, (p + 1, -p)) for p in range(1, 5)}
    tails |= {exact(page, (p + 2, -p)) for p in range(1, 5)}
    assert len(tails) == 1


def test_wide_pages_share_one_dim_per_tail_cell():
    """The first page's tail entries and ranks are one ``Dim`` each, and so
    are the second page's and the left edge's equal cells: a 48-wide report
    holds a handful of ``Dim`` objects, so it renders each text once."""
    report = analyzed_model("nonqh-quintic-model", AnalysisOptions(tail_window=48))
    e1, e2 = report.e1, report.e2
    tails = [entries(e1)[(p + 1, -p)] for p in range(1, 49)]
    tails += [entries(e1)[(p + 2, -p)] for p in range(1, 49)]
    assert len({id(d) for d in tails}) == 1
    assert len({id(d) for (p, q), d in e1.d1_ranks if q < 0}) == 1
    assert len(e2.entries) > 96
    assert len({id(d) for _, d in e2.entries}) <= 8
    assert len({id(d) for _, d in report.hc.left_edge}) <= 4


# -- second page ------------------------------------------------------------

def test_e2_degenerate_support():
    page = analyzed_model("nodal-rational").e2
    assert exact(page, (2, 0)) == 0
    for p in range(1, 5):
        assert exact(page, (p + 1, -p)) == 0
        assert exact(page, (p + 2, -p)) == 0
    assert exact(page, (1, 1)) == 1
    assert entries(page)[(0, 1)] == Dim(0, k_v=1)
    assert entries(page)[(1, 0)] == Dim(0, kappa=1)
    assert any("kappa + k_v = 2*g + R = 1" in c for c in page.constraints)


def test_e2_smooth_equals_e1():
    report = analyzed_model("smooth-genus-2")
    assert report.e2.entries == report.e1.entries


def test_e2_tau_failure_survivors():
    page = analyzed_model("nonqh-quintic-model").e2
    # tau = 15 and local tail rank = 14: one dimension survives in each tail
    for p in range(1, 5):
        assert exact(page, (p + 1, -p)) == 1
        assert exact(page, (p + 2, -p)) == 1


def test_e2_nonplanar_marker():
    page = analyzed_model("nonplanar-t469").e2
    assert entries(page)[(4, -1)].positive
    page4 = analyzed_model("fourspace-ci").e2
    assert entries(page4)[(5, -1)].positive


def test_e2_mixed_model_keeps_planar_data_and_marker():
    page = analyzed_model("mixed-node-t469").e2
    assert entries(page)[(4, -1)].positive
    assert exact(page, (0, 0)) == 1


# -- cyclic pages -----------------------------------------------------------

def nonzero_positions(page):
    out = {}
    for pos, entry in page.entry_map().items():
        if entry == Dim(0):
            continue
        out[pos] = entry
    return out


def test_hc_verdict_agreement():
    for label in ("nodal-rational", "cuspidal-cubic", "nonqh-quintic-model",
                  "nonplanar-t469", "smooth-genus-2"):
        report = analyzed_model(label)
        assert report.hc.verdict is report.verdict.verdict


def test_hc_shift_cases_cuspidal():
    hc = analyzed_model("cuspidal-cubic").hc
    # m <= 0: four supported positions, horizontally shifted copies
    for m in (-2, -1, 0):
        assert set(nonzero_positions(hc.page(m))) == {
            (-m, 0), (-m, 1), (1 - m, 0), (1 - m, 1),
        }
    # m = 1: two supported positions
    assert set(nonzero_positions(hc.page(1))) == {(0, 0), (0, 1)}
    # m = 2: the isolated degree-zero group alone
    assert set(nonzero_positions(hc.page(2))) == {(0, 0)}


def test_hc_smooth_vanishes_high_m():
    hc = analyzed_model("smooth-genus-2").hc
    for m in (2, 3, 4):
        assert nonzero_positions(hc.page(m)) == {}


def test_hc_left_edge_survivor_recorded():
    # honest computation: cutting the source column of the left-most tail
    # pair leaves its target of dimension tau at (m, -m+2); reindexed to
    # filtration coordinates that is (0, -m+2)
    hc = analyzed_model("cuspidal-cubic").hc
    for m in (3, 4):
        assert nonzero_positions(hc.page(m)) == {
            (0, -m + 2): hc.page(m).entry_map()[(0, -m + 2)]
        }
        assert exact(hc.page(m), (0, -m + 2)) == 2


def hodge_arrows(entries):
    """The d1 arrows (source, target), found by scanning the first-page
    entries for tail sources, not read off the rank keys."""
    arrows = [((0, 1), (1, 1)), ((1, 0), (2, 0))]
    for (p, q) in entries:
        if q <= -1 and p == -q + 1:  # tail source (p'+1, -p')
            arrows.append(((p, q), (p + 1, q)))
    return arrows


def second_page(entries, ranks, arrows, two_g_plus_R):
    """Rank subtraction E2 = E1 - rank(out) - rank(in) over the given
    arrows, then the constraints."""
    incoming, outgoing = {}, {}
    for source, target in arrows:
        rank = ranks.get(source, Dim(0))
        outgoing[source] = rank
        incoming[target] = rank
    return {
        pos: _survivor(entry, (outgoing.get(pos), incoming.get(pos)), two_g_plus_R)
        for pos, entry in entries.items()
    }


def oracle_e2_entries(report):
    """The Hodge second page: one rank subtraction over the full first page."""
    e1, gi = report.e1, report.invariants
    two_g_plus_R = 2 * gi.genus + gi.R if e1.verdict is Verdict.DEGENERATES else None
    entries = e1.entry_map()
    second = second_page(entries, e1.rank_map(), hodge_arrows(entries), two_g_plus_R)
    return tuple(sorted(second.items()))


def oracle_hc_pages(report, window):
    """The cyclic pages one rank subtraction per m: the first page cut to
    the columns p >= max(0, m), with the arrows whose source column is
    kept, then reindexed to (p - m, q)."""
    e1, gi = report.e1, report.invariants
    degenerates = e1.verdict is Verdict.DEGENERATES
    two_g_plus_R = 2 * gi.genus + gi.R if degenerates else None
    entries, ranks = e1.entry_map(), e1.rank_map()
    arrows = hodge_arrows(entries)
    lo, hi = window
    pages = []
    for m in range(lo, hi + 1):
        p_min = max(0, m)
        second = second_page(
            {pos: entry for pos, entry in entries.items() if pos[0] >= p_min},
            ranks,
            [(s, t) for (s, t) in arrows if s[0] >= p_min],
            two_g_plus_R,
        )
        reindexed = tuple(sorted(((p - m, q), e) for (p, q), e in second.items()))
        pages.append((m, reindexed))
    return pages


@pytest.mark.parametrize("tail_window", [1, 6, 48])
def test_hc_pages_match_per_m_rank_subtraction(tail_window):
    verdicts, smooth = set(), False
    for label in ALL_MODEL_LABELS:
        report = analyzed_model(label, AnalysisOptions(tail_window=tail_window))
        verdicts.add(report.verdict.verdict)
        smooth |= not report.model.records
        assert report.e2.entries == oracle_e2_entries(report), label
        for window in HC_WINDOWS:
            hc = hc_pages(report.model, report.e1, report.e2, report.invariants, window)
            assert hc.verdict is report.verdict.verdict
            expected = oracle_hc_pages(report, window)
            assert [m for m, _ in hc.per_m] == [m for m, _ in expected]
            for (m, page), (_, entries) in zip(hc.per_m, expected):
                assert page.entries == entries, (label, window, m)
                assert page.label == f"E2(F_{m}, {report.model.label})"
                assert page.notes == (
                    f"column a = p - {m} hosts Hodge column p; "
                    f"columns p < {max(0, m)} cut",
                )
                assert page.verdict is report.verdict.verdict
                assert (page.d1_ranks, page.constraints) == ((), ())
    assert verdicts == set(Verdict) and smooth


# -- rendering --------------------------------------------------------------

def dense_render_text(page):
    """Reference text grid: one cell for every (p, q) of the grid."""
    entries = page.entry_map()
    lines = [f"{page.label}  [verdict: {page.verdict.value}]"]
    if entries:
        ps = sorted({p for p, _ in entries})
        qs = sorted({q for _, q in entries}, reverse=True)
        cells = {
            (p, q): entries[(p, q)].text if (p, q) in entries else "."
            for p in ps
            for q in qs
        }
        width = max(max(len(v) for v in cells.values()), 4)
        label = max(3, *(len(str(q)) for q in qs))
        header = "q\\p".ljust(label) + " |" + "".join(f" {p:>{width}}" for p in ps)
        lines.append(header)
        lines.append("-" * len(header))
        for q in qs:
            lines.append(
                f"{q:>{label}} |" + "".join(f" {cells[(p, q)]:>{width}}" for p in ps)
            )
    else:
        lines.append("(empty grid)")
    for label, items in (("constraints", page.constraints), ("notes", page.notes)):
        for item in items:
            lines.append(f"{label[:-1]}: {item}")
    return "\n".join(lines)


def test_text_grid_matches_dense_reference():
    """Every page against the dense grid, alone and in place in the whole
    report, at tail windows 1, 6 and 48 and every window of HC_WINDOWS."""
    rendered, smooth, empty, edge_markers = set(), False, set(), set()
    for tail_window in (1, 6, 48):
        for window in HC_WINDOWS:
            options = AnalysisOptions(tail_window=tail_window, hc_window=window)
            for label in ALL_MODEL_LABELS:
                report = analyzed_model(label, options)
                smooth |= not report.model.records
                hc = [page for _, page in report.hc.per_m]
                dense = [dense_render_text(page) for page in [report.e1, report.e2] + hc]
                assert render_page(report.e1) == dense[0], label
                assert render_page(report.e2) == dense[1], label
                assert hc_text(report.hc) == dense[2:], (label, options)
                assert to_text(report).endswith("\n\n" + "\n\n".join(dense))
                for page in [report.e1, report.e2] + hc:
                    rendered |= {entry.text for _, entry in page.entries}
                    empty |= {page.label} if not page.entries else set()
                    # an lci ">=1" entry in the cut column: m = e + 1
                    edge_markers |= {
                        page.label for (a, _), entry in page.entries if a == 0 and entry.positive
                    }
                if window == HC_WINDOWS[-1]:
                    assert all(text.splitlines()[1] == "(empty grid)" for text in dense[2:])
    assert smooth and ">=1" in rendered and empty and edge_markers
    assert "E2(F_4, nonplanar-t469)" in edge_markers
    assert any(len(text) > 4 and text[0].isalpha() for text in rendered)


def test_cut_rows_slice_from_the_right():
    """A cut page's rows are right-end slices of the whole rows of E2: on
    nodal-rational, E2's column 1 holds "kappa", wider than any cell of the
    pages cut at m >= 2, so a slice from the left would shift those rows."""
    report = analyzed_model("nodal-rational", AnalysisOptions(hc_window=(0, 5)))
    assert max(len(entry.text) for (p, _), entry in report.e2.entries if p == 1) == 5
    texts = hc_text(report.hc)
    for (m, page), text in zip(report.hc.per_m, texts):
        assert text == dense_render_text(page), m
        if m >= 2:
            assert max(len(entry.text) for _, entry in page.entries) <= 4
            grid = text.splitlines()[1:-1]
            assert {len(line) for line in grid} == {len(grid[0])}, m


def test_row_labels_below_minus_99_keep_the_header_width():
    """Row labels are as wide as the longest q label: at tail window 128
    the rows q <= -100 line up with the header."""
    options = AnalysisOptions(tail_window=128, hc_window=(-1, 126))
    report = analyzed_model("mixed-node-t469", options)
    pages = to_text(report).split("\n\n")[1:]
    assert len(pages) == 2 + 128
    for text in pages:
        lines = text.splitlines()
        grid = [line for line in lines if "|" in line or set(line) == {"-"}]
        assert {len(line) for line in grid} == {len(lines[1])}, lines[0]
    e2_lines = pages[1].splitlines()
    assert e2_lines[1].startswith("q\\p  |")
    assert any(line.startswith("-128 |") for line in e2_lines)
    assert any(line.startswith("  -1 |") for line in e2_lines)


# A sparse e2 grid with cells of several widths, left-edge entries that may
# or may not sit on a cell, and a window that may pass the last column.
cells = st.sampled_from([
    Dim(0), Dim(7), Dim(123456), Dim(positive=True),
    Dim(2, kappa=1, c=-1), Dim(-3, c=-2, k_v=1),
])
positions = st.tuples(st.integers(0, 10), st.integers(-8, 3))


@st.composite
def cut_pages(draw):
    entries = tuple(sorted(draw(st.dictionaries(positions, cells, max_size=25)).items()))
    left_edge = tuple(sorted(draw(st.dictionaries(positions, cells, max_size=6)).items()))
    lo = draw(st.integers(-4, 14))
    verdict = draw(st.sampled_from(Verdict))
    e2 = SSPage("E2(x)", entries, (), verdict)
    return HCPages(e2, left_edge, (lo, lo + draw(st.integers(0, 6))), "x", verdict)


@settings(max_examples=200, deadline=None)
@given(cut_pages())
def test_cut_writers_match_the_built_pages(hc):
    """The writers' cuts of e2 against the pages ``per_m`` builds: the text
    against the dense grid, the JSON against ``dump_json`` of each page."""
    assert hc_text(hc) == [dense_render_text(page) for _, page in hc.per_m]
    pages = {str(m): page for m, page in hc.per_m}
    assert dump_json({"hc": hc}) == dump_json({"hc": pages})
    lo, hi = hc.window
    for m in (lo, hi):
        assert hc.page(m) is hc.per_m[m - lo][1]
    for m in (lo - 1, hi + 1):
        with pytest.raises(KeyError):
            hc.page(m)


def test_render_deterministic():
    report = analyzed_model("two-sing-genus-1")
    assert render_page(report.e2) == render_page(report.e2)
    assert dump_json(report.e2) == dump_json(report.e2)
