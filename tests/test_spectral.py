"""Page assembly, verdicts, and cyclic-homology reindexing."""

import pytest

from conftest import analyzed_model
from curveinv.spectral import Dim, Verdict, render_page


def entries(page):
    return page.entry_map()


def exact(page, pos):
    entry = entries(page)[pos]
    assert not (entry.coeffs or entry.positive), f"{pos} is {entry}"
    return entry.const


# -- dimensions -------------------------------------------------------------

def test_dim_arithmetic_and_rendering():
    e = Dim.of(2, kappa=1, c=-1)
    assert (e.render(), e.provenance) == ("kappa - c + 2", "symbolic")
    assert Dim.of(-3, c=-2, k_v=1).render() == "-2*c + k_v - 3"
    assert e - Dim.of(2, kappa=1) == Dim.of(0, c=-1)
    cancelled = e - Dim.of(2, kappa=1, c=-1)
    assert cancelled == Dim(0)
    assert (cancelled.render(), cancelled.provenance) == ("0", "computed")
    assert Dim(3) + Dim(4) == Dim(7)


def test_dim_rules():
    with pytest.raises(ValueError, match="negative dimension -1"):
        Dim(1) - Dim(2)
    marker = Dim(positive=True)
    assert (marker.render(), marker.provenance) == (">=1", "computed")
    with pytest.raises(ValueError, match="undetermined-positive"):
        marker - Dim(0)
    with pytest.raises(ValueError, match="undetermined-positive"):
        Dim(1) + marker


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


def test_ledger_identity():
    for label in ("nodal-rational", "cuspidal-cubic", "tacnodal-rational",
                  "e8-rational", "two-sing-genus-1", "smooth-genus-2"):
        v = analyzed_model(label).verdict
        assert v.ledger_consistent is True
        assert v.ledger_tau_total == v.ledger_rhs
    v = analyzed_model("nonqh-quintic-model").verdict
    assert v.ledger_consistent is True
    assert v.ledger_tau_total < v.ledger_rhs


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
    assert e10.coeffs and not e10.positive
    assert e10.as_dict() == {"kappa": 1, "c": -1} and e10.const == 1


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


# -- second page ------------------------------------------------------------

def test_e2_degenerate_support():
    page = analyzed_model("nodal-rational").e2
    assert exact(page, (2, 0)) == 0
    for p in range(1, 5):
        assert exact(page, (p + 1, -p)) == 0
        assert exact(page, (p + 2, -p)) == 0
    assert exact(page, (1, 1)) == 1
    assert entries(page)[(0, 1)].as_dict() == {"k_v": 1}
    assert entries(page)[(1, 0)].as_dict() == {"kappa": 1}
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


# -- rendering --------------------------------------------------------------

def test_render_deterministic():
    report = analyzed_model("two-sing-genus-1")
    assert render_page(report.e2, "text") == render_page(report.e2, "text")
    assert render_page(report.e2, "json-like") == render_page(report.e2, "json-like")


def test_render_unknown_format():
    report = analyzed_model("nodal-rational")
    with pytest.raises(ValueError):
        render_page(report.e1, "html")
