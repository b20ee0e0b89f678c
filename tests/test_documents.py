"""The degeneration theorem as a property test over generated curve
documents: every germ is planar, so the verdict must be Degenerates
exactly when tau = mu at every singularity.

Each document has a genus from 0 to 3 and one to four Brieskorn-Pham
germs c1*u^a + c2*v^b, some with terms above the Newton boundary.  The
boundary is one segment whose face polynomial has distinct roots, so
the germ is Newton nondegenerate and the terms above it change none of
mu = (a-1)(b-1), r = gcd(a, b) and delta = (mu + r - 1)/2 (Kouchnirenko;
Milnor's formula).  The documents assert these delta and r, which the
engine checks against its own mu.  tau comes from the dense Gauss-Jordan
oracle of ``conftest``, not from ``jets``.
"""

from math import gcd

from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import dense_algebra, germs
from curveinv.report import analyze
from curveinv.schema import build_curve
from curveinv.spectral import Dim, Verdict


def exponents(f):
    """(a, b) of a germ whose pure powers are u^a and v^b."""
    (a,) = (m[0] for m in f.terms if m[1] == 0)
    (b,) = (m[1] for m in f.terms if m[0] == 0)
    return a, b


def dense_tau(f, a, b):
    """The colength of (f, f_u, f_v) at order T = a + b - 1, certified:
    every standard monomial has degree < T, so m^T lies in the ideal and
    the count is exact (see the ``jets`` docstring)."""
    T = a + b - 1
    basis = dense_algebra([f, f.diff("u"), f.diff("v")], T)
    assert max(map(sum, basis)) < T
    return len(basis)


@st.composite
def documents(draw):
    sings = draw(st.lists(germs(families=("bp", "above")), min_size=1, max_size=4))
    doc = {
        "genus": draw(st.integers(0, 3)),
        "label": "generated",
        "singularities": [],
    }
    for i, f in enumerate(sings):
        a, b = exponents(f)
        mu, r = (a - 1) * (b - 1), gcd(a, b)
        doc["singularities"].append({
            "kind": "plane",
            "label": f"p{i}",
            "f": str(f),
            "variables": ["u", "v"],
            "asserted": {"delta": (mu + r - 1) // 2, "r": r},
        })
    return doc, sings


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents())
def test_verdict_pages_and_checks_follow_the_theorem(case):
    doc, sings = case
    report = analyze(build_curve(doc))
    gi = report.invariants
    mus = [(a - 1) * (b - 1) for a, b in map(exponents, sings)]
    taus = [dense_tau(f, *exponents(f)) for f in sings]
    records = report.model.plane_records()
    assert [r.invariants.mu for r in records] == mus
    assert [r.invariants.tau for r in records] == taus
    mu_total, tau_total = sum(mus), sum(taus)
    assert (gi.mu_total, gi.tau_total) == (mu_total, tau_total)
    degenerates = taus == mus
    verdict = report.verdict.verdict
    assert verdict is (Verdict.DEGENERATES if degenerates else Verdict.FAILS_VIA_TAU)
    status = {check.name: check.status for check in report.checks}
    if degenerates:
        for name in ("ledger-equivalence", "betti-degree-1", "betti-degree-2"):
            assert status[name] == "pass", name
    else:
        # the tail map has rank 2*tau - mu at each germ, so each tail pair
        # keeps tau_total - (2*tau_total - mu_total) at both of its ends
        entries = report.e2.entry_map()
        window = report.options.tail_window
        for p in range(1, window + 1):
            for pq in ((p + 1, -p), (p + 2, -p)):
                assert entries[pq] == Dim(mu_total - tau_total), pq
    lo, _ = report.options.hc_window
    for m in range(lo, 1):
        reindexed = tuple(((p - m, q), entry) for (p, q), entry in report.e2.entries)
        assert report.hc.page(m).entries == reindexed, m
