"""The degeneration theorem as a property test over generated curve
documents: the verdict must be Degenerates exactly when every germ is
planar and tau = mu at each.

Each document has a genus from 0 to 3 and one to four singularities of
three kinds:

* Brieskorn-Pham germs c1*u^a + c2*v^b, some with terms above the Newton
  boundary.  The boundary is one segment whose face polynomial has
  distinct roots, so the germ is Newton nondegenerate and the terms above
  it change none of mu = (a-1)(b-1), r = gcd(a, b) and
  delta = (mu + r - 1)/2 (Kouchnirenko; Milnor's formula).  tau comes
  from the dense Gauss-Jordan oracle of ``conftest``, not from ``jets``.
* The quasihomogeneous D_k = u^2*v + v^(k-1), k = 4..8, with mu = tau = k
  and r = 3 for even k, 2 for odd k, and E7 = u^3 + u*v^3, with
  mu = tau = 7 and r = 2; delta = (mu + r - 1)/2 again.
* e = 3 lci chains (y^a - x^b, z^c - y^d), with a, b, c, d >= 2,
  gcd(a, b) = 1 and gcd(ac, bc, bd) = 1, the one branch
  (t^(ac), t^(bc), t^(bd)), and e = 4 chains (y^a - x^b, z^c - y^d,
  w^e - z^f), exponents 2..4, each pair and the generators coprime, the one
  branch (t^(ace), t^(bce), t^(bde), t^(bdf)): non-planar, with delta the
  gap count of the branch's semigroup from the integer oracles of
  ``test_branches``.

The documents assert the plane germs' delta and r, which the engine checks
against its own mu.
"""

import json
from math import gcd

from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import dense_algebra, germs, monomial_chain, monomial_chains
from curveinv.report import analyze, to_json, to_text
from curveinv.schema import build_curve
from curveinv.spectral import Dim, Verdict
from test_branches import semigroup_delta
from test_report import page_oracle
from test_spectral import dense_render_text


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


def plane(f, mu, tau, r):
    """A plane germ's document entry, with its mu, tau and delta."""
    delta = (mu + r - 1) // 2
    entry = {
        "kind": "plane",
        "f": str(f),
        "variables": ["u", "v"],
        "asserted": {"delta": delta, "r": r},
    }
    return entry, mu, tau, delta


def brieskorn_pham(f):
    a, b = exponents(f)
    return plane(f, (a - 1) * (b - 1), dense_tau(f, a, b), gcd(a, b))


def chain(pairs):
    """An lci chain's document entry, with no mu or tau, and its delta."""
    variables, equations, gens = monomial_chain(pairs)
    entry = {
        "kind": "lci",
        "variables": list(variables),
        "equations": equations,
        "parametrization": [f"t^{g}" for g in gens],
    }
    return entry, None, None, semigroup_delta(gens)


# D_4..D_8 and E7
QUASIHOMOGENEOUS = [
    plane(f"u^2*v+v^{k - 1}", k, k, 3 if k % 2 == 0 else 2) for k in range(4, 9)
] + [plane("u^3+u*v^3", 7, 7, 2)]

E3_CHAINS = monomial_chains((range(2, 6), range(2, 6)), (range(2, 5), range(2, 6)))
E4_CHAINS = monomial_chains(*[(range(2, 5), range(2, 5))] * 3)
CHAINS = [chain(pairs) for pairs in E3_CHAINS + E4_CHAINS]

singularities = st.one_of(
    germs(families=("bp", "above")).map(brieskorn_pham),
    st.sampled_from(QUASIHOMOGENEOUS),
    st.sampled_from(CHAINS),
)


@st.composite
def documents(draw):
    sings = draw(st.lists(singularities, min_size=1, max_size=4))
    doc = {
        "genus": draw(st.integers(0, 3)),
        "label": "generated",
        "singularities": [
            {**entry, "label": f"s{i}"} for i, (entry, *_) in enumerate(sings)
        ],
    }
    return doc, sings


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents())
def test_verdict_pages_and_checks_follow_the_theorem(case):
    doc, sings = case
    report = analyze(build_curve(doc))
    gi = report.invariants
    mus = [mu for _, mu, _, _ in sings if mu is not None]
    taus = [tau for _, _, tau, _ in sings if tau is not None]
    records = report.model.plane_records()
    assert [r.invariants.mu for r in records] == mus
    assert [r.invariants.tau for r in records] == taus
    mu_total, tau_total = sum(mus), sum(taus)
    assert (gi.mu_total, gi.tau_total) == (mu_total, tau_total)
    assert gi.delta_total == sum(delta for *_, delta in sings)
    nonplanar = len(mus) < len(sings)
    degenerates = not nonplanar and taus == mus
    verdict = report.verdict.verdict
    if nonplanar:
        assert verdict is Verdict.FAILS_VIA_NONPLANAR
        # each non-planar germ, in e variables, leaves its ">=1" obstruction
        # entry at (e + 1, -1)
        for entry, mu, *_ in sings:
            if mu is None:
                e = len(entry["variables"])
                for page in (report.e1, report.e2):
                    assert page.entry_map()[(e + 1, -1)] == Dim(positive=True)
    else:
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
    assert json.loads(to_json(report))["pages"] == {
        "e1": page_oracle(report.e1),
        "e2": page_oracle(report.e2),
        "hc": {str(m): page_oracle(page) for m, page in report.hc.per_m},
    }
    pages = [report.e1, report.e2] + [page for _, page in report.hc.per_m]
    assert to_text(report).endswith("\n\n" + "\n\n".join(map(dense_render_text, pages)))
