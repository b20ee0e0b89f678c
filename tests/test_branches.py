"""Branch geometry: semigroups, conductors, delta, Milnor's formula."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from curveinv.branches import (
    WORKING_ORDER_CAP,
    branch_semigroup,
    delta_one_branch,
    delta_report,
    intersection_multiplicity,
)
from curveinv.errors import (
    DegenerateBranch,
    MilnorMismatch,
    MissingBranchEquation,
    NoConductor,
    NotTransverseAtOrder,
    SchemaError,
)
from curveinv.plane import PlaneAnalysis, PlaneSingularity
from curveinv.poly import BranchParam, DeltaR, Poly, parse_branch, parse_poly

UV = ("u", "v")


def P(src):
    return parse_poly(src, UV)


def sing(src, branch_specs):
    branches = tuple(
        BranchParam(parse_branch(images).images, P(eq) if eq else None)
        for images, eq in branch_specs
    )
    return PlaneSingularity(P(src), branches=branches)


# -- semigroups -------------------------------------------------------------

def test_cusp_semigroup():
    values = branch_semigroup(parse_branch(["t^2", "t^3"]), 12)
    assert values == set(range(13)) - {1}


def test_smooth_branch_semigroup():
    values = branch_semigroup(parse_branch(["t", "0"]), 8)
    assert values == set(range(9))


def test_e8_branch_semigroup_gaps():
    values = branch_semigroup(parse_branch(["t^3", "t^5"]), 20)
    assert sorted(set(range(21)) - values) == [1, 2, 4, 7]


def test_semigroup_closed_under_addition():
    values = branch_semigroup(parse_branch(["t^4", "t^6+t^7"]), 30)
    for a in values:
        for b in values:
            if a + b <= 30:
                assert a + b in values


def test_rational_images_match_images_scaled_to_integers():
    # 15 times the second image: same subalgebra, so same semigroup and delta
    rational = parse_branch(["t^4", "1/3*t^6+2/5*t^7"])
    scaled = parse_branch(["t^4", "5*t^6+6*t^7"])
    for order in (12, 29, 64):
        assert branch_semigroup(rational, order) == branch_semigroup(scaled, order)
    assert sorted(set(range(30)) - branch_semigroup(rational, 29)) == [
        1, 2, 3, 5, 7, 9, 11, 15
    ]
    assert delta_one_branch(rational, WORKING_ORDER_CAP) == 8
    assert delta_one_branch(scaled, WORKING_ORDER_CAP) == 8


def test_delta_one_branch_values():
    assert delta_one_branch(parse_branch(["t^2", "t^3"]), 16) == 1
    assert delta_one_branch(parse_branch(["t", "0"]), 8) == 0
    assert delta_one_branch(parse_branch(["t^3", "t^5"]), 24) == 4


def test_delta_stable_under_order_raise():
    b = parse_branch(["t^3", "t^5"])
    assert delta_one_branch(b, 24) == delta_one_branch(b, 28)


def test_degenerate_branch_raises():
    with pytest.raises(DegenerateBranch):
        branch_semigroup(parse_branch(["t^9", "0"]), 8)


# -- semigroup oracles --------------------------------------------------------

def numerical_semigroup(gens, order):
    """<gens> intersected with [0, order], by an integer DP."""
    member = [True] + [False] * order
    for n in range(1, order + 1):
        member[n] = any(g <= n and member[n - g] for g in gens)
    return {n for n in range(order + 1) if member[n]}


def enumerated_orders(images, order):
    """Brute-force reference: reduce every truncated monomial product.

    Walks the exponent tuples (a_1..a_e) with sum(a_i * ord_i) <= order,
    forms the truncated products prod(img_i ** a_i) and echelon-reduces
    them by lowest t-order; the pivots are the attained t-orders.
    """
    live = [img for img in images if not img.is_zero()]
    rows = {}

    def insert(prod):
        terms = {m[0]: c for m, c in prod.terms.items()}
        while terms:
            pivot = min(terms)
            if pivot not in rows:
                rows[pivot] = {k: c / terms[pivot] for k, c in terms.items()}
                return
            factor = terms[pivot]
            for k, c in rows[pivot].items():
                terms[k] = terms.get(k, 0) - factor * c
                if terms[k] == 0:
                    del terms[k]

    def walk(i, prod, budget):
        if i == len(live):
            insert(prod)
            return
        while budget >= 0:
            walk(i + 1, prod, budget)
            budget -= live[i].order()
            prod = prod * live[i]
            prod = Poly(("t",), {m: c for m, c in prod.terms.items() if m[0] <= order})

    walk(0, Poly.const(("t",), 1), order)
    return set(rows)


def monomial_branch(gens):
    return parse_branch([f"t^{g}" for g in gens])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 15), min_size=1, max_size=5), st.integers(0, 80))
def test_monomial_semigroup_matches_numerical_semigroup(gens, order):
    if min(gens) > order:
        return
    assert branch_semigroup(monomial_branch(gens), order) == numerical_semigroup(gens, order)


series = st.dictionaries(
    st.integers(4, 12),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
    min_size=1,
    max_size=4,
).map(lambda terms: Poly(("t",), {(k,): c for k, c in terms.items()}))


@settings(max_examples=60, deadline=None)
@given(st.lists(series, min_size=2, max_size=4), st.integers(1, 40))
def test_semigroup_matches_enumerated_products(images, order):
    b = BranchParam(tuple(images))
    if all(img.order() > order for img in images):
        return
    assert branch_semigroup(b, order) == enumerated_orders(b.images, order)


def gaps_below_conductor(values, order):
    """Gap count below the first run of s_min values in [0, order], or None."""
    nonzero = sorted(v for v in values if v)
    if not nonzero:
        return None
    s_min = nonzero[0]
    for c in range(order - s_min + 2):
        if all(c + i in values for i in range(s_min)):
            return sum(1 for n in range(c) if n not in values)
    return None


def semigroup_delta(gens):
    """The gap count of <gens>, gcd 1, from the integer oracles: its
    Frobenius number lies below min(gens) * max(gens)."""
    order = 2 * min(gens) * max(gens)
    delta = gaps_below_conductor(numerical_semigroup(gens, order), order)
    assert delta is not None
    return delta


def delta_or_none(b, order):
    try:
        return delta_one_branch(b, order)
    except NoConductor:
        return None


@settings(max_examples=80, deadline=None)
@given(st.lists(series, min_size=2, max_size=4), st.integers(1, 80))
def test_early_stop_matches_exhaustive_semigroup(images, order):
    b = BranchParam(tuple(images))
    if all(img.order() > order for img in images):
        return
    values = branch_semigroup(b, order)
    assert delta_or_none(b, order) == gaps_below_conductor(values, order)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 15), min_size=1, max_size=5), st.integers(0, 80))
def test_early_stop_matches_numerical_semigroup(gens, order):
    if min(gens) > order:
        return
    values = numerical_semigroup(gens, order)
    assert delta_or_none(monomial_branch(gens), order) == gaps_below_conductor(
        values, order
    )


@pytest.mark.parametrize(
    "gens, delta",
    [((16, 24, 36, 54, 81), 90), ((32, 48, 72, 108, 162, 243), 301)],
)
def test_high_embedding_dimension_chains(gens, delta):
    b = monomial_branch(gens)
    assert delta_one_branch(b, WORKING_ORDER_CAP) == delta
    gaps = set(range(2000)) - numerical_semigroup(gens, 1999)
    assert len(gaps) == delta


def test_one_doubling_recovers_conductor():
    # <10, 11> has conductor 90, above 8 * 11 = 88: an order below the
    # conductor finds none, and the one working order finds it.
    b = monomial_branch((10, 11))
    with pytest.raises(NoConductor):
        delta_one_branch(b, 88)
    assert delta_one_branch(b, WORKING_ORDER_CAP) == 45


def test_no_conductor_stops_at_working_order_cap():
    # Every exponent is even, so the semigroup has no conductor at any order.
    with pytest.raises(NoConductor, match="up to 4096"):
        delta_one_branch(monomial_branch((8, 12, 18)), WORKING_ORDER_CAP)


def test_high_degree_branch_stops_at_working_order_cap():
    # <1000, 1001> has conductor 999000: the branch saturates to 4096 only.
    s = sing("u^1001-v^1000", [(["t^1000", "t^1001"], None)])
    with pytest.raises(NoConductor, match="up to 4096"):
        delta_report(s, 999000)


# -- intersection multiplicities -------------------------------------------

def test_intersection_examples():
    assert intersection_multiplicity(P("v"), parse_branch(["t", "t^2"])) == 2
    assert intersection_multiplicity(P("u-v"), parse_branch(["t", "t^3"])) == 1


def test_intersection_error_when_branch_lies_on_curve():
    with pytest.raises(NotTransverseAtOrder):
        intersection_multiplicity(P("u"), parse_branch(["0", "t"]))


# -- delta reports ----------------------------------------------------------

def _report(src, branch_specs):
    s = sing(src, branch_specs)
    mu = PlaneAnalysis(s).invariants.mu
    return delta_report(s, mu)


def test_node_report():
    rep = _report("u*v", [(["t", "0"], "v"), (["0", "t"], "u")])
    assert (rep.delta, rep.r) == (1, 2)
    assert delta_one_branch(parse_branch(["t", "0"]), WORKING_ORDER_CAP) == 0
    assert delta_one_branch(parse_branch(["0", "t"]), WORKING_ORDER_CAP) == 0
    assert intersection_multiplicity(P("v"), parse_branch(["0", "t"])) == 1


def test_cusp_report():
    rep = _report("u^2-v^3", [(["t^3", "t^2"], None)])
    assert (rep.delta, rep.r) == (1, 1)


def test_tacnode_report():
    rep = _report(
        "u^2-v^4",
        [(["t^2", "t"], "u-v^2"), (["-1*t^2", "t"], "u+v^2")],
    )
    assert (rep.delta, rep.r) == (2, 2)
    assert intersection_multiplicity(P("u-v^2"), parse_branch(["-1*t^2", "t"])) == 2


def test_e8_report():
    rep = _report("u^3-v^5", [(["t^5", "t^3"], None)])
    assert (rep.delta, rep.r) == (4, 1)


def test_milnor_formula_on_all_reports():
    cases = [
        ("u*v", [(["t", "0"], "v"), (["0", "t"], "u")]),
        ("u^2-v^3", [(["t^3", "t^2"], None)]),
        ("u^2-v^5", [(["t^5", "t^2"], None)]),
        ("u^3-v^5", [(["t^5", "t^3"], None)]),
    ]
    for src, specs in cases:
        s = sing(src, specs)
        mu = PlaneAnalysis(s).invariants.mu
        rep = delta_report(s, mu)
        assert mu == 2 * rep.delta - rep.r + 1


smooth_branches = st.lists(
    st.tuples(st.integers(-3, 3).filter(bool), st.integers(1, 4)),
    min_size=2,
    max_size=3,
    unique=True,
)


@settings(max_examples=30, deadline=None)
@given(smooth_branches)
def test_milnor_formula_on_generated_smooth_branches(curves):
    """f = prod(u - c_i*v^k_i), one smooth branch (c_i*t^k_i, t) per factor."""
    u, v = Poly.variable(UV, "u"), Poly.variable(UV, "v")
    equations = [u - v ** k * Poly.const(UV, c) for c, k in curves]
    f = equations[0]
    for eq in equations[1:]:
        f = f * eq
    branches = tuple(
        BranchParam(parse_branch([f"{c}*t^{k}", "t"]).images, eq)
        for (c, k), eq in zip(curves, equations)
    )
    s = PlaneSingularity(f, branches=branches)
    # Smooth branches have delta 0.  c_i*t^k_i - c_j*t^k_j keeps its
    # lower power when k_i != k_j, and (c_i - c_j)*t^k, nonzero since the
    # pairs differ, when k_i = k_j: the contact order is min(k_i, k_j).
    delta = sum(
        min(ki, kj)
        for i, (_, ki) in enumerate(curves)
        for _, kj in curves[i + 1 :]
    )
    mu = PlaneAnalysis(s).invariants.mu
    assert delta_report(s, mu) == DeltaR(delta, len(curves), "computed")


def test_wrong_branch_rejected():
    cases = [
        ("u^2-v^3", [(["t^2", "t^3"], None)], 2),  # images swapped
        # (0, t) pulls back to t^20 and (t^3, t^2) to t^26: both above
        # eight times the branch's top degree.
        ("u*v+v^20", [(["t", "0"], "v"), (["0", "t"], "u")], 1),
        ("u^2-v^3+v^13", [(["t^3", "t^2"], None)], 2),
    ]
    for src, specs, mu in cases:
        with pytest.raises(SchemaError):
            delta_report(sing(src, specs), mu)


def test_bad_mu_raises_mismatch():
    s = sing("u^2-v^3", [(["t^3", "t^2"], None)])
    with pytest.raises(MilnorMismatch):
        delta_report(s, 5)


def test_missing_equation_for_pairwise():
    s = sing("u*v", [(["t", "0"], None), (["0", "t"], None)])
    with pytest.raises(MissingBranchEquation):
        delta_report(s, 1)
