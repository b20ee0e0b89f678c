"""Jet algebras: colengths, normal forms, membership witnesses."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import staircase_colength
from curveinv import jets
from curveinv.errors import NotInIdeal, TruncationCapExceeded
from curveinv.jets import JetAlgebra, build_jet_algebra, default_truncation
from curveinv.poly import Poly, parse_poly

UV = ("u", "v")


def P(src):
    return parse_poly(src, UV)


def jacobian(src):
    f = P(src)
    return [f.diff("u"), f.diff("v")]


# -- colength ---------------------------------------------------------------

def test_maximal_ideal():
    J = JetAlgebra([P("u"), P("v")], 3, tagged=False)
    assert J.basis == ((0, 0),)
    assert J.colength() == 1


def test_monomial_staircase():
    J = JetAlgebra([P("u^2"), P("v^3")], 6, tagged=False)
    assert J.colength() == 6
    assert set(J.basis) == {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)}


def test_cusp_jacobian():
    J = JetAlgebra(jacobian("u^2+v^3"), 6, tagged=False)
    assert J.colength() == 2
    assert set(J.basis) == {(0, 0), (0, 1)}


@pytest.mark.parametrize("n", range(1, 11))
def test_a_series_colength(n):
    J = build_jet_algebra(jacobian(f"u^2+v^{n + 1}"))
    assert J.colength() == n


def test_e7_colength():
    assert JetAlgebra(jacobian("u^3+u*v^3"), 10, tagged=False).colength() == 7


def test_node_tjurina_ideal():
    f = P("u*v")
    J = build_jet_algebra([f, f.diff("u"), f.diff("v")])
    assert J.colength() == 1


def test_not_m_primary_hits_cap(monkeypatch):
    monkeypatch.setattr(jets, "TRUNCATION_CAP", 16)
    with pytest.raises(TruncationCapExceeded):
        build_jet_algebra([P("u")])


def test_default_path_doubles_past_cap_to_degree_floor(monkeypatch):
    # initial forms 2(u+v), 2(u+v) are not a regular sequence: the Macaulay
    # start 1 fails and the default path doubles past a cap of 8 to reach T > 8
    monkeypatch.setattr(jets, "TRUNCATION_CAP", 8)
    J = build_jet_algebra(jacobian("(u+v)^2+v^10"))
    assert J.colength() == 9
    assert J.truncation_order > 8


def test_macaulay_start_certifies_regular_initial_forms():
    # initial forms 3u^2, 5v^4: the start 1 + 1 + 3 certifies with no doubling
    gens = jacobian("u^3+v^5+u^2*v^3")
    assert default_truncation(gens) == 5
    J = build_jet_algebra(gens)
    assert (J.truncation_order, J.colength(), J.primality_bound) == (5, 8, 5)


# -- stabilization ----------------------------------------------------------

@pytest.mark.parametrize("src", ["u^2+v^3", "u^3+v^5", "u^3+u*v^3", "u^5+v^5+u^3*v^3"])
def test_colength_stable_under_truncation_raise(src):
    gens = jacobian(src)
    J = build_jet_algebra(gens)
    T = J.truncation_order
    for bump in (1, 2):
        assert JetAlgebra(gens, T + bump).colength() == J.colength()


# -- normal form ------------------------------------------------------------

def test_normal_form_examples():
    J = JetAlgebra(jacobian("u^2+v^3"), 8, tagged=False)
    # u^2*v^5 is divisible by u, hence in (2u, 3v^2); only v survives
    coords = J.normal_form(P("v + u^2*v^5"))
    assert coords == [Fraction(0), Fraction(1)]
    assert J.normal_form(Poly.zero(UV)) == [0, 0]
    for g in J.generators:
        assert J.normal_form(g) == [0, 0]


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(lambda c: c != 0),
    max_size=4,
).map(lambda terms: Poly(UV, terms))


@settings(max_examples=40)
@given(small_polys, small_polys,
       st.fractions(min_value=-3, max_value=3, max_denominator=4),
       st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_normal_form_linear(p, q, a, b):
    J = JetAlgebra(jacobian("u^3+v^5"), 10, tagged=False)
    nf_p = J.normal_form(p)
    nf_q = J.normal_form(q)
    combo = J.normal_form(p.scale(a) + q.scale(b))
    assert combo == [a * x + b * y for x, y in zip(nf_p, nf_q)]


# -- staircase oracle -------------------------------------------------------

exponent_pairs = st.tuples(st.integers(0, 4), st.integers(0, 4))


@settings(max_examples=30)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.lists(exponent_pairs, max_size=3),
)
def test_monomial_ideal_matches_staircase_count(a, b, extra):
    gens = [P(f"u^{a}"), P(f"v^{b}")] + [
        Poly(UV, {mono: 1}) for mono in extra if mono != (0, 0)
    ]
    J = build_jet_algebra(gens)
    assert J.colength() == staircase_colength(gens)


# -- membership witnesses ---------------------------------------------------

def test_witness_node():
    J = JetAlgebra([P("v"), P("u")], 8)
    alpha, beta = J.membership_with_witness(P("u*v"), 4)
    assert alpha * P("v") + beta * P("u") == P("u*v")


def test_witness_cusp_euler():
    J = JetAlgebra([P("2*u"), P("3*v^2")], 10)
    cofactors = J.membership_with_witness(P("u^2+v^3"), 6)
    assert cofactors == (P("1/2*u"), P("1/3*v"))


def test_witness_e8_high_order():
    f = P("u^3+v^5")
    J = JetAlgebra(jacobian("u^3+v^5"), 18)
    target = f * P("v^3")
    alpha, beta = J.membership_with_witness(target, 12)
    defect = target - alpha * f.diff("u") - beta * f.diff("v")
    assert defect.is_zero() or defect.order() > 12


def test_witness_rejects_non_member():
    J = JetAlgebra(jacobian("u^2+v^3"), 8)
    with pytest.raises(NotInIdeal):
        J.membership_with_witness(P("v"), 4)


def test_witness_order_out_of_certified_range():
    J = JetAlgebra(jacobian("u^2+v^3"), 8)
    with pytest.raises(ValueError):
        J.membership_with_witness(P("u"), 100)


def test_row_seed_changes_nothing_semantically():
    gens = jacobian("u^3+v^5")
    J0 = JetAlgebra(gens, 14)
    J1 = JetAlgebra(gens, 14, row_seed=7)
    assert J0.basis == J1.basis
    assert J0.colength() == J1.colength()
    for src in ("1", "u*v", "v^3 - 2*u*v^2 + 1/3*u^4", "u^3*v^5 + v^7 + u"):
        assert J0.normal_form(P(src)) == J1.normal_form(P(src))


# -- misuse is an internal failure, not bad input ----------------------------

def test_untagged_algebra_gives_no_witness():
    J = JetAlgebra(jacobian("u^2+v^3"), 8, tagged=False)
    with pytest.raises(AssertionError, match="untagged"):
        J.membership_with_witness(P("u"), 4)


@pytest.mark.parametrize("order", [0, -7])
def test_requested_order_below_one_rejected(order):
    with pytest.raises(ValueError, match="at least 1"):
        JetAlgebra(jacobian("u^2+v^3"), order, tagged=False)


@pytest.mark.parametrize(
    "generators, order, tagged, message",
    [
        (jacobian("u^2+v^3")[::-1], 6, None, "not a prefix"),
        (jacobian("u^2+v^3")[:1], 6, None, "not a prefix"),
        (jacobian("u^2+v^3"), 9, None, "below 9"),
        (jacobian("u^2+v^3"), 6, True, "untagged base"),
    ],
    ids=["reordered", "shorter", "order-above-base", "tags-from-untagged"],
)
def test_base_misuse_fails_loudly(generators, order, tagged, message):
    base = JetAlgebra(jacobian("u^2+v^3"), 8, tagged=False)
    with pytest.raises(AssertionError, match=message):
        JetAlgebra(generators, order, tagged=tagged, base=base)
