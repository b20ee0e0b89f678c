"""Jet algebras: colengths, normal forms, membership witnesses."""

from fractions import Fraction
from math import comb
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    dense_algebra, dense_normal_form, poly_witness, reshuffled, staircase_colength,
)
from curveinv import jets
from curveinv.errors import NotInIdeal, TruncationCapExceeded
from curveinv.jets import JetAlgebra, build_jet_algebra, default_truncation
from curveinv.linalg import Echelon, integer_row
from curveinv.poly import Poly, grlex_key, parse_poly

UV = ("u", "v")
XYZ = ("x", "y", "z")


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


def test_jet_space_cap_is_inclusive(monkeypatch):
    # order 4 in two variables: comb(6, 2) = 15 monomials
    monkeypatch.setattr(jets, "JET_SPACE_CAP", 15)
    assert JetAlgebra(jacobian("u^2+v^3"), 4).colength() == 2
    with pytest.raises(TruncationCapExceeded, match="21 monomials at truncation order"):
        JetAlgebra(jacobian("u^2+v^3"), 5)


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
    coords = dense_normal_form(J, P("v + u^2*v^5"))
    assert coords == [Fraction(0), Fraction(1)]
    assert dense_normal_form(J, Poly(UV, {})) == [0, 0]
    for g in J.generators:
        assert dense_normal_form(J, g) == [0, 0]
    # the i-th standard monomial reduces to e_i, keyed by its position in
    # the basis, where it is not its jet key
    J = JetAlgebra(jacobian("u^3+v^5"), 10, tagged=False)
    assert list(J.basis_keys) != list(range(J.colength()))
    for i, mono in enumerate(J.basis):
        assert J.normal_form({mono: 1}, 1) == {i: 1}


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
    nf_p = dense_normal_form(J, p)
    nf_q = dense_normal_form(J, q)
    combo = dense_normal_form(J, p * Poly.const(UV, a) + q * Poly.const(UV, b))
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


# -- keys by index arithmetic -----------------------------------------------

@st.composite
def supports(draw):
    """A number of variables 1..4, a top degree and a few distinct
    monomials of degree <= top, in graded-lex order."""
    nvars = draw(st.integers(1, 4))
    top = draw(st.integers(0, (12, 9, 6, 5)[nvars - 1]))
    exponents = st.tuples(*[st.integers(0, top)] * nvars)
    monos = draw(st.lists(exponents.filter(lambda m: sum(m) <= top),
                          min_size=1, max_size=4, unique=True))
    return nvars, top, sorted(monos, key=grlex_key)


@settings(max_examples=80)
@given(supports())
def test_multiple_keys_match_the_monomial_index(case):
    """Each key computed from the times-x_i tables is the index's key of
    the product m + mult, for every multiplier mult in graded-lex order and
    every m of the support with degree <= top - |mult|."""
    nvars, top, support = case
    monos, index = jets._jet_monomials(nvars, top)
    degrees = [sum(m) for m in support]
    blocks = jets._multiple_keys(nvars, [index[m] for m in support], degrees, top)
    rows = [row for block in blocks for row in block]
    assert len(rows) == comb(nvars + top - degrees[0], nvars)
    for mult, row in zip(monos, rows):
        assert row == [
            index[tuple(map(add, m, mult))]
            for m in support if sum(m) + sum(mult) <= top
        ]


@pytest.mark.parametrize("a,b,c", [(1, 1, 1), (2, 3, 2), (1, 4, 2)])
def test_three_variable_monomial_ideal_matches_gauss_jordan(a, b, c):
    gens = [parse_poly(src, XYZ) for src in (f"x^{a}", f"y^{b}", f"z^{c}")]
    T = default_truncation(gens)
    J = JetAlgebra(gens, T)
    assert J.colength() == a * b * c == staircase_colength(gens)
    assert list(J.basis) == dense_algebra(gens, T)


@pytest.mark.parametrize("bump", [0, 1])
def test_three_variable_jacobian_matches_gauss_jordan(bump):
    """The Jacobian of x^3 + y^3 + z^3 + 1/2*x*y*z, a homogeneous isolated
    singularity with mu = 2^3, at its Macaulay order and one above; its
    tagged witnesses decode to cofactors in three variables."""
    f = parse_poly("x^3+y^3+z^3+1/2*x*y*z", XYZ)
    gens = [f.diff(x) for x in XYZ]
    T = default_truncation(gens) + bump
    J = JetAlgebra(gens, T)
    assert J.colength() == 8
    assert list(J.basis) == dense_algebra(gens, T)
    target = parse_poly("x*y", XYZ) * gens[0] - parse_poly("z^2", XYZ) * gens[2]
    cofactors = poly_witness(J, target, T)
    defect = target - sum((c * g for c, g in zip(cofactors, gens)), Poly(XYZ, {}))
    assert defect.is_zero() or defect.order() > T


# -- membership witnesses ---------------------------------------------------

def test_witness_node():
    J = JetAlgebra([P("v"), P("u")], 8)
    alpha, beta = poly_witness(J, P("u*v"), 4)
    assert alpha * P("v") + beta * P("u") == P("u*v")


def test_witness_cusp_euler():
    J = JetAlgebra([P("2*u"), P("3*v^2")], 10)
    cofactors = poly_witness(J, P("u^2+v^3"), 6)
    assert cofactors == (P("1/2*u"), P("1/3*v"))


def test_witness_e8_high_order():
    f = P("u^3+v^5")
    J = JetAlgebra(jacobian("u^3+v^5"), 18)
    target = f * P("v^3")
    alpha, beta = poly_witness(J, target, 12)
    defect = target - alpha * f.diff("u") - beta * f.diff("v")
    assert defect.is_zero() or defect.order() > 12


def test_integer_witness_returns_its_defect_beyond_T():
    """Past T the defect need not cancel: integer_witness returns it, times
    L * s, up to the requested order, and membership_with_witness raises
    its order past that order."""
    f = P("u^3+v^5+1/2*u^2*v^2")
    J = JetAlgebra(jacobian("u^3+v^5+1/2*u^2*v^2"), 9)
    target = f * P("v^3")
    ints, d = integer_row(target.terms)

    def defect(cofactors, s):
        alpha, beta = (Poly(UV, {m: Fraction(c, s) for m, c in C.items()})
                       for C in cofactors)
        defect = target - alpha * f.diff("u") - beta * f.diff("v")
        return Poly(UV, {m: c for m, c in defect.terms.items() if sum(m) <= 16})

    cofactors, s, beyond = J.integer_witness(ints, d, 16)
    assert beyond and min(sum(m) for m in beyond) > 9
    assert Poly(UV, beyond) == defect(cofactors, s) * Poly.const(UV, J._generator_lcm * s)
    assert defect(*J.membership_with_witness(ints, d, 16)).is_zero()


def test_one_algebra_lifts_to_several_orders_in_turn():
    """The witnesses of the x^b are cached by (b, order): a later, higher
    order must not reuse defects truncated for an earlier one.  At T = 10
    the x^b defects read for order 16 are cut at degree 10, below all
    their terms, and order 19 needs them up to degree 13."""
    f = P("u^3+v^5+1/2*u^2*v^2")
    J = JetAlgebra(jacobian("u^3+v^5+1/2*u^2*v^2"), 10)
    target = f * P("v^3")
    ints, d = integer_row(target.terms)
    for order in (16, 12, 19):
        cofactors, s = J.membership_with_witness(ints, d, order)
        alpha, beta = (Poly(UV, {m: Fraction(c, s) for m, c in C.items()})
                       for C in cofactors)
        defect = target - alpha * f.diff("u") - beta * f.diff("v")
        assert all(sum(m) > order for m in defect.terms), order


def test_witness_rejects_non_member():
    J = JetAlgebra(jacobian("u^2+v^3"), 8)
    with pytest.raises(NotInIdeal):
        poly_witness(J, P("v"), 4)


def test_witness_at_an_order_far_above_T():
    """An order above T is lifted, not refused: at T = 8 the witness of a
    member with terms of degree 43 and 97 leaves a defect there, and the
    one at order 100, recomputed here in Poly arithmetic, has order > 100;
    v is still no member at that order."""
    f_u, f_v = gens = jacobian("u^2+v^3")
    J = JetAlgebra(gens, 8)
    target = P("u + u^40*v^3 + v^97")
    ints, d = integer_row(target.terms)
    assert J.integer_witness(ints, d, 100)[2]
    cofactors, s = J.membership_with_witness(ints, d, 100)
    alpha, beta = (Poly(UV, {m: Fraction(c, s) for m, c in C.items()})
                   for C in cofactors)
    defect = target - alpha * f_u - beta * f_v
    assert defect.is_zero() or defect.order() > 100
    with pytest.raises(NotInIdeal):
        J.membership_with_witness(*integer_row(P("v").terms), 100)


def test_corrupted_witness_fails_the_defect_check(monkeypatch):
    """The exact defect check can fail: a kernel combination with one
    cofactor coefficient off by one is caught, although the normal form
    (which the corruption does not touch) is zero."""
    reduce = Echelon.reduce

    def corrupted(self, row, d):
        normal, carried, scale = reduce(self, row, d)
        if carried:
            carried[min(carried)] += 1  # the multiple of lowest degree
        return normal, carried, scale

    f = P("u^3+v^5")
    J = JetAlgebra(jacobian("u^3+v^5"), 18)
    target = f * P("v^3")
    poly_witness(J, target, 12)
    monkeypatch.setattr(Echelon, "reduce", corrupted)
    with pytest.raises(NotInIdeal, match="witness defect has order"):
        poly_witness(J, target, 12)


def test_row_seed_changes_nothing_semantically():
    gens = jacobian("u^3+v^5")
    J0 = JetAlgebra(gens, 14)
    J1 = reshuffled(J0, 7)
    assert J0.basis == J1.basis
    assert J0.colength() == J1.colength()
    for src in ("1", "u*v", "v^3 - 2*u*v^2 + 1/3*u^4", "u^3*v^5 + v^7 + u"):
        assert dense_normal_form(J0, P(src)) == dense_normal_form(J1, P(src))


# -- misuse is an internal failure, not bad input ----------------------------

def test_untagged_algebra_gives_no_witness():
    J = JetAlgebra(jacobian("u^2+v^3"), 8, tagged=False)
    with pytest.raises(AssertionError, match="untagged"):
        poly_witness(J, P("u"), 4)


@pytest.mark.parametrize("order", [0, -7])
def test_requested_order_below_one_rejected(order):
    with pytest.raises(ValueError, match="at least 1"):
        JetAlgebra(jacobian("u^2+v^3"), order, tagged=False)


@pytest.mark.parametrize(
    "generators, order, tagged, base_tagged, message",
    [
        (jacobian("u^2+v^3")[::-1], 8, False, False, "not a prefix"),
        (jacobian("u^2+v^3")[:1], 8, False, False, "not a prefix"),
        # the base's rows are its own order's slice, so the orders must match
        (jacobian("u^2+v^3") + [P("u^2+v^3")], 9, False, False,
         "base order 8 is not 9"),
        (jacobian("u^2+v^3") + [P("u^2+v^3")], 8, True, False, "untagged base"),
        # carried keys are numbered for the base's generators
        (jacobian("u^2+v^3") + [P("u^2+v^3")], 8, False, True,
         "tagged base cannot be extended"),
        # the caller hands in the extension rows (plane: the .f columns)
        (jacobian("u^2+v^3") + [P("u^2+v^3")], 8, False, False,
         "inserts the rows it is handed"),
    ],
    ids=["reordered", "shorter", "order-above-base", "tags-from-untagged",
         "extend-tagged", "no-rows-handed"],
)
def test_base_misuse_fails_loudly(generators, order, tagged, base_tagged, message):
    base = JetAlgebra(jacobian("u^2+v^3"), 8, tagged=base_tagged)
    with pytest.raises(AssertionError, match=message):
        JetAlgebra(generators, order, tagged=tagged, base=base)
