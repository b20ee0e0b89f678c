"""Polynomial core: parsing, arithmetic, printing, weights."""

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from curveinv.errors import ParseError, UndeclaredVariable
from curveinv.poly import (
    MAX_NESTING,
    Poly,
    euler_relation_holds,
    parse_branch,
    parse_poly,
    weight_feasibility,
)

UV = ("u", "v")


def P(src):
    return parse_poly(src, UV)


# -- strategies -------------------------------------------------------------

coeffs = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
).filter(lambda c: c != 0)
monomials = st.tuples(st.integers(0, 4), st.integers(0, 4))
polys = st.dictionaries(monomials, coeffs, max_size=5).map(
    lambda terms: Poly(UV, terms)
)


# -- parsing ----------------------------------------------------------------

def test_parse_literal_terms():
    assert P("u^2 + v^3").terms == {(2, 0): 1, (0, 3): 1}
    assert P("u*v").terms == {(1, 1): 1}


def test_parse_rational_coefficient():
    p = P("u^2*v + v^9 - 1/2*u^4")
    assert p.terms == {(2, 1): 1, (0, 9): 1, (4, 0): Fraction(-1, 2)}


def test_parse_unary_minus_and_parens():
    assert P("-u + (v - u)^2").terms == {
        (1, 0): -1, (2, 0): 1, (1, 1): -2, (0, 2): 1,
    }


@pytest.mark.parametrize("depth", [50, MAX_NESTING])
def test_nested_parentheses_parse(depth):
    assert P("(" * depth + "u" + ")" * depth + "^2") == P("u^2")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        P("u^2 +")
    assert err.value.position == 5
    with pytest.raises(UndeclaredVariable):
        P("u + w")
    with pytest.raises(ParseError):
        P("u^(2)")  # exponent must be a bare natural
    with pytest.raises(ParseError):
        P("1/0")
    deep = MAX_NESTING + 1
    with pytest.raises(ParseError, match="nested deeper") as err:
        P("(" * deep + "u" + ")" * deep)
    assert err.value.position == MAX_NESTING


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        P("2u")


@given(polys)
def test_print_parse_round_trip(p):
    assert parse_poly(str(p), UV).terms == p.terms


# -- arithmetic -------------------------------------------------------------

@given(polys, polys, polys)
def test_distributivity(p, q, r):
    assert (p + q) * r == p * r + q * r


@given(polys, polys)
def test_diff_is_derivation(p, q):
    for var in UV:
        assert (p * q).diff(var) == p.diff(var) * q + p * q.diff(var)


@given(polys)
def test_truncate_and_order(p):
    t = Poly(UV, {m: c for m, c in p.terms.items() if sum(m) <= 3})
    assert all(sum(m) <= 3 for m in t.terms)
    assert (p - t).is_zero() or (p - t).order() > 3
    if not p.is_zero():
        assert p.order() == min(sum(m) for m in p.terms)


one_terms = st.integers(1, 3).flatmap(
    lambda n: st.builds(
        lambda mono, c: Poly(("x", "y", "z")[:n], {mono: c}),
        st.tuples(*[st.integers(0, 4)] * n),
        coeffs,
    )
)


@given(one_terms, st.integers(0, 7))
def test_one_term_power_matches_repeated_product(p, n):
    expected = Poly.const(p.vars, 1)
    for _ in range(n):
        expected = expected * p
    result = p ** n
    assert result == expected
    assert all(type(c) is Fraction for c in result.terms.values())


def test_diff_examples():
    assert P("u^2+v^3").diff("u") == P("2*u")
    assert P("u*v").diff("v") == P("u")
    assert P("u^3+u*v^3").diff("u") == P("3*u^2+v^3")


# -- substitution -----------------------------------------------------------

def test_substitute_annihilates_cusp():
    images = dict(zip(UV, parse_branch(["t^3", "t^2"]).images))
    assert P("u^2-v^3").substitute(images).is_zero()


def test_substitute_node_axis():
    images = dict(zip(UV, parse_branch(["t", "0"]).images))
    assert P("u*v").substitute(images).is_zero()


def test_substitute_projection():
    images = dict(zip(UV, parse_branch(["t^2", "t^3"]).images))
    assert P("v").substitute(images) == parse_poly("t^3", ("t",))


def test_pullback_composes_with_one_image_per_variable_in_order():
    b = parse_branch(["t^3", "t^2"])
    assert b.pullback(P("u^2-v^3")).is_zero()
    assert b.pullback(P("v")) == parse_poly("t^2", ("t",))
    with pytest.raises(ValueError, match="^2 images for 3 variables$"):
        b.pullback(parse_poly("x", ("x", "y", "z")))


@given(polys, polys)
def test_substitute_is_ring_homomorphism(p, q):
    images = dict(zip(UV, parse_branch(["t^2+t^3", "t"]).images))
    lhs = (p * q).substitute(images)
    assert lhs == p.substitute(images) * q.substitute(images)


@pytest.mark.parametrize("build", [
    lambda: parse_poly("u^2+u^3", ("u", "u")),
    lambda: parse_poly("v", ("u", "v", "u")),
    lambda: Poly(("u", "u"), {(1, 0): 1}),
    lambda: Poly.const(("u", "u"), 1),
], ids=["parse", "parse-unused-repeat", "init", "const"])
def test_repeated_variable_names_rejected(build):
    with pytest.raises(ValueError, match="repeated variable names"):
        build()


def test_substitute_without_images_rejected():
    with pytest.raises(ValueError):
        Poly((), {(): 3}).substitute({})


# -- weight feasibility -----------------------------------------------------

def test_weight_feasibility_cusp():
    assert weight_feasibility(P("u^2+v^3")) == (Fraction(1, 2), Fraction(1, 3))


def test_weight_feasibility_node_tie_break():
    assert weight_feasibility(P("u*v")) == (Fraction(1, 2), Fraction(1, 2))


def test_weight_feasibility_infeasible():
    assert weight_feasibility(P("u^5+v^5+u^3*v^3")) is None


def test_weight_feasibility_nonpositive_rejected():
    # support (1,0) and (2,0) forces w1 = 1 and w1 = 1/2 at once
    assert weight_feasibility(P("u+u^2")) is None


def euler_identity(p, w1, w2):
    """The Euler relation p = w1*u*p_u + w2*v*p_v in Poly arithmetic: the
    oracle for the term-by-term test of ``euler_relation_holds``."""
    u, v = (Poly.variable(UV, x) for x in UV)
    w1, w2 = Poly.const(UV, w1), Poly.const(UV, w2)
    return u * p.diff("u") * w1 + v * p.diff("v") * w2 == p


@given(polys.filter(lambda p: not p.is_zero()))
def test_returned_weights_satisfy_euler(p):
    result = weight_feasibility(p)
    if result is not None:
        assert euler_identity(p, *result)


# reciprocals put whole supports on the line a*w1 + b*w2 = 1 often
weights = st.one_of(
    st.integers(1, 8).map(lambda k: Fraction(1, k)),
    st.fractions(min_value=-2, max_value=2, max_denominator=8),
)


@given(polys, weights, weights, st.booleans())
@example(P("u^2+v^3"), Fraction(1, 2), Fraction(1, 3), False)
@example(P("u^2+v^3+u*v^2"), Fraction(1, 2), Fraction(1, 3), False)
@example(P("u*v+u^2*v^3"), Fraction(1, 2), Fraction(1, 2), False)
def test_euler_relation_holds_is_the_poly_identity(p, w1, w2, on_line):
    """For any weights, the term-by-term test equals the Euler identity;
    with ``on_line``, p keeps only its terms with a*w1 + b*w2 = 1."""
    if on_line:
        p = Poly(UV, {m: c for m, c in p.terms.items() if m[0] * w1 + m[1] * w2 == 1})
    assert euler_relation_holds(p, w1, w2) == euler_identity(p, w1, w2)


def test_branch_param_validation():
    with pytest.raises(ValueError):
        parse_branch(["1+t", "t"])  # nonzero constant term
    with pytest.raises(ValueError):
        parse_branch(["0", "0"])  # all images zero
