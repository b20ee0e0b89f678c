"""Polynomial core: parsing, arithmetic, printing, weights."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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
    t = p.truncate(3)
    assert all(sum(m) <= 3 for m in t.terms)
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
    images = parse_branch(["t^3", "t^2"]).as_map(UV)
    assert P("u^2-v^3").substitute(images).is_zero()


def test_substitute_node_axis():
    images = parse_branch(["t", "0"]).as_map(UV)
    assert P("u*v").substitute(images).is_zero()


def test_substitute_projection():
    images = parse_branch(["t^2", "t^3"]).as_map(UV)
    assert P("v").substitute(images) == parse_poly("t^3", ("t",))


@given(polys, polys)
def test_substitute_is_ring_homomorphism(p, q):
    images = parse_branch(["t^2+t^3", "t"]).as_map(UV)
    lhs = (p * q).substitute(images)
    assert lhs == p.substitute(images) * q.substitute(images)


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


@given(polys.filter(lambda p: not p.is_zero()))
def test_returned_weights_satisfy_euler(p):
    result = weight_feasibility(p)
    if result is not None:
        assert euler_relation_holds(p, *result)


def test_branch_param_validation():
    with pytest.raises(ValueError):
        parse_branch(["1+t", "t"])  # nonzero constant term
    with pytest.raises(ValueError):
        parse_branch(["0", "0"])  # all images zero
