"""The sparse echelon kernel, and the dense rref/rank and the column kernel
built on it, against a Gauss-Jordan oracle."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from conftest import gauss_jordan, oracle_nullspace
from curveinv.jets import JetAlgebra, build_jet_algebra
from curveinv.linalg import Echelon, column_nullspace, integer_row, rank, rref
from curveinv.poly import Poly, parse_poly


def sparse(vec):
    return {j: x for j, x in enumerate(vec) if x}


def dense(terms, ncols):
    return [terms.get(j, Fraction(0)) for j in range(ncols)]


def sparse_columns(rows, ncols):
    """The columns of a matrix with ``ncols`` columns, given by its rows, as
    sparse maps."""
    return [sparse([row[j] for row in rows]) for j in range(ncols)]


def split(row, bound):
    """The part of a stored row below the carry bound, and its carried part
    with keys counted from the bound."""
    below = {k: c for k, c in row.items() if k < bound}
    return below, {k - bound: c for k, c in row.items() if k >= bound}


# Entries are mostly 0 and small, so rank deficiency is common.
entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)


@st.composite
def matrices(draw, min_rows=0):
    """Small rational matrices, with zero and duplicate rows mixed in."""
    ncols = draw(st.integers(1, 5))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=min_rows, max_size=5))
    if draw(st.booleans()):
        rows.append([Fraction(0)] * ncols)
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if draw(st.integers(0, 9)) == 0:
        rows = [[Fraction(0)] * ncols for _ in rows]
    return draw(st.permutations(rows)), ncols


@settings(max_examples=200)
@given(matrices())
def test_rref_rank_nullspace_match_gauss_jordan(case):
    rows, ncols = case
    red, pivots = rref(rows)
    assert (red, pivots) == gauss_jordan(rows)
    assert all(isinstance(x, Fraction) for row in red for x in row)
    assert rank(rows) == len(pivots)
    basis = column_nullspace(sparse_columns(rows, ncols), len(rows))
    assert basis == oracle_nullspace(rows, ncols)
    assert all(isinstance(x, Fraction) for vec in basis for x in vec)


@settings(max_examples=200)
@given(matrices())
def test_nullspace_is_annihilated(case):
    rows, ncols = case
    basis = column_nullspace(sparse_columns(rows, ncols), len(rows))
    assert len(basis) == ncols - rank(rows)
    for vec in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


@settings(max_examples=200)
@given(matrices(min_rows=1), st.data())
def test_normal_form_independent_of_insertion_order(case, data):
    rows, ncols = case
    shuffled = data.draw(st.permutations(rows))
    vec = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
    first, second = Echelon(), Echelon()
    for row in rows:
        first.insert(integer_row(sparse(row))[0])
    for row in shuffled:
        second.insert(integer_row(sparse(row))[0])
    assert set(first.rows) == set(second.rows)
    normal, carried, _ = first.reduce(*integer_row(sparse(vec)))
    assert carried == {}
    assert normal == second.reduce(*integer_row(sparse(vec)))[0]
    assert not set(normal) & set(first.rows)


@settings(max_examples=200)
@given(matrices(min_rows=1), st.data())
def test_tags_record_the_combination_of_inserted_rows(case, data):
    rows, ncols = case
    vec = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
    echelon = Echelon(carry=ncols)
    for i, row in enumerate(rows):
        # d * row carries d at key ncols + i, so carried parts combine the
        # rows themselves
        ints, d = integer_row(sparse(row))
        new = echelon.insert({**ints, ncols + i: d})
        if new is not None:
            # a new row is its carried part's combination of the inserted rows
            below, carried = split(new, ncols)
            combined = [Fraction(0)] * ncols
            for k, c in carried.items():
                combined = [a + c * b for a, b in zip(combined, rows[k])]
            assert sparse(combined) == below
    normal, carried, scale = echelon.reduce(*integer_row(sparse(vec)))
    combined = [Fraction(0)] * ncols
    for k, c in carried.items():
        combined = [a - Fraction(c, scale) * b for a, b in zip(combined, rows[k - ncols])]
    assert [a - b for a, b in zip(vec, dense(normal, ncols))] == combined


def test_insert_normalizes_and_rejects_dependent_rows():
    echelon = Echelon()
    def insert(vec):
        return echelon.insert(integer_row(vec)[0])

    assert insert({2: Fraction(3), 4: Fraction(6)}) == {2: 1, 4: 2}
    assert insert({2: Fraction(-1), 4: Fraction(-2)}) is None
    assert insert({}) is None
    assert insert({1: Fraction(2), 2: Fraction(2)}) == {1: 1, 2: 1}
    assert len(echelon) == 2 and set(echelon.rows) == {1, 2}
    # 2 and 1 are pivots; 4 is not, and carries the whole normal form
    assert echelon.reduce(*integer_row({1: Fraction(1)})) == ({4: Fraction(2)}, {}, 1)


def test_zero_matrix():
    zero = [[Fraction(0)] * 3 for _ in range(2)]
    identity = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert rref(zero) == (zero, [])
    assert column_nullspace(sparse_columns(zero, 3), 2) == identity
    assert rref([]) == ([], [])
    # no columns (mu = 0 at a smooth point); three columns of length 0
    assert column_nullspace([], 0) == []
    assert column_nullspace([{}, {}, {}], 0) == identity


# -- the integer kernel -------------------------------------------------------

@settings(max_examples=200)
@given(
    st.dictionaries(
        st.integers(0, 20),
        st.one_of(st.integers(-(2**64), 2**64), st.fractions(max_denominator=10**6)),
        max_size=6,
    )
)
def test_integer_row_clears_denominators_once(vec):
    ints, d = integer_row(vec)
    assert d == lcm(*(Fraction(c).denominator for c in vec.values()))
    assert set(ints) == set(vec)
    for k, c in ints.items():
        assert type(c) is int and c == d * vec[k]


# Large heights: numerators up to 2^64, denominators up to 10^6.
big = st.builds(
    Fraction, st.integers(-(2**64), 2**64), st.integers(1, 10**6)
)
big_nonzero = big.filter(bool)


@st.composite
def tall_matrices(draw):
    """Matrices of large-height rationals; each row is a big common content
    times a row of big entries, and one row may be a big combination of
    two others."""
    ncols = draw(st.integers(1, 5))
    row = st.lists(st.one_of(st.just(Fraction(0)), big), min_size=ncols, max_size=ncols)
    rows = [
        [content * x for x in draw(row)]
        for content in draw(st.lists(big_nonzero, min_size=1, max_size=5))
    ]
    if len(rows) >= 2 and draw(st.booleans()):
        a, b = draw(big), draw(big)
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[1])])
    return draw(st.permutations(rows)), ncols


def combination(coeffs, rows, ncols):
    """sum(coeffs[k] * rows[k]) as a dense vector."""
    out = [Fraction(0)] * ncols
    for k, c in coeffs.items():
        out = [a + c * b for a, b in zip(out, rows[k])]
    return out


@settings(max_examples=100, deadline=None)
@given(tall_matrices(), st.data())
def test_large_height_rationals_match_gauss_jordan(case, data):
    rows, ncols = case
    red, pivots = gauss_jordan(rows)
    assert rref(rows) == (red, pivots)
    assert rank(rows) == len(pivots)
    basis = column_nullspace(sparse_columns(rows, ncols), len(rows))
    assert basis == oracle_nullspace(rows, ncols)
    echelon = Echelon(carry=ncols)
    for i, row in enumerate(rows):
        ints, d = integer_row(sparse(row))
        new = echelon.insert({**ints, ncols + i: d})
        if new is not None:
            below, carried = split(new, ncols)
            assert sparse(combination(carried, rows, ncols)) == below
    vec = data.draw(st.lists(big, min_size=ncols, max_size=ncols))
    ints, d = integer_row(sparse(vec))
    normal, carried, scale = echelon.reduce(ints, d)
    _, combo = split({k: -c for k, c in carried.items()}, ncols)
    # the oracle normal form subtracts vec[p] times RREF row p at each pivot
    expected = list(vec)
    for r, p in enumerate(pivots):
        expected = [a - vec[p] * b for a, b in zip(expected, red[r])]
    assert dense(normal, ncols) == expected
    assert scale % d == 0
    assert [a - b for a, b in zip(vec, expected)] == combination(
        {k: Fraction(c, scale) for k, c in combo.items()}, rows, ncols
    )
    assert all(isinstance(c, Fraction) for c in normal.values())
    assert all(type(c) is int for c in combo.values())


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices(min_rows=1), tall_matrices()), st.booleans())
def test_stored_rows_are_primitive_integer_vectors(case, tagged):
    rows, ncols = case
    echelon = Echelon(carry=ncols)
    for i, row in enumerate(rows):
        carried = {ncols + i: i + 2} if tagged else {}
        new = echelon.insert({**integer_row(sparse(row))[0], **carried})
        if new is None:
            continue
        pivot = min(new)
        below, stored = split(new, ncols)
        assert echelon.rows[pivot] is new
        assert all(type(c) is int for c in [*below.values(), *stored.values()])
        assert new[pivot] > 0
        assert gcd(*below.values(), *stored.values()) == 1


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices(min_rows=1), tall_matrices()), st.data())
def test_carried_keys_never_become_pivots_or_normal_form_keys(case, data):
    """A vector dependent below the bound stores nothing, whatever it
    carries, and neither pivots nor normal forms reach the carried keys."""
    rows, ncols = case
    echelon = Echelon(carry=ncols)
    for i, row in enumerate(rows):
        ints, d = integer_row(sparse(row))
        echelon.insert({**ints, ncols + i: d})
    stored = dict(echelon.rows)
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
    dependent = combination(dict(enumerate(coeffs)), rows, ncols)
    ints, _ = integer_row(sparse(dependent))
    carried = data.draw(st.integers(1, 9))
    assert echelon.insert({**ints, ncols + len(rows): carried}) is None
    assert echelon.rows == stored
    assert all(pivot < ncols for pivot in stored)
    vec = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
    ints, d = integer_row(sparse(vec))
    normal, _, _ = echelon.reduce({**ints, ncols + len(rows): carried}, d)
    assert all(k < ncols for k in normal)


@pytest.mark.parametrize("src", ["u^2+v^3", "1/3*u^3+2/5*v^4", "(u+v)^2+v^9"])
def test_jet_results_are_fractions(src):
    """Integer rows stay inside the kernel: normal forms and cofactors are
    Fractions, also for a germ with rational coefficients."""
    f = parse_poly(src, ("u", "v"))
    gens = [f.diff("u"), f.diff("v")]
    milnor = build_jet_algebra(gens)
    T = milnor.truncation_order
    monomials = [(a, d - a) for d in range(T + 1) for a in range(d + 1)]
    for mono in monomials:
        normal = milnor.normal_form(f * Poly(f.vars, {mono: 1}))
        assert all(isinstance(c, Fraction) for c in normal)
    tagged = JetAlgebra(gens, T + 2)
    u, v = Poly.variable(f.vars, "u"), Poly.variable(f.vars, "v")
    p = u * gens[0] + (v * gens[1]).scale(Fraction(1, 7))
    cofactors = tagged.membership_with_witness(p, T)
    assert cofactors
    for cof in cofactors:
        assert all(isinstance(c, Fraction) for c in cof.terms.values())
