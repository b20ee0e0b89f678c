"""Shared builders and oracles: analyzed curve models assembled from the
builtin corpus, a Hypothesis strategy for plane germs, an independent
colength count for monomial ideals, dense Gauss-Jordan elimination,
dense or Poly views of tail maps, jet-algebra normal forms and
witnesses, the re-check's reshuffled elimination, and the monomial lci
chains with their branch generators."""

import random
from fractions import Fraction
from itertools import product
from math import gcd, prod
from operator import add
from typing import List, Sequence

import pytest
from hypothesis import strategies as st

from curveinv import corpus
from curveinv.jets import JetAlgebra
from curveinv.linalg import integer_row
from curveinv.poly import Monomial, Poly, grlex_key
from curveinv.report import AnalysisOptions, analyze
from curveinv.schema import build_curve

_CACHE = {}

# Cyclic windows the page tests share.  No corpus model has a column past
# 50 at the tail windows they use (1, 6, 48), so every page of the last
# window is empty.
HC_WINDOWS = ((-3, 6), (-4, -1), (2, 9), (5, 5), (60, 63))


def analyzed_model(label, options=AnalysisOptions()):
    key = (label, options)
    if key not in _CACHE:
        docs = {doc["label"]: doc for doc in corpus.curve_models()}
        _CACHE[key] = analyze(build_curve(docs[label]), options)
    return _CACHE[key]


@pytest.fixture
def model():
    return analyzed_model


_UV = ("u", "v")

coefficients = st.builds(
    lambda sign, num, den: Fraction(sign * num, den),
    st.sampled_from((-1, 1)), st.integers(1, 5), st.integers(1, 6),
)


@st.composite
def germs(draw, max_k=9, families=("bp", "above", "tangent")):
    """Brieskorn-Pham c1*u^a + c2*v^b ("bp"), 2 <= a, b <= 7, alone or
    plus terms above its Newton boundary ("above": semi-quasihomogeneous,
    often with tau < mu), or (u+v)^2 + c*v^k, k <= max_k ("tangent"),
    whose Jacobian's initial forms are not coprime; one of ``families``."""
    family = draw(st.sampled_from(families))
    if family == "tangent":
        k = draw(st.integers(2, max_k))
        return Poly(_UV, {(2, 0): 1, (1, 1): 2, (0, 2): 1}) + Poly(
            _UV, {(0, k): draw(coefficients)}
        )
    a, b = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    terms = {(a, 0): draw(coefficients), (0, b): draw(coefficients)}
    above = [
        (i, j) for i in range(a + 1) for j in range(b + 1)
        if i * b + j * a > a * b and i + j <= max(a, b) + 1
    ]
    if family == "above":
        extra = st.lists(st.sampled_from(above), min_size=1, max_size=2, unique=True)
        for mono in draw(extra):
            terms[mono] = draw(coefficients)
    return Poly(_UV, terms)


def dense_normal_form(algebra, p: Poly) -> List[Fraction]:
    """The coordinates of p's class over the algebra's standard basis, as
    a dense list of Fractions."""
    normal = algebra.normal_form(*integer_row(p.terms))
    return [normal.get(i, Fraction(0)) for i in range(algebra.colength())]


def reshuffled(algebra, seed):
    """A tagged ``algebra`` eliminated again from a copy of its list of
    multiples, inserted in the order ``seed`` shuffles the copy to, as the
    tail map's re-check does."""
    multiples = list(algebra.multiples)
    random.Random(seed).shuffle(multiples)
    return JetAlgebra(
        list(algebra.generators), algebra.truncation_order, multiples=multiples
    )


def tail_matrix(analysis, columns) -> tuple:
    """Sparse tail columns over the Tjurina basis of ``analysis`` as dense
    rows, one per basis monomial: a tuple of Fraction tuples."""
    return tuple(
        tuple(column.get(i, Fraction(0)) for column in columns)
        for i in range(analysis.tjurina.colength())
    )


def poly_witness(algebra, p: Poly, order: int) -> tuple:
    """Cofactors c_j of p as Polys, one per generator g_j, with
    p - sum(c_j * g_j) of order > ``order``, for ``order`` <= T: the
    algebra's own witness, with no lifting."""
    assert order <= algebra.truncation_order
    cofactors, s = algebra.membership_with_witness(*integer_row(p.terms), order)
    return tuple(
        Poly(p.vars, {m: Fraction(c, s) for m, c in C.items()}) for C in cofactors
    )


def staircase_colength(generators: Sequence[Poly]) -> int:
    """Lattice points under the staircase of a monomial ideal.

    Independent combinatorial oracle for :meth:`JetAlgebra.colength`; only
    valid when every generator is a single monomial.  Counts monomials not
    divisible by any generator, scanning the box bounded by the pure powers.
    """
    monos = []
    for g in generators:
        if len(g.terms) != 1:
            raise ValueError("staircase count needs monomial generators")
        monos.append(next(iter(g.terms)))
    nvars = len(generators[0].vars)
    bounds = []
    for i in range(nvars):
        pure = [m[i] for m in monos if all(e == 0 for j, e in enumerate(m) if j != i)]
        if not pure:
            raise ValueError("no pure power in some variable: infinite colength")
        bounds.append(min(pure))

    def divides(d: Monomial, m: Monomial) -> bool:
        return all(a <= b for a, b in zip(d, m))

    count = 0
    def scan(prefix: List[int], i: int) -> None:
        nonlocal count
        if i == nvars:
            mono = tuple(prefix)
            if not any(divides(d, mono) for d in monos):
                count += 1
            return
        for e in range(bounds[i]):
            scan(prefix + [e], i + 1)

    scan([], 0)
    return count


def monomial_chain(pairs):
    """Variables, equations and branch generators of the lci chain
    x_1^a_1 - x_0^b_1, ..., x_n^a_n - x_(n-1)^b_n, n <= 3, for pairs
    ((a_1, b_1), ...): the one branch is x_i = t^(b_1...b_i * a_(i+1)...a_n),
    as (t^(ac), t^(bc), t^(bd)) for (y^a - x^b, z^c - y^d)."""
    variables = "xyzw"[: len(pairs) + 1]
    equations = [
        f"{y}^{a}-{x}^{b}" for (a, b), x, y in zip(pairs, variables, variables[1:])
    ]
    gens = tuple(
        prod(b for _, b in pairs[:i]) * prod(a for a, _ in pairs[i:])
        for i in range(len(pairs) + 1)
    )
    return variables, equations, gens


def monomial_chains(*ranges):
    """The pairs of every chain with (a_i, b_i) drawn from ranges[i - 1],
    a pair of ranges, each a_i prime to b_i and the generators coprime:
    then the chain is an irreducible quasihomogeneous curve germ."""
    return [
        pairs
        for pairs in product(*(product(*r) for r in ranges))
        if all(gcd(a, b) == 1 for a, b in pairs) and gcd(*monomial_chain(pairs)[2]) == 1
    ]


def dense_algebra(generators, T):
    """The standard monomials of the dense Gauss-Jordan oracle: the
    non-pivot columns, in graded-lex order, of the matrix of every
    multiple mult * g truncated at degree T.  The monomials are listed
    here, independently of ``jets``."""
    nvars = len(generators[0].vars)
    monos = sorted(
        (m for m in product(range(T + 1), repeat=nvars) if sum(m) <= T), key=grlex_key
    )
    column = {m: k for k, m in enumerate(monos)}
    rows = []
    for g in generators:
        for mult in monos:
            terms = {tuple(map(add, m, mult)): c for m, c in g.terms.items()}
            row = [0] * len(monos)
            for m, c in terms.items():
                if sum(m) <= T:
                    row[column[m]] = c
            if any(row):
                rows.append(row)
    _, pivots = gauss_jordan(rows)
    return [m for k, m in enumerate(monos) if k not in set(pivots)]


def gauss_jordan(rows):
    """Reference oracle: dense Gauss-Jordan elimination, first nonzero row as pivot."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m, pivots


def oracle_nullspace(rows, ncols):
    """Gauss-Jordan nullspace basis of a matrix with ``ncols`` columns: one
    vector per free column, with entry 1 there and 0 at the other free
    columns."""
    red, pivots = gauss_jordan(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, pcol in enumerate(pivots):
            vec[pcol] = -red[r][free]
        basis.append(vec)
    return basis
