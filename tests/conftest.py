"""Shared builders and oracles: analyzed curve models assembled from the
builtin corpus, an independent colength count for monomial ideals, and
dense Gauss-Jordan elimination."""

from fractions import Fraction
from typing import List, Sequence

import pytest

from curveinv import corpus
from curveinv.poly import Monomial, Poly
from curveinv.report import AnalysisOptions, analyze
from curveinv.schema import build_curve

_CACHE = {}


def analyzed_model(label, options=AnalysisOptions()):
    key = (label, options)
    if key not in _CACHE:
        docs = {doc["label"]: doc for doc in corpus.curve_models()}
        _CACHE[key] = analyze(build_curve(docs[label]), options)
    return _CACHE[key]


@pytest.fixture
def model():
    return analyzed_model


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
