"""Shared builders and oracles: analyzed curve models assembled from the
builtin corpus, and an independent colength count for monomial ideals."""

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
