"""Independent oracles for the benchmark's correctness checks.

Nothing here imports curveinv: every expected value is derived from the
parameters a generator used to build the input, by closed formulas or
integer arithmetic, so a wrong engine answer cannot agree with itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence, Tuple


def qh_milnor(w1: Fraction, w2: Fraction) -> int:
    """Milnor number of an isolated quasihomogeneous plane germ.

    Milnor and Orlik: mu = (1/w1 - 1)(1/w2 - 1) for weights normalized so
    that the equation has weighted degree 1.
    """
    mu = (1 / Fraction(w1) - 1) * (1 / Fraction(w2) - 1)
    if mu.denominator != 1:
        raise ValueError(f"weights {w1}, {w2} give non-integral mu {mu}")
    return int(mu)


def brieskorn_pham_milnor(a: int, b: int) -> int:
    """mu of u^a + v^b, and of any semi-quasihomogeneous germ with that part."""
    return (a - 1) * (b - 1)


def d_type_weights(k: int) -> Tuple[Fraction, Fraction]:
    """Weights of u^2*v + v^k: v has 1/k, u has (1 - 1/k)/2."""
    return Fraction(k - 1, 2 * k), Fraction(1, k)


def e_type_weights(k: int) -> Tuple[Fraction, Fraction]:
    """Weights of u^3 + u*v^k: u has 1/3, v has 2/(3k)."""
    return Fraction(1, 3), Fraction(2, 3 * k)


def semigroup_gaps(generators: Sequence[int]) -> int:
    """Number of gaps of the numerical semigroup, by integer dynamic programming.

    For a numerical semigroup every integer past the Frobenius number is a
    value; once ``min(generators)`` consecutive values appear, all larger
    integers are values too, so the scan stops there.
    """
    gens = sorted(set(generators))
    if not gens or gens[0] <= 0:
        raise ValueError("generators must be positive")
    g = 0
    for n in gens:
        g = gcd(g, n)
    if g != 1:
        raise ValueError("generators have a common factor; infinitely many gaps")
    reach = [True]
    gaps = run = 0
    n = 0
    while run < gens[0]:
        n += 1
        hit = any(n >= s and reach[n - s] for s in gens)
        reach.append(hit)
        if hit:
            run += 1
        else:
            gaps += 1
            run = 0
    return gaps
