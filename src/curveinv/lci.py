"""Non-planar complete-intersection curve germs and their obstruction.

A germ presented by e variables and e-1 equations with every equation in
the square of the maximal ideal has embedding dimension e.  For e >= 3
the derived-exterior-power complex one step past the embedding dimension
acquires nonzero cohomology in degree -1: the relevant map has every
matrix entry in the maximal ideal (its entries are built from the
Jacobian of the equations), so its cokernel survives reduction mod m
with dimension e - 1 > 0.  That single nonzero group sits at grid
position (e+1, -1), total degree e, and rules out second-page
degeneration for any curve containing the germ.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import List, Optional, Tuple

from . import linalg
from .errors import NonMinimalPresentation, PlanarNoObstruction
from .poly import BranchParam, DeltaR, Poly


@dataclass(frozen=True)
class LciPresentation:
    """Variables x1..xe and equations f1..f_{e-1} of a curve germ."""

    variables: Tuple[str, ...]
    equations: Tuple[Poly, ...]
    parametrization: Optional[BranchParam] = None
    label: str = ""
    asserted: Optional[DeltaR] = None

    def __post_init__(self):
        e = len(self.variables)
        if e < 2:
            raise ValueError("need at least two variables")
        if len(self.equations) != e - 1:
            raise ValueError(
                f"{len(self.equations)} equations for {e} variables; "
                "a curve germ needs e - 1"
            )
        for i, f in enumerate(self.equations):
            if f.vars != self.variables:
                raise ValueError(f"equation {i} has ambient {f.vars}")
            if f.is_zero() or f.constant_term() != 0:
                raise ValueError(
                    f"equation {i} must be nonzero with zero constant term"
                )


@dataclass(frozen=True)
class ObstructionReport:
    e: int
    term_ranks: Tuple[Tuple[int, int], ...]  # (degree, rank) of K_{e+1}
    coker_mod_m_dim: int
    nonzero_H_minus1: bool
    obstruction_position: Tuple[int, int]
    total_degree: int


def embedding_dimension(p: LciPresentation) -> int:
    """Variable count, valid once every equation lies in m^2."""
    for i, f in enumerate(p.equations):
        lin = f.linear_part()
        if not lin.is_zero():
            raise NonMinimalPresentation(
                f"equation {i} has nonzero linear part {lin}"
            )
    return len(p.variables)


def verify_parametrization(p: LciPresentation) -> bool:
    """True when every equation vanishes on the parametrized curve.

    The images are polynomials in t, so each pullback is compared with
    zero exactly, with no truncation order.
    """
    if p.parametrization is None:
        raise ValueError("no parametrization supplied")
    images = p.parametrization.as_map(p.variables)
    return all(f.substitute(images).is_zero() for f in p.equations)


def complex_term_ranks(e: int, p: int) -> List[Tuple[int, int]]:
    """Term ranks of the length-p symmetric/exterior complex on (e-1, e).

    Slot i (0 <= i <= min(p, e)) sits in degree -p + i and has rank
    C(p - i + e - 2, e - 2) * C(e, i): a symmetric power of a free module
    of rank e - 1 tensored with an exterior power of one of rank e.
    """
    if e < 2 or p < 1:
        raise ValueError("need e >= 2 and p >= 1")
    out = []
    for i in range(min(p, e) + 1):
        rank = comb(p - i + e - 2, e - 2) * comb(e, i)
        out.append((-p + i, rank))
    return out


def jacobian_matrix(p: LciPresentation) -> List[List[Poly]]:
    return [[f.diff(x) for x in p.variables] for f in p.equations]


def obstruction(p: LciPresentation) -> ObstructionReport:
    """Certify the nonzero degree -1 cohomology one step past e.

    The check is symbolic and exact: the constant term of the Jacobian
    entry d f_i / d x_j is the coefficient of x_j in f_i, so the minimality
    that :func:`embedding_dimension` checks makes every entry vanish at 0.
    The map whose cokernel computes the group then has image inside m
    times the target; reducing mod m kills the image and leaves the full
    target fiber, of dimension e - 1 > 0.
    """
    e = embedding_dimension(p)
    if e == 2:
        raise PlanarNoObstruction(
            "two-variable presentation is planar; no obstruction here"
        )
    ranks = complex_term_ranks(e, e + 1)
    coker_dim = e - 1
    if ranks[-1] != (-1, coker_dim):
        raise AssertionError(
            f"top term of the complex is {ranks[-1]}, expected (-1, {coker_dim})"
        )
    return ObstructionReport(
        e=e,
        term_ranks=tuple(ranks),
        coker_mod_m_dim=coker_dim,
        nonzero_H_minus1=True,
        obstruction_position=(e + 1, -1),
        total_degree=e,
    )


def coker_mod_m_cross_check(p: LciPresentation) -> int:
    """e - 1 minus the rank of the Jacobian entries' constant terms.

    This is no independent test: the constant term of d f_i / d x_j is the
    coefficient of x_j in f_i, so once :func:`embedding_dimension` has
    passed, every constant term is zero and this returns e - 1.  A real
    second minimality test would take the constant terms of the complex's
    last differential, which nothing builds yet.
    """
    e = len(p.variables)
    constants = [
        [entry.constant_term() for entry in row] for row in jacobian_matrix(p)
    ]
    return (e - 1) - linalg.rank(constants) if constants else e - 1
