"""Finite-dimensional jet-space models of local rings.

A :class:`JetAlgebra` is the quotient of the power-series ring by an
m-primary ideal, realized on the jet space of polynomials of total degree
at most a truncation order T.  The jet monomials are listed once, in
ascending graded-lex order, and a monomial's position in that list is its
key, so the rows of the degree-<=T slice of the ideal live in the sparse
echelon kernel :class:`linalg.Echelon` that also serves branch semigroups
and dense ranks.  The pivot of each row is its smallest monomial, so
normal forms are unique and runs are reproducible.

The m-primality certificate: if every standard (non-pivot) monomial has
total degree < T, then all monomials of some degree N <= T are reducible,
so the ideal contains m^N up to terms the truncation cannot see -- and
since T + 1 > N those terms lie in m * m^N, which pins m^N inside the
ideal of the complete local ring.  The computed colength is then exact,
and ``primality_bound`` is the smallest such N.  Once m^N lies in the
ideal, the degree-<=T slice is the image of the ideal itself for every
T >= N, so the standard basis and every normal form are the same at each
order that certifies; a higher order only costs rows.

Orders therefore start low.  :func:`default_truncation` starts at the
Macaulay bound of the generators' orders, which certifies at once when
their initial forms are a regular sequence; otherwise
:func:`build_jet_algebra` doubles the order, and on this default path it
gives up only past max(cap, 4 + 2 * max generator degree).

Each row carries, as its echelon tag, an expression of itself as a
combination of the ideal generators, so ideal-membership witnesses
(cofactors) fall out of the same reduction with no extra linear solve.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import NotInIdeal, NotMPrimary, TruncationCapExceeded
from .linalg import Echelon
from .poly import Monomial, Poly, grlex_key

TRUNCATION_CAP = 64


def monomials_up_to(nvars: int, degree: int) -> List[Monomial]:
    """All exponent tuples of total degree <= degree, ascending graded-lex."""
    out = []
    for d in range(degree + 1):
        for combo in combinations_with_replacement(range(nvars), d):
            mono = [0] * nvars
            for i in combo:
                mono[i] += 1
            out.append(tuple(mono))
    return sorted(out, key=grlex_key)


@dataclass(frozen=True)
class MembershipWitness:
    """Cofactors expressing a target in the ideal up to high-order terms.

    The defect ``target - sum(cofactor_i * generator_i)`` has every term of
    total degree strictly greater than ``order_verified``.
    """

    cofactors: Tuple[Poly, ...]
    order_verified: int


class JetAlgebra:
    """Quotient of the power-series ring by an m-primary ideal at order T."""

    def __init__(
        self,
        generators: Sequence[Poly],
        truncation_order: int,
        row_seed: Optional[int] = None,
    ):
        if not generators:
            raise ValueError("empty generator list")
        if truncation_order < 1:
            raise ValueError("truncation order must be at least 1")
        ambient = generators[0].vars
        for g in generators:
            if g.vars != ambient:
                raise ValueError("generators live in different ambient rings")
        self.ambient = ambient
        self.generators = tuple(generators)
        self.truncation_order = truncation_order
        self._monomials = monomials_up_to(len(ambient), truncation_order)
        self._index = {m: i for i, m in enumerate(self._monomials)}
        self._rows = Echelon()
        self._build(row_seed)
        self._certify()

    # -- construction ------------------------------------------------------

    def _build(self, row_seed: Optional[int]) -> None:
        """Insert every multiple mult * g_j of degree <= T.

        Its tag is the single key j * N + index(mult), N being the number
        of jet monomials, so tag combinations decode into cofactors.
        """
        T = self.truncation_order
        nvars = len(self.ambient)
        index, N = self._index, len(self._monomials)
        seeds: List[Tuple[Dict[int, Fraction], Dict[int, Fraction]]] = []
        for j, g in enumerate(self.generators):
            g_order = g.order()
            if g_order is None or g_order > T:
                continue  # spans nothing in degree <= T
            # the multipliers are the monomials of degree <= T - g_order,
            # a prefix of the jet monomials
            for mult in self._monomials[: comb(nvars + T - g_order, nvars)]:
                terms: Dict[int, Fraction] = {}
                for m, c in g.terms.items():
                    prod = tuple(a + b for a, b in zip(m, mult))
                    if sum(prod) <= T:
                        k = index[prod]
                        terms[k] = terms.get(k, 0) + c
                terms = {k: c for k, c in terms.items() if c != 0}
                if terms:
                    seeds.append((terms, {j * N + index[mult]: Fraction(1)}))
        if row_seed is not None:
            random.Random(row_seed).shuffle(seeds)
        for terms, tag in seeds:
            self._rows.insert(terms, tag)

    def _certify(self) -> None:
        T = self.truncation_order
        self._basis_keys = [
            i for i in range(len(self._monomials)) if i not in self._rows.rows
        ]
        self.basis: Tuple[Monomial, ...] = tuple(
            self._monomials[i] for i in self._basis_keys
        )
        top = max((sum(m) for m in self.basis), default=-1)
        if top >= T:
            raise NotMPrimary(T)
        self.primality_bound: int = top + 1

    # -- queries -----------------------------------------------------------

    def colength(self) -> int:
        return len(self.basis)

    def _reduce(self, p: Poly, track: bool):
        """Normal form of p, keyed by jet index; optionally the tag combination."""
        if p.vars != self.ambient:
            raise ValueError("ambient mismatch")
        jet = p.truncate(self.truncation_order)
        return self._rows.reduce({self._index[m]: c for m, c in jet.terms.items()}, track)

    def normal_form(self, p: Poly) -> List[Fraction]:
        """Coordinates of p's class over the standard-monomial basis."""
        normal, _ = self._reduce(p, track=False)
        return [normal.get(i, Fraction(0)) for i in self._basis_keys]

    def membership_with_witness(self, p: Poly, order: int) -> MembershipWitness:
        """Cofactors with defect of order > ``order``; exact defect check.

        A zero normal form says the jets of ``p`` and of the cofactor
        combination agree up to degree T, so any order up to T can be
        verified, and the defect is computed and checked exactly.
        """
        if order > self.truncation_order:
            raise ValueError(
                f"order {order} exceeds certified range {self.truncation_order}"
            )
        normal, combo = self._reduce(p, track=True)
        if normal:
            raise NotInIdeal(
                f"nonzero normal form on {[self._monomials[i] for i in sorted(normal)]}"
            )
        cofactors: List[Dict[Monomial, Fraction]] = [{} for _ in self.generators]
        N = len(self._monomials)
        for key, c in combo.items():
            j, i = divmod(key, N)
            cofactors[j][self._monomials[i]] = c
        polys = tuple(Poly(self.ambient, cof) for cof in cofactors)
        defect = p
        for cof, g in zip(polys, self.generators):
            defect = defect - cof * g
        defect_order = defect.order()
        if defect_order is not None and defect_order <= order:
            raise NotInIdeal(
                f"witness defect has order {defect_order} <= {order}"
            )
        return MembershipWitness(cofactors=polys, order_verified=order)


def default_truncation(generators: Sequence[Poly]) -> int:
    """Macaulay start order 1 + sum(o_i - 1) over the nvars smallest orders.

    If the initial forms of those generators are a regular sequence, the
    tangent cone is a complete intersection whose top degree is
    sum(o_i - 1), so the algebra certifies at this order at once;
    otherwise :func:`build_jet_algebra` doubles it, up to the floor
    max(cap, 4 + 2 * max generator degree).  Zero generators are skipped,
    and the order is at least 1.
    """
    nvars = len(generators[0].vars)
    orders = sorted(o for o in (g.order() for g in generators) if o is not None)
    return max(1, 1 + sum(o - 1 for o in orders[:nvars]))


def build_jet_algebra(
    generators: Sequence[Poly],
    truncation_order: Optional[int] = None,
    row_seed: Optional[int] = None,
    cap: int = TRUNCATION_CAP,
) -> JetAlgebra:
    """Build at the requested (or default) order, doubling on failure.

    Doubles the truncation order each time m-primality cannot be certified,
    and gives up with :class:`TruncationCapExceeded` once an order at the
    limit fails, so the caller can tell runaway input from a plain bad
    document.  The limit is ``cap`` for a requested order.  On the default
    path it is max(cap, 4 + 2 * max generator degree): the low Macaulay
    start never gives up below the order the engine has always tried, so
    every input that certified at that order still does.
    """
    if truncation_order is not None:
        T, limit = truncation_order, cap
    else:
        max_degree = max((g.degree() or 0) for g in generators)
        T, limit = default_truncation(generators), max(cap, 4 + 2 * max_degree)
    T = max(1, T)
    while True:
        try:
            return JetAlgebra(generators, T, row_seed=row_seed)
        except NotMPrimary:
            if T >= limit:
                raise TruncationCapExceeded(
                    f"no m-primality certificate up to truncation order {T}"
                )
            T = min(2 * T, limit)

