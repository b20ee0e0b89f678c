"""Finite-dimensional jet-space models of local rings.

A :class:`JetAlgebra` is the quotient of the power-series ring by an
m-primary ideal, realized on the jet space of polynomials of total degree
at most a truncation order T.  The jet monomials are listed once per
number of variables, in ascending graded-lex order, and a monomial's
position in that list is its key at every order: graded-lex compares total
degree first, so the monomials of degree <= T are a prefix of the list.
The rows of the degree-<=T slice of the ideal live in the sparse echelon
kernel :class:`linalg.Echelon` that also serves branch semigroups and
dense ranks.  The pivot of each row is its smallest monomial, so normal
forms are unique and runs are reproducible.

The m-primality certificate: if every standard (non-pivot) monomial has
total degree < T, then all monomials of some degree N <= T are reducible,
so the ideal contains m^N up to terms the truncation cannot see -- and
since T + 1 > N those terms lie in m * m^N, which pins m^N inside the
ideal of the complete local ring.  The computed colength is then exact,
and ``primality_bound`` is the smallest such N.  Once m^N lies in the
ideal, the degree-<=T slice is the image of the ideal itself for every
T >= N, so the standard basis and every normal form are the same at each
order that certifies; a higher order only costs rows.

Orders therefore start low, and the engine alone picks them.
:func:`build_jet_algebra` runs one doubling chain: it starts at the
Macaulay bound of :func:`default_truncation`, which certifies at once when
the generators' initial forms are a regular sequence; it doubles the order
on each failure and gives up only past max(start, TRUNCATION_CAP,
4 + 2 * max generator degree).  The order it stops at changes how many
rows it pays for, never a result.

An algebra can be derived from a ``base`` algebra, with no new
elimination of the base's generators.  Let V_T be the span of the
degree-<=T truncations of the multiples mult * g, and pi_T the truncation
to degree <= T.

* Projection: for T <= T', pi_T(V_T') = V_T.  A multiple of degree
  > T - ord(g) truncates to zero, and every other one truncates to its own
  degree-<=T generator.  A row of an echelon basis of V_T' whose pivot has
  degree > T has every key of degree > T (keys ascend with degree), so it
  truncates to zero; a row whose pivot has degree <= T keeps that pivot.
  So the rows with pivot degree <= T, cut at degree T, are an echelon
  basis of V_T with the same pivots, and by the echelon's two facts the
  basis, ``primality_bound`` and every normal form equal those of a fresh
  build at T.
* Extension: the ideal of ``generators`` contains base's (a prefix of
  them), so V_T is base's rows plus the multiples of the extra
  generators; inserting only those gives an echelon basis of V_T, and
  again everything equals a fresh build.  The Tjurina algebra extends the
  Milnor algebra by the multiples of f.

Ideal-membership witnesses (cofactors) fall out of the same reduction
with no extra linear solve: in a tagged algebra each row carries, as its
echelon tag, an expression of itself as a combination of the multiples
mult * g_j.  A :class:`JetAlgebra` is tagged by default, but
:func:`build_jet_algebra` always builds untagged: the Milnor algebra, its
doubling attempts and the Tjurina algebra derived from it carry no tags,
and ``plane`` tags only the algebra the tail map reads witnesses from.  A
derived algebra inherits its base's tagging.  A projected row keeps its tag
uncut: every multiple in the tag of a row starts (has its lowest degree)
at or below the row's pivot degree, by induction over insertions -- an
inserted multiple starts at or below its lowest key, and it is reduced
only by rows whose pivots lie below its final pivot.  So a row with pivot
degree <= T uses only multiples a fresh build at T inserts.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import NotInIdeal, NotMPrimary, TruncationCapExceeded
from .linalg import Echelon
from .poly import Monomial, Poly, grlex_key

TRUNCATION_CAP = 64


_JET_MONOMIALS: Dict[int, Tuple[List[Monomial], Dict[Monomial, int]]] = {}


def _jet_monomials(nvars: int, degree: int) -> Tuple[List[Monomial], Dict[Monomial, int]]:
    """The shared ascending graded-lex monomial list of ``nvars`` variables
    and its index, grown on demand to cover total degree <= ``degree``.

    Graded-lex order compares total degree first, so at any larger degree
    the monomials of degree <= T are the first comb(nvars + T, nvars)
    entries, with the same keys: every jet algebra in ``nvars`` variables
    reads the one list.  The list only grows and its content depends on
    ``nvars`` alone, so sharing it changes no result.
    """
    monos, index = _JET_MONOMIALS.setdefault(nvars, ([], {}))
    for d in range(sum(monos[-1]) + 1 if monos else 0, degree + 1):
        block = []
        for combo in combinations_with_replacement(range(nvars), d):
            mono = [0] * nvars
            for i in combo:
                mono[i] += 1
            block.append(tuple(mono))
        for mono in sorted(block, key=grlex_key):
            index[mono] = len(monos)
            monos.append(mono)
    return monos, index


class JetAlgebra:
    """Quotient of the power-series ring by an m-primary ideal at order T.

    With ``base``, an algebra whose generators are a prefix of
    ``generators`` and whose order is at least T, the rows are derived
    from base's by projection and extension (see the module docstring)
    instead of a fresh elimination.  ``tagged`` says whether rows carry
    cofactor tags; it defaults to base's tagging, or to True.
    """

    def __init__(
        self,
        generators: Sequence[Poly],
        truncation_order: int,
        row_seed: Optional[int] = None,
        tagged: Optional[bool] = None,
        base: Optional["JetAlgebra"] = None,
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
        nvars = len(ambient)
        self._monomials, self._index = _jet_monomials(nvars, truncation_order)
        self._size = comb(nvars + truncation_order, nvars)  # keys below it
        self._rows = Echelon()
        first = 0
        if base is not None:
            first = len(base.generators)
            if self.generators[:first] != base.generators:
                raise AssertionError("base generators are not a prefix")
            if base.truncation_order < truncation_order:
                raise AssertionError(
                    f"base order {base.truncation_order} is below {truncation_order}"
                )
            if tagged and not base.tagged:
                raise AssertionError("an untagged base gives no tags")
            self.tagged = base.tagged if tagged is None else tagged
            self._project(base)
        else:
            self.tagged = True if tagged is None else tagged
        self._build(first, row_seed)
        self._certify()

    # -- construction ------------------------------------------------------

    def _project(self, base: "JetAlgebra") -> None:
        """Keep base's rows whose pivot has degree <= T, cut at degree T.

        A row kept whole is shared, not copied: an echelon never changes a
        row once stored.  Tags need no cut (see the module docstring); they
        are only re-keyed when the generator count grows.
        """
        n, rows, tags = self._size, self._rows.rows, self._rows.tags
        whole = base._size == n
        G, G_base = len(self.generators), len(base.generators)
        for pivot, row in base._rows.rows.items():
            if pivot >= n:
                continue
            rows[pivot] = row if whole else {k: c for k, c in row.items() if k < n}
            if self.tagged:
                tag = base._rows.tags[pivot]
                if G != G_base:
                    tag = {
                        key // G_base * G + key % G_base: c for key, c in tag.items()
                    }
                tags[pivot] = tag

    def _build(self, first: int, row_seed: Optional[int]) -> None:
        """Insert every multiple mult * g_j of degree <= T, for j >= first.

        If tagged, its tag is the single key index(mult) * G + j, G being
        the number of generators, so tag combinations decode into
        cofactors at any order.
        """
        T = self.truncation_order
        nvars = len(self.ambient)
        index, monos, G = self._index, self._monomials, len(self.generators)
        seeds: List[Tuple[Dict[int, Fraction], Optional[Dict[int, Fraction]]]] = []
        for j in range(first, G):
            g = self.generators[j]
            g_order = g.order()
            if g_order is None or g_order > T:
                continue  # spans nothing in degree <= T
            # the multipliers are the monomials of degree <= T - g_order,
            # a prefix of the jet monomials
            for i in range(comb(nvars + T - g_order, nvars)):
                mult = monos[i]
                terms: Dict[int, Fraction] = {}
                for m, c in g.terms.items():
                    prod = tuple(a + b for a, b in zip(m, mult))
                    if sum(prod) <= T:
                        k = index[prod]
                        terms[k] = terms.get(k, 0) + c
                terms = {k: c for k, c in terms.items() if c != 0}
                if terms:
                    tag = {i * G + j: Fraction(1)} if self.tagged else None
                    seeds.append((terms, tag))
        if row_seed is not None:
            random.Random(row_seed).shuffle(seeds)
        for terms, tag in seeds:
            self._rows.insert(terms, tag)

    def _certify(self) -> None:
        T = self.truncation_order
        self._basis_keys = [i for i in range(self._size) if i not in self._rows.rows]
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

    def membership_with_witness(self, p: Poly, order: int) -> Tuple[Poly, ...]:
        """Cofactors c_i, one per generator g_i, with p - sum(c_i * g_i) of
        order > ``order``; the defect is checked exactly.

        A zero normal form says the jets of ``p`` and of the cofactor
        combination agree up to degree T, so any order up to T can be
        verified, and the defect is computed and checked exactly.
        """
        if not self.tagged:
            raise AssertionError("an untagged jet algebra gives no witnesses")
        if order > self.truncation_order:
            raise ValueError(
                f"order {order} exceeds certified range {self.truncation_order}"
            )
        normal, combo = self._reduce(p, track=True)
        if normal:
            raise NotInIdeal(
                f"nonzero normal form on {[self._monomials[i] for i in sorted(normal)]}"
            )
        G = len(self.generators)
        cofactors: List[Dict[Monomial, Fraction]] = [{} for _ in self.generators]
        for key, c in combo.items():
            i, j = divmod(key, G)
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
        return polys


def default_truncation(generators: Sequence[Poly]) -> int:
    """Macaulay start order 1 + sum(o_i - 1) over the nvars smallest orders.

    If the initial forms of those generators are a regular sequence, the
    tangent cone is a complete intersection whose top degree is
    sum(o_i - 1), so the algebra certifies at this order at once;
    otherwise :func:`build_jet_algebra` doubles it.  Zero generators are
    skipped, and the order is at least 1.
    """
    nvars = len(generators[0].vars)
    orders = sorted(o for o in (g.order() for g in generators) if o is not None)
    return max(1, 1 + sum(o - 1 for o in orders[:nvars]))


def build_jet_algebra(generators: Sequence[Poly]) -> JetAlgebra:
    """Untagged algebra from one doubling chain of truncation orders.

    The chain starts at :func:`default_truncation` and doubles the order
    each time m-primality cannot be certified.  It gives up with
    :class:`TruncationCapExceeded` once an order at the limit
    max(start, TRUNCATION_CAP, 4 + 2 * max generator degree) fails, so the
    caller can tell runaway input from a plain bad document.
    ``TRUNCATION_CAP`` is read at each call.  In two variables the start
    is at most 2 * max degree - 1, so the limit is max(TRUNCATION_CAP,
    4 + 2 * max degree); with more variables a start above that still gets
    its one attempt.  Every certified order gives the same basis and
    normal forms (see the module docstring), so no caller picks the
    start; one that needs a fixed order builds :class:`JetAlgebra`
    directly.  Rows are inserted in generator order, with no cofactor
    tags.
    """
    T = default_truncation(generators)
    max_degree = max((g.degree() or 0) for g in generators)
    limit = max(T, TRUNCATION_CAP, 4 + 2 * max_degree)
    while True:
        try:
            return JetAlgebra(generators, T, tagged=False)
        except NotMPrimary:
            if T >= limit:
                raise TruncationCapExceeded(
                    f"no m-primality certificate up to truncation order {T}"
                )
            T = min(2 * T, limit)
