"""Finite-dimensional jet-space models of local rings.

A :class:`JetAlgebra` is the quotient of the power-series ring by an
m-primary ideal, realized on the jet space of polynomials of total degree
at most a truncation order T.  The jet monomials are listed once per
number of variables, in ascending graded-lex order, and a monomial's
position in that list is its key at every order: graded-lex compares total
degree first, so the monomials of degree <= T are a prefix of the list.
The rows of the degree-<=T slice of the ideal are the truncated multiples
mult * g_j, and their keys come by index arithmetic, with no monomial
built and no dict lookup per term: beside the list, one "times x_i" table
per variable maps each key to the key of x_i times its monomial, read off
the list's index once and grown with it.  The monomials of degree e + 1
are, in graded-lex order, x_i times a prefix of those of degree e, for
i = nvars - 1 down to 0, so the keys of each multiple are those of a
multiple one degree lower mapped through one table (see
:func:`_multiple_keys`); one code path serves every number of variables.
The rows live in the sparse echelon kernel :class:`linalg.Echelon` that
also serves branch semigroups and dense ranks.  The pivot of each row is
its smallest monomial, so normal forms are unique and runs are
reproducible.  The kernel takes integer vectors:
:func:`linalg.integer_row` clears each generator and each reduced
polynomial of denominators once, and normal forms come back as Fractions.

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
rows it pays for, never a result.  Every algebra, in or out of the chain,
first checks the size comb(nvars + T, nvars) of its jet space against
``JET_SPACE_CAP`` and raises :class:`TruncationCapExceeded` above it,
before it lists a monomial.

An algebra can be derived from a ``base`` algebra, with no new
elimination of the base's generators: an untagged algebra at the same
order whose generators are a prefix of ``generators``.  Let V_T be the
span of the degree-<=T truncations trunc_T(mult * g) of the multiples of
all the generators, and W_T the base's part of it, spanned by base's
rows.  The derived algebra inserts, beside base's rows, trunc_T(h * b)
for each extra generator h and each standard monomial b of base, and no
other multiple of h.  These span V_T at any T.  Any monomial m of degree
<= T is NF_B(m), a combination of the b, plus an element r of W_T; and r
is a combination of the products mult * g_i of base's generators up to
terms of degree > T.  So trunc_T(h * m) is the same combination of the
trunc_T(h * b) plus trunc_T(h * r), and h * r differs from a sum of
products (x^c * mult) * g_i, x^c the monomials of h, only in degrees above
T, which truncation drops: trunc_T(h * r) lies in W_T.  By the echelon's
two facts the basis, ``primality_bound`` and every normal form then equal
those of a fresh build, from at most as many rows as base has standard
monomials per extra generator.  The Tjurina algebra extends the Milnor
algebra this way: f times each of the mu standard monomials, where every
multiple of f of degree <= T would be O(T^2) rows (780 against 40 for
u^2+v^41).

Ideal-membership witnesses (cofactors) fall out of the same reduction
with no extra linear solve: each row of a tagged algebra carries its
expression as an integer combination of the multiples mult * g_j, as
carried keys of its echelon (see :class:`linalg.Echelon`).  An algebra
sets the carry bound B to its own jet size, above every jet key,
and gives the multiple mult * g_j the key B + index(mult) * G + j, for G
generators.  Each generator is cleared once per algebra, g_j = G_j / d_j
with G_j integer and d_j the lcm of g_j's denominators; a multiple goes
in as mult * G_j carrying d_j, so the part of each row below B is
exactly its carried part's combination of the multiples.  The witness
core takes an integer P with its denominator d and reduces P / d: the
carried part K of the reduced vector decodes by divmod into mult and j
and gives integer cofactors C_j = -K, and the scale s of the reduction,
a multiple of d, gives P / d = sum(C_j / s * g_j) up to degree T.  The
defect P / d - sum(C_j / s * G_j / d_j) is then checked exactly without
a Fraction: times L * s, for L the lcm of the d_j, it is
L * (s / d) * P - sum((L / d_j) * C_j * G_j), an integer polynomial since
d divides s and each d_j divides L, and a nonzero factor changes no
order.  Its terms of degree <= T must all cancel; ``integer_witness``
returns the rest of it, up to a requested order that may exceed T, from
the same multiply.  ``normal_form`` and ``membership_with_witness`` clear
p once, call the integer cores, and divide by s only on the way out.

A witness is good to any order without a larger algebra.  With N the
primality bound, m^N lies in the ideal, so every x^b with |b| = N has a
witness whose defect has order > T.  ``lifted_witness`` trades each
defect term c * x^a for c * x^(a-b) times that defect, for a b <= a with
|b| = N, by adding c * x^(a-b) times the witness of x^b; each pass
raises the defect order by at least T + 1 - N >= 1.  The one lifting
cache holds the witness of each x^b per order it was read at, built on
first use and kept with the algebra; each pass shifts the cached terms
as it reads them, and the lifted cofactors pass the same exact defect
check at the requested order.

A :class:`JetAlgebra` is tagged by default, but
:func:`build_jet_algebra` always builds untagged: the Milnor algebra, its
doubling attempts and the Tjurina algebra derived from it carry no
cofactors, and in ``plane`` only the algebras the tail map reads
witnesses from are tagged.  A derived algebra and its base are untagged:
carried keys are numbered for one algebra's own generators.

The tail map's witness and re-check algebras have the same generators,
order and tags, so they insert the same multiples: a tagged algebra keeps
the list of multiples it built as ``multiples``, and the re-check takes
it as its ``multiples`` argument and inserts a copy of it in the order
its ``row_seed`` shuffles the copy to.  That is the order a rebuilt list
would take, since a shuffle depends only on the seed and the length, and
the re-check still runs its own full elimination; the list is built once
per tail map.  An insert copies its row, so the list is never changed.
No untagged algebra keeps its list, and neither does one given a list:
the Milnor and Tjurina algebras drop theirs after their build.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from itertools import chain, combinations_with_replacement, count, repeat
from math import comb, gcd, lcm
from operator import add, sub
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import NotInIdeal, NotMPrimary, TruncationCapExceeded
from .linalg import Echelon, integer_row
from .poly import Monomial, Poly, grlex_key

TRUNCATION_CAP = 64

# Most monomials an algebra's jet space may hold, checked before any is
# listed: above it the build raises TruncationCapExceeded (exit 3).
JET_SPACE_CAP = 100_000

_ZERO = Fraction(0)


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


_JET_TIMES: Dict[int, List[List[int]]] = {}


def _jet_times(nvars: int, degree: int) -> List[List[int]]:
    """The shared "times x_i" tables of ``nvars`` variables: entry k of
    table i is the key of x_i times the monomial of key k, for every
    monomial of total degree < ``degree``.

    They are read off the index of :func:`_jet_monomials` and grown on
    demand with it.  Each is a list of the index's own int objects, one
    pointer per entry, so the rows built from them share those objects;
    an int array is as small, but makes a new int object for each key
    read, which the rows then keep.
    """
    tables = _JET_TIMES.get(nvars)
    if tables is None:
        tables = _JET_TIMES[nvars] = [[] for _ in range(nvars)]
    below = comb(nvars + degree - 1, nvars)  # monomials of degree < degree
    if len(tables[0]) < below:
        monos, index = _jet_monomials(nvars, degree)
        for i, table in enumerate(tables):
            table.extend(
                index[mono[:i] + (mono[i] + 1,) + mono[i + 1 :]]
                for mono in monos[len(table) : below]
            )
    return tables


def _multiple_keys(
    nvars: int, keys: Sequence[int], degrees: Sequence[int], top: int
) -> Iterator[List[List[int]]]:
    """Yield, for e = 0, ..., top - degrees[0], one row for each multiplier
    x^a of degree e, in graded-lex order: the keys of the products
    x^a * x^m_t of degree <= ``top``, for monomials x^m_t with ``keys``,
    listed in ascending ``degrees``.

    Graded-lex order sorts the monomials of one degree by the exponent of
    x_0 first, so those of degree e + 1 are, in order, x_i times the
    monomials of degree e free of x_0, ..., x_(i-1), for i = nvars - 1
    down to 0; the latter are the first comb(e + nvars - 1 - i,
    nvars - 1 - i) monomials of degree e, in order.  So the keys of each
    multiplier are those of one multiplier a degree lower, without the
    terms that would leave degree ``top``, mapped through the times-x_i
    table: keys come by index arithmetic, with no monomial built.
    """
    times = _jet_times(nvars, top)
    cut = [bisect_right(degrees, room) for room in range(top + 1)]
    block = [keys[: cut[top]]]
    yield block
    for e in range(top - degrees[0]):
        room = cut[top - e - 1]
        lower = block if room == cut[top - e] else [row[:room] for row in block]
        block = []
        for i in reversed(range(nvars)):
            times_i = times[i].__getitem__
            for row in lower[: comb(e + nvars - 1 - i, nvars - 1 - i)]:
                block.append(list(map(times_i, row)))
        yield block


class JetAlgebra:
    """Quotient of the power-series ring by an m-primary ideal at order T.

    With ``base``, an untagged algebra at order T whose generators are a
    prefix of ``generators``, the rows extend base's instead of coming
    from a fresh elimination: the algebra inserts trunc_T(h * b) for each
    extra generator h and each standard monomial b of base.  Any monomial
    is its base normal form plus an element of base's span, and h times
    that element is a sum of multiples of base's generators up to degrees
    above T, so these rows span what every multiple of h would (see the
    module docstring); the result is untagged too.  ``tagged`` says
    whether rows carry their cofactors.  ``multiples``, the ``multiples``
    of a tagged algebra with the same generators and order, is inserted in
    place of a list built anew.  With ``row_seed``, the rows go in the
    order it shuffles a copy of the list to.
    """

    def __init__(
        self,
        generators: Sequence[Poly],
        truncation_order: int,
        row_seed: Optional[int] = None,
        tagged: bool = True,
        base: Optional["JetAlgebra"] = None,
        multiples: Optional[List[Dict[int, int]]] = None,
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
        self.tagged = tagged
        nvars = len(ambient)
        self._size = comb(nvars + truncation_order, nvars)  # keys below it
        if self._size > JET_SPACE_CAP:
            raise TruncationCapExceeded(
                f"jet space of {self._size} monomials at truncation order "
                f"{truncation_order} exceeds the cap of {JET_SPACE_CAP}"
            )
        self._monomials, self._index = _jet_monomials(nvars, truncation_order)
        # each generator cleared once: g_j = G_j / d_j, with integer G_j
        self._integer_generators = tuple(integer_row(g.terms) for g in generators)
        self._generator_lcm = L = lcm(*(d_j for _, d_j in self._integer_generators))
        # each (L / d_j) * G_j as (monomial, degree, coefficient) triples
        self._generator_terms = tuple(
            [(m, sum(m), (L // d_j) * c) for m, c in G_j.items()]
            for G_j, d_j in self._integer_generators
        )
        # the lifting cache: witnesses of x^b by (b, order), built lazily
        self._witnesses: Dict[Tuple[Monomial, int], tuple] = {}
        self._rows = Echelon(carry=self._size)
        if base is not None:
            if self.generators[: len(base.generators)] != base.generators:
                raise AssertionError("base generators are not a prefix")
            if base.truncation_order != truncation_order:
                raise AssertionError(
                    f"base order {base.truncation_order} is not {truncation_order}"
                )
            if base.tagged:
                raise AssertionError("a tagged base cannot be extended")
            if tagged:
                raise AssertionError("an untagged base gives no witnesses")
            # shared, not copied: an echelon never changes a stored row
            self._rows.rows.update(base._rows.rows)
        # A tagged algebra keeps the multiples it built, for a re-check to
        # insert reshuffled (see plane.tail_map_general); no other keeps any.
        self.multiples: Optional[List[Dict[int, int]]] = None
        if multiples is None:
            multiples = self._multiples(base)
            if tagged:
                self.multiples = multiples
        self._insert(multiples, row_seed)
        self._certify()

    # -- construction ------------------------------------------------------

    def _multiples(self, base: Optional["JetAlgebra"]) -> List[Dict[int, int]]:
        """The integer vectors to insert: with no ``base``, the vector of
        every multiple mult * g_j of degree <= T, by generator and then by
        mult in graded-lex order; with ``base``, :meth:`_extension`.

        Each generator goes in cleared of denominators: with d_j the lcm of
        g_j's denominators, the vector is that of d_j * mult * g_j, its keys
        those of :func:`_multiple_keys`.  If tagged, it carries d_j at the
        key bound + index(mult) * G + j, G being the number of generators,
        so a row's carried part is its integer combination of the multiples
        mult * g_j at any order.  Distinct terms of g_j stay distinct in
        mult * g_j, so no two terms share a key and none cancels.
        """
        if base is not None:
            return self._extension(base)
        T, nvars, G = self.truncation_order, len(self.ambient), len(self.generators)
        multiples: List[Dict[int, int]] = []
        for j in range(G):
            g_ints, d = self._integer_generators[j]
            # the terms of degree <= T, in graded-lex order
            support = sorted((sum(m), m, c) for m, c in g_ints.items() if sum(m) <= T)
            if not support:
                continue  # spans nothing in degree <= T
            degrees, monos, coefficients = zip(*support)
            keys = [self._index[m] for m in monos]
            keyed = chain.from_iterable(_multiple_keys(nvars, keys, degrees, T))
            rows = list(map(dict, map(zip, keyed, repeat(coefficients))))
            if self.tagged:
                for terms, tag in zip(rows, count(self._rows.carry + j, G)):
                    terms[tag] = d
            multiples += rows
        return multiples

    def _extension(self, base: "JetAlgebra") -> List[Dict[int, int]]:
        """The vector of trunc_T(h * b), h an extra generator cleared of
        denominators and b a standard monomial of ``base``, by generator and
        then by b in graded-lex order; the zero ones are left out.  With
        base's rows they span the slice V_T (see the module docstring)."""
        T, index = self.truncation_order, self._index
        rows: List[Dict[int, int]] = []
        for h_ints, _ in self._integer_generators[len(base.generators) :]:
            terms = [(m, sum(m), c) for m, c in h_ints.items()]
            for b in base.basis:
                room = T - sum(b)
                row = {
                    index[tuple(map(add, m, b))]: c
                    for m, degree, c in terms
                    if degree <= room
                }
                if row:
                    rows.append(row)
        return rows

    def _insert(self, multiples: List[Dict[int, int]], row_seed: Optional[int]) -> None:
        """Insert ``multiples``, in the order ``row_seed`` shuffles a copy of
        them to if it is given."""
        if row_seed is not None:
            multiples = list(multiples)
            random.Random(row_seed).shuffle(multiples)
        for terms in multiples:
            self._rows.insert(terms)

    def _certify(self) -> None:
        T = self.truncation_order
        keys = [i for i in range(self._size) if i not in self._rows.rows]
        self._position = {k: i for i, k in enumerate(keys)}
        self.basis: Tuple[Monomial, ...] = tuple(self._monomials[i] for i in keys)
        top = max((sum(m) for m in self.basis), default=-1)
        if top >= T:
            raise NotMPrimary(T)
        self.primality_bound: int = top + 1

    # -- queries -----------------------------------------------------------

    def colength(self) -> int:
        return len(self.basis)

    def _cleared(self, p: Poly) -> Tuple[Dict[Monomial, int], int]:
        if p.vars != self.ambient:
            raise ValueError("ambient mismatch")
        return integer_row(p.terms)

    def _reduce(self, P: Dict[Monomial, int], d: int):
        """``Echelon.reduce`` of the degree-<=T jet of P / d."""
        T, index = self.truncation_order, self._index
        jet = {index[m]: c for m, c in P.items() if sum(m) <= T}
        return self._rows.reduce(jet, d)

    def sparse_normal_form(self, P: Dict[Monomial, int], d: int) -> Dict[int, Fraction]:
        """The nonzero coordinates of the class of P / d over the
        standard-monomial basis, keyed by position in it, for P an integer
        term map in the ambient variables."""
        normal, _, _ = self._reduce(P, d)
        return {self._position[i]: c for i, c in normal.items()}

    def _defect(
        self,
        P: Dict[Monomial, int],
        d: int,
        cofactors: Sequence[Dict[Monomial, int]],
        s: int,
        order: int,
    ) -> Dict[Monomial, int]:
        """The integer defect L * s * (P / d - sum(C_j / s * g_j)) up to
        degree ``order``, without the terms that cancel: one multiply of
        each cofactor by its cleared generator, with no product term above
        ``order`` formed (see the module docstring)."""
        scale = self._generator_lcm * (s // d)
        defect = {m: scale * c for m, c in P.items() if sum(m) <= order}
        for C, g_terms in zip(cofactors, self._generator_terms):
            for m1, c1 in C.items():
                room = order - sum(m1)
                for m2, m2_degree, c2 in g_terms:
                    if m2_degree <= room:
                        m = tuple(map(add, m1, m2))
                        defect[m] = defect.get(m, 0) - c1 * c2
        return {m: c for m, c in defect.items() if c}

    def integer_witness(
        self, P: Dict[Monomial, int], d: int, order: int
    ) -> Tuple[List[Dict[Monomial, int]], int, Dict[Monomial, int]]:
        """Integer cofactors C_j and a scale s with P / d - sum(C_j / s * g_j)
        of order > min(T, ``order``), for P an integer term map, and that
        defect times L * s up to degree ``order`` (see the module
        docstring).  Its terms of degree <= T must cancel, or
        :class:`NotInIdeal` is raised, so it is empty for ``order`` <= T.

        A zero normal form says the jets of P / d and of the cofactor
        combination agree up to degree T; the defect's terms of degree in
        (T, ``order``] come from the same multiply that checks the rest.
        """
        if not self.tagged:
            raise AssertionError("an untagged jet algebra gives no witnesses")
        normal, carried, s = self._reduce(P, d)
        if normal:
            raise NotInIdeal(
                f"nonzero normal form on {[self._monomials[i] for i in sorted(normal)]}"
            )
        bound, G = self._rows.carry, len(self.generators)
        cofactors: List[Dict[Monomial, int]] = [{} for _ in self.generators]
        for key, c in carried.items():
            i, j = divmod(key - bound, G)
            cofactors[j][self._monomials[i]] = -c
        defect = self._defect(P, d, cofactors, s, order)
        _check_defect(defect, min(order, self.truncation_order))
        return cofactors, s, defect

    def lifted_witness(
        self, P: Dict[Monomial, int], d: int, order: int
    ) -> Tuple[List[Dict[Monomial, int]], int]:
        """Integer cofactors C_j and a scale s with P / d - sum(C_j / s * g_j)
        of order > ``order``, for any ``order``: the witness at T, lifted
        through the witnesses of the monomials of degree N, the primality
        bound.

        The loop keeps the defect D = L * (s / d) * P - sum((L / d_j) * C_j
        * G_j) up to degree ``order``.  Each pass splits every defect term
        c * x^a (of degree > T >= N) as x^b * x^(a-b) with |b| = N, taking
        from the first variables first, and reads the witness (A_b, s_b,
        D_b) of x^b, computed once per algebra and order.  With S the lcm
        of the s_b, it multiplies s and every C_j by L * S and adds
        c * (S / s_b) * x^(a-b) * A_b to the cofactors; the invariant then
        leaves D = sum(c * (S / s_b) * x^(a-b) * D_b).  Each D_b has order
        > T, so each pass raises the defect order by at least T + 1 - N
        >= 1 and the loop ends.  Then the content is divided out, keeping
        d | s, and the final cofactors must pass the exact defect check, or
        :class:`NotInIdeal` is raised.
        """
        cofactors, s, defect = self.integer_witness(P, d, order)
        if not defect:
            return cofactors, s
        L, T, N = self._generator_lcm, self.truncation_order, self.primality_bound
        # D_b is needed up to degree ``order`` - |a - b|, and the shift
        # |a - b| = |a| - N is at least T + 1 - N
        witness_order = order - (T + 1 - N)
        while defect:
            steps, S = [], 1
            for a, c in defect.items():
                b, n = [], N
                for e in a:
                    b.append(min(e, n))
                    n -= b[-1]
                b = tuple(b)
                witness = self._witnesses.get((b, witness_order))
                if witness is None:
                    A_b, s_b, D_b = self.integer_witness({b: 1}, 1, witness_order)
                    witness = self._witnesses[b, witness_order] = (
                        [list(A.items()) for A in A_b],
                        s_b,
                        sorted((sum(m), m, x) for m, x in D_b.items()),
                    )
                steps.append((c, tuple(map(sub, a, b)), witness))
                S = lcm(S, witness[1])
            if L * S != 1:
                s *= L * S
                cofactors = [{m: L * S * x for m, x in C.items()} for C in cofactors]
            defect = {}
            for c, shift, (A_b, s_b, D_b) in steps:
                k = c * (S // s_b)
                for C, A in zip(cofactors, A_b):
                    for m, x in A:
                        m = tuple(map(add, m, shift))
                        C[m] = C.get(m, 0) + k * x
                room = order - sum(shift)
                for m_degree, m, x in D_b:
                    if m_degree > room:
                        break
                    m = tuple(map(add, m, shift))
                    defect[m] = defect.get(m, 0) + k * x
            defect = {m: c for m, c in defect.items() if c}
        content = gcd(s // d, *(c for C in cofactors for c in C.values()))
        s //= content
        cofactors = [{m: c // content for m, c in C.items() if c} for C in cofactors]
        _check_defect(self._defect(P, d, cofactors, s, order), order)
        return cofactors, s

    def normal_form(self, p: Poly) -> List[Fraction]:
        """Coordinates of p's class over the standard-monomial basis."""
        normal = self.sparse_normal_form(*self._cleared(p))
        return [normal.get(i, _ZERO) for i in range(len(self.basis))]

    def membership_with_witness(self, p: Poly, order: int) -> Tuple[Poly, ...]:
        """Cofactors c_i, one per generator g_i, with p - sum(c_i * g_i) of
        order > ``order`` <= T: :meth:`integer_witness` on p cleared, as
        Fractions."""
        if order > self.truncation_order:
            raise ValueError(
                f"order {order} exceeds certified range {self.truncation_order}"
            )
        cofactors, s, _ = self.integer_witness(*self._cleared(p), order)
        return tuple(
            Poly._unchecked(self.ambient, {m: Fraction(c, s) for m, c in C.items()})
            for C in cofactors
        )


def _check_defect(defect: Dict[Monomial, int], order: int) -> None:
    """Raise :class:`NotInIdeal` unless every term of ``defect`` has degree
    > ``order``."""
    defect_order = min((sum(m) for m in defect), default=None)
    if defect_order is not None and defect_order <= order:
        raise NotInIdeal(f"witness defect has order {defect_order} <= {order}")


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
    directly.  Rows are inserted in generator order, with no carried
    cofactors.
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
