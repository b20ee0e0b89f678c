"""Exact linear algebra over the rationals: one sparse echelon kernel.

:class:`Echelon` is the only elimination in the package: jet algebras,
branch value semigroups, column kernels and ranks all use it.  It
eliminates fraction-free, in one loop per call written into each of its
two methods, and takes integer vectors only: each caller clears a
rational input of denominators once, where it enters, with
:func:`integer_row`, and ``Fraction`` appears again only in the normal
forms ``reduce`` returns, in kernel vectors and in :func:`rref`.  Every
vector is sparse, index -> nonzero entry, except in :func:`rref`.  It is
deterministic, so repeated runs give identical results.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm
from operator import attrgetter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

Matrix = List[List[Fraction]]
Sparse = Dict[int, int]  # key -> nonzero integer coefficient


_NUMERATOR = attrgetter("numerator")
_DENOMINATOR = attrgetter("denominator")


def integer_row(vec: Mapping) -> Tuple[dict, int]:
    """(d * vec, d) for d the lcm of the denominators of vec's int or
    Fraction coefficients: the smallest positive integer multiple of vec."""
    d = lcm(*map(_DENOMINATOR, vec.values()))
    if d == 1:
        return dict(zip(vec, map(_NUMERATOR, vec.values()))), 1
    return {k: c.numerator * (d // c.denominator) for k, c in vec.items()}, d


class Echelon:
    """A sparse row echelon basis of a subspace, grown one row at a time.

    A row is a ``Dict[int, int]`` of nonzero integer coefficients.  Keys at
    or above the bound ``carry`` (none by default) are carried: they go
    through every row operation but never become pivots and never enter a
    normal form.  A row's pivot is its smallest key below the bound, and
    ``rows`` maps each pivot to its row, so no two rows share a pivot.  A
    caller who gives each inserted vector x_k a carried key k of its own,
    with value t_k, can read every row off its carried part C:
    row = sum(C[k] * x_k / t_k).  Inserted vectors and the vectors to
    reduce are integer vectors; the kernel clears no denominators (see
    :func:`integer_row`).

    Rows are stored as found by fraction-free elimination: a row meets a
    stored row at that row's pivot with coefficients w and r, and becomes
    (r/g)*work - (w/g)*row with g = gcd(w, r), so no key gains a
    denominator.  Each of ``insert`` and ``reduce`` runs this step in one
    loop of its own, with no helper call per row: ``insert`` stops at the
    first key that is no pivot and tracks no scale, ``reduce`` runs to the
    end and tracks the scale its normal form is divided by.  A new row is
    then divided by the content (gcd) of all its entries, carried ones
    included, and signed so that its pivot coefficient is positive: every
    stored row is primitive, and its carried part still records it
    exactly.

    Elimination reads only the keys below the bound, so the carried keys
    change no pivot, multiplier or scale.  Two facts every caller relies
    on hold for the part below the bound, for any insertion order:

    * The pivot set is the set of smallest keys of the nonzero vectors in
      the span.  The rows have distinct pivots, so the smallest key of a
      nonzero combination of them is the smallest pivot it uses; hence the
      pivot set depends only on the span, not on the basis or on the order
      in which vectors were inserted.
    * The normal form of v, the element of ``v + span`` supported off the
      pivots, is unique: two such elements differ by a span element
      supported off the pivots, and such an element is zero by the first
      fact.  So ``reduce`` returns the same normal form for any basis.

    Neither fact reads a row's scale: multiplying any row by a nonzero
    number changes neither the span nor the pivots.  So the integer rows
    give the same pivots and normal forms as rows with pivot coefficient 1,
    and a caller may store any nonzero multiple of a row in its place.
    """

    __slots__ = ("rows", "carry")

    def __init__(self, carry: Optional[int] = None):
        self.rows: Dict[int, Sparse] = {}
        self.carry = inf if carry is None else carry

    def __len__(self) -> int:
        return len(self.rows)

    def insert(self, row: Sparse) -> Optional[Sparse]:
        """Add the integer vector ``row`` to the span; the new primitive
        row, or None if ``row`` is dependent below the bound.

        The loop cancels stored pivots in a copy of ``row``, smallest key
        first, and stops at the first key that is no pivot: the new row's
        pivot, unless it is carried.  No scale is tracked, since the row
        is divided by its content at the end.
        """
        rows, work = self.rows, dict(row)
        while work:
            pivot = min(work)
            stored = rows.get(pivot)
            if stored is None:
                break
            w, r = work[pivot], stored[pivot]
            g = gcd(w, r)
            a, b = r // g, w // g
            if a != 1:
                for k in work:
                    work[k] *= a
            for k, c in stored.items():
                new = work.get(k, 0) - b * c
                if new:
                    work[k] = new
                else:
                    del work[k]
        if not work or pivot >= self.carry:
            return None
        content = gcd(*work.values())
        if work[pivot] < 0:
            content = -content
        if content != 1:
            work = {k: c // content for k, c in work.items()}
        rows[pivot] = work
        return work

    def reduce(self, row: Sparse, d: int) -> Tuple[Dict[int, Fraction], Sparse, int]:
        """Normal form of v = row / d, for the integer vector ``row`` below
        the bound, as Fractions; the integer carried part K of the reduced
        vector; and the scale s of the reduction, a multiple of d.  With
        carried keys as in the class docstring, v minus its normal form is
        sum(-K[k] / s * x_k / t_k), so a caller can stay in integers until
        it divides by s.

        The loop starts from work = row and s = d, and keeps work plus s
        times the normal form found so far equal to s * v plus a
        combination of the rows.  It cancels stored pivots smallest key
        first and moves each key below the bound that is no pivot to the
        normal form, divided by the scale at that point: a row met later
        has a larger pivot, so it never touches that key.
        """
        rows, carry, work, scale = self.rows, self.carry, dict(row), d
        normal: Dict[int, Fraction] = {}
        while work:
            key = min(work)
            stored = rows.get(key)
            if stored is None:  # every pivot lies below the bound
                if key >= carry:
                    break
                normal[key] = Fraction(work.pop(key), scale)
                continue
            w, r = work[key], stored[key]
            g = gcd(w, r)
            a, b = r // g, w // g
            if a != 1:
                scale *= a
                for k in work:
                    work[k] *= a
            for k, c in stored.items():
                new = work.get(k, 0) - b * c
                if new:
                    work[k] = new
                else:
                    del work[k]
        return normal, work, scale


def rref(rows: Sequence[Sequence[Fraction]]) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form and the list of pivot column indices.

    The rows go into an :class:`Echelon` keyed by column, each scaled to
    integers.  For a pivot p, the unit vector e_p minus its normal form lies
    in the row space, has entry 1 at p and 0 at every other pivot, so it is
    row p of the RREF; the RREF is unique, so this equals Gauss-Jordan
    elimination.  Zero rows fill the matrix up to the input's row count.  No
    package code calls it; it stays while ``perfbench/tracing.py`` wraps
    ``linalg.rref`` by name.  It is the one dense function here.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    echelon = Echelon()
    for row in rows:
        echelon.insert(integer_row({j: x for j, x in enumerate(row) if x})[0])
    pivots = sorted(echelon.rows)
    red: Matrix = []
    for p in pivots:
        normal, _, _ = echelon.reduce({p: 1}, 1)
        red.append([Fraction(j == p) - normal.get(j, 0) for j in range(ncols)])
    red.extend([Fraction(0)] * ncols for _ in range(len(rows) - len(pivots)))
    return red, pivots


def rank(vectors: Iterable[Mapping[int, Fraction]]) -> int:
    """Dimension of the span of sparse vectors, each given as index ->
    nonzero entry: the rank of a matrix given by its rows or by its
    columns.  It counts the rows of an echelon basis; no RREF is built."""
    echelon = Echelon()
    for vec in vectors:
        echelon.insert(integer_row(vec)[0])
    return len(echelon)


def column_nullspace(
    columns: Sequence[Mapping[int, Fraction]], n: int
) -> List[Dict[int, Fraction]]:
    """Kernel basis of the matrix with these columns, of length n, each
    given sparse as row index -> nonzero entry: one vector per column that
    depends on the columns before it, ascending, sparse in the same way.

    Column j goes into an :class:`Echelon` as its integer vector d_j * c_j
    carrying d_j at key n + j, once it is seen not to reduce to zero.  If it
    does, with carried part K and scale s, then s * c_j + sum(K[n + k] * c_k)
    is 0, and e_j + sum(K[n + k] / s * e_k) is the one kernel vector with
    entry 1 at j and 0 at every other dependent column: the Gauss-Jordan
    basis vector.  A zero matrix gives the standard basis in order.
    """
    echelon, basis = Echelon(carry=n), []
    for j, column in enumerate(columns):
        ints, d = integer_row(column)
        normal, K, s = echelon.reduce(ints, d)
        if normal:
            echelon.insert({**ints, n + j: d})
        else:
            vec = {k - n: Fraction(c, s) for k, c in sorted(K.items())}
            vec[j] = Fraction(1)
            basis.append(vec)
    return basis
