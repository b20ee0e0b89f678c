"""Exact linear algebra over the rationals: one sparse echelon kernel.

:class:`Echelon` is the only elimination in the package: jet algebras,
branch value semigroups and the dense ranks and nullspaces below all use
it.  It eliminates fraction-free and takes integer vectors only: each
caller clears a rational input of denominators once, where it enters,
with :func:`integer_row`, and ``Fraction`` appears again only in the
normal forms ``reduce`` returns and in :func:`rref`.  It is
deterministic, so repeated runs give identical results.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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


def _subtract(work: Sparse, factor: int, row: Mapping[int, int]) -> None:
    """work -= factor * row, in place, dropping the entries that cancel."""
    for k, c in row.items():
        new = work.get(k, 0) - factor * c
        if new:
            work[k] = new
        else:
            del work[k]


def _scale(vec: Sparse, factor: int) -> None:
    for k in vec:
        vec[k] *= factor


class Echelon:
    """A sparse row echelon basis of a subspace, grown one row at a time.

    A row is a ``Dict[int, int]`` of nonzero integer coefficients.  Its
    pivot is its smallest key, and ``rows`` maps each pivot to its row, so
    no two rows share a pivot.  A row may carry a tag, a second integer
    vector that undergoes the same row operations: with a unit-vector tag
    per inserted vector, a row's tag expresses the row as a combination of
    the inserted vectors.  Tags are given for every row or for none.
    Inserted vectors, their tags and the vectors to reduce are integer
    vectors; the kernel clears no denominators (see :func:`integer_row`).

    Rows are stored as found by fraction-free elimination: a row meets a
    stored row at that row's pivot with coefficients w and r, and becomes
    (r/g)*work - (w/g)*row with g = gcd(w, r), so no key gains a
    denominator.  A new row is then divided by the content (gcd) of its
    row and tag entries together and signed so that its pivot coefficient
    is positive: every stored row is primitive jointly with its tag, and
    row = tag . inserted vectors still holds exactly.

    Two facts every caller relies on, for any insertion order:

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

    __slots__ = ("rows", "tags")

    def __init__(self):
        self.rows: Dict[int, Sparse] = {}
        self.tags: Dict[int, Sparse] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def _eliminate(
        self, work: Sparse, combo: Optional[Sparse], scale: int, full: bool
    ) -> Tuple[Dict[int, Fraction], int]:
        """Cancel stored pivots in ``work`` in place, smallest key first.

        On entry, work = scale * v for the vector v being reduced; the
        elimination keeps work = scale * v - combo . inserted vectors, with
        ``combo`` (the tags of the rows used) tracked if it is given, and
        returns the final scale.  With ``full``, move every key that is not
        a pivot to the returned normal form of v; otherwise stop at the
        first such key.
        """
        rows, tags = self.rows, self.tags
        normal: Dict[int, Fraction] = {}
        while work:
            key = min(work)
            row = rows.get(key)
            if row is None:
                if not full:
                    break
                normal[key] = Fraction(work.pop(key), scale)
                continue
            w, r = work[key], row[key]
            g = gcd(w, r)
            a, b = r // g, w // g
            if a != 1:
                scale *= a
                _scale(work, a)
                if combo is not None:
                    _scale(combo, a)
            _subtract(work, b, row)
            if combo is not None:
                _subtract(combo, -b, tags[key])
        return normal, scale

    def insert(self, row: Sparse, tag: Optional[Sparse] = None) -> Optional[Sparse]:
        """Add the integer vector ``row`` to the span, with its integer
        ``tag``; the new primitive row, or None if dependent."""
        work = dict(row)
        combo: Optional[Sparse] = None if tag is None else {}
        _, scale = self._eliminate(work, combo, 1, full=False)
        if not work:
            return None
        pivot = min(work)
        new_tag: Sparse = {}
        if tag is not None:
            # work = scale * row - combo . inserted vectors
            new_tag = {k: scale * c for k, c in tag.items()}
            _subtract(new_tag, 1, combo)
        content = gcd(*work.values(), *new_tag.values())
        if work[pivot] < 0:
            content = -content
        if content != 1:
            work = {k: c // content for k, c in work.items()}
            new_tag = {k: c // content for k, c in new_tag.items()}
        self.rows[pivot] = work
        if tag is not None:
            self.tags[pivot] = new_tag
        return work

    def reduce(
        self, row: Sparse, d: int, track: bool = False
    ) -> Tuple[Dict[int, Fraction], Optional[Sparse], int]:
        """Normal form of v = row / d, for the integer vector ``row``, as
        Fractions; with ``track``, the integer combination C of the tags of
        the rows subtracted (else None); and the scale s it tracked, a
        multiple of d.  v minus its normal form is (C / s) . tags, so a
        caller can stay in integers until it divides by s."""
        combo: Optional[Sparse] = {} if track else None
        normal, scale = self._eliminate(dict(row), combo, d, full=True)
        return normal, combo, scale


def _echelon(rows: Sequence[Sequence[Fraction]]) -> Echelon:
    """The rows of a dense matrix in an :class:`Echelon` keyed by column.

    Each row goes in as its integer multiple: scaling a row changes
    neither the row space nor its pivots.
    """
    echelon = Echelon()
    for row in rows:
        echelon.insert(integer_row({j: x for j, x in enumerate(row) if x})[0])
    return echelon


def rref(rows: Sequence[Sequence[Fraction]]) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form and the list of pivot column indices.

    The rows go into an :class:`Echelon` keyed by column.  For a pivot p,
    the unit vector e_p minus its normal form lies in the row space, has
    entry 1 at p and 0 at every other pivot, so it is row p of the RREF;
    the RREF is unique, so this equals Gauss-Jordan elimination.  Zero
    rows fill the matrix up to the input's row count.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    echelon = _echelon(rows)
    pivots = sorted(echelon.rows)
    red: Matrix = []
    for p in pivots:
        normal, _, _ = echelon.reduce({p: 1}, 1)
        red.append([Fraction(j == p) - normal.get(j, 0) for j in range(ncols)])
    red.extend([Fraction(0)] * ncols for _ in range(len(rows) - len(pivots)))
    return red, pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Number of rows of an echelon basis of the row space; no RREF is built."""
    return len(_echelon(rows))


def nullspace(rows: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """Basis of the right nullspace; one vector per free column, ascending.

    Each basis vector has entry 1 at its free column, so the nullspace of a
    zero matrix is the standard basis in order.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, pcol in enumerate(pivots):
            vec[pcol] = -red[r][free]
        basis.append(vec)
    return basis
