"""Exact linear algebra over Fraction: one sparse echelon kernel.

:class:`Echelon` is the only elimination in the package: jet algebras,
branch value semigroups and the dense ranks and nullspaces below all use
it.  It is deterministic, so repeated runs give identical results.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

Matrix = List[List[Fraction]]
Sparse = Dict[int, Fraction]  # key -> nonzero coefficient


def _subtract(work: Sparse, factor: Fraction, row: Mapping[int, Fraction]) -> None:
    """work -= factor * row, in place, dropping the entries that cancel."""
    for k, c in row.items():
        new = work.get(k, 0) - factor * c
        if new:
            work[k] = new
        else:
            del work[k]


class Echelon:
    """A sparse row echelon basis of a subspace, grown one row at a time.

    A row is a ``Dict[int, Fraction]`` of nonzero coefficients.  Its pivot
    is its smallest key and the pivot coefficient is 1; ``rows`` maps each
    pivot to its row, so no two rows share a pivot.  A row may carry a tag,
    a second sparse vector that undergoes the same row operations: with a
    unit-vector tag per inserted vector, a row's tag expresses the row as a
    combination of the inserted vectors.  Tags are given for every row or
    for none.

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
    """

    __slots__ = ("rows", "tags")

    def __init__(self):
        self.rows: Dict[int, Sparse] = {}
        self.tags: Dict[int, Sparse] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def _eliminate(self, work: Sparse, combo: Optional[Sparse], full: bool) -> Sparse:
        """Subtract rows from ``work`` in place, smallest key first, and
        add their tags with the same factors to ``combo`` if it is given.

        With ``full``, move every key that is not a pivot to the returned
        normal form; otherwise stop at the first such key.
        """
        rows, tags = self.rows, self.tags
        normal: Sparse = {}
        while work:
            key = min(work)
            row = rows.get(key)
            if row is None:
                if not full:
                    break
                normal[key] = work.pop(key)
                continue
            factor = work[key]
            _subtract(work, factor, row)
            if combo is not None:
                _subtract(combo, -factor, tags[key])
        return normal

    def insert(
        self, terms: Mapping[int, Fraction], tag: Optional[Mapping[int, Fraction]] = None
    ) -> Optional[Sparse]:
        """Add ``terms`` to the span; the normalized new row, or None if dependent."""
        work = dict(terms)
        combo: Optional[Sparse] = None if tag is None else {}
        self._eliminate(work, combo, full=False)
        if not work:
            return None
        pivot = min(work)
        inv = Fraction(1) / work[pivot]
        row = {k: c * inv for k, c in work.items()}
        self.rows[pivot] = row
        if tag is not None:
            new_tag = dict(tag)
            _subtract(new_tag, 1, combo)
            self.tags[pivot] = {k: c * inv for k, c in new_tag.items()}
        return row

    def reduce(
        self, terms: Mapping[int, Fraction], track: bool = False
    ) -> Tuple[Sparse, Optional[Sparse]]:
        """Normal form of ``terms``; with ``track``, the tag combination subtracted."""
        combo: Optional[Sparse] = {} if track else None
        normal = self._eliminate(dict(terms), combo, full=True)
        return normal, combo


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
    echelon = Echelon()
    for row in rows:
        echelon.insert({j: Fraction(x) for j, x in enumerate(row) if x})
    pivots = sorted(echelon.rows)
    red: Matrix = []
    for p in pivots:
        normal, _ = echelon.reduce({p: Fraction(1)})
        red.append([Fraction(j == p) - normal.get(j, 0) for j in range(ncols)])
    red.extend([Fraction(0)] * ncols for _ in range(len(rows) - len(pivots)))
    return red, pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows)[1])


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
