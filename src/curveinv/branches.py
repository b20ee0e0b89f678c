"""Delta invariants and branch counts from parametrizations.

A branch parametrization generates a subalgebra of the power-series ring
in t; the t-orders attained by that subalgebra form the value semigroup,
computed here by subalgebra saturation (see ``branch_semigroup``) on the
sparse echelon kernel :class:`linalg.Echelon` that also serves jet
algebras and the sparse ranks of :func:`linalg.rank` (:func:`linalg.rref`
is the one dense function, kept while ``perfbench/tracing.py`` wraps
it).  Each image enters it once as an integer
multiple, so saturation multiplies integer series.  The saturation runs
its queue in ascending t-order, so the orders below the queue minimum are
final; the gap count below the conductor is the one-branch delta, read as
the orders become final, and the saturation stops at the conductor.
Multibranch delta adds pairwise intersection multiplicities, which need a
defining equation per branch.  Milnor's formula mu = 2*delta - r + 1 is
asserted against the independently computed mu as the end-to-end
cross-check.  Branch images are polynomials in t, so equations are pulled
back along branches exactly; the semigroup is the only computation with a
working order.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Iterator, List, Set, Tuple

from .errors import (
    DegenerateBranch,
    MilnorMismatch,
    MissingBranchEquation,
    NoConductor,
    NotTransverseAtOrder,
    SchemaError,
)
from .linalg import Echelon, integer_row
from .plane import PlaneSingularity
from .poly import BranchParam, DeltaR, Poly

# The one working order of every branch semigroup.  The saturation stops
# at the conductor, so the orders above it cost nothing; a branch with no
# conductor up to it raises NoConductor (exit 1).
WORKING_ORDER_CAP = 4096

Series = Dict[int, int]  # t-exponent -> nonzero integer coefficient


def _saturate(
    b: BranchParam, order: int
) -> Iterator[Tuple[int, Dict[int, Series]]]:
    """Saturate the images' subalgebra truncated above ``order``; yield
    (q, rows) each time q, the lowest order left in the queue and so a
    bound below which every pivot is final, rises, and (order + 1, rows)
    once the queue is empty.  ``rows`` is the live pivot -> row map of the
    :class:`linalg.Echelon`.

    The queue holds products row * g in buckets by lowest t-order, each
    bucket in insertion order, so runs are deterministic; it starts with
    the series 1 as 1 * 1.  A product's lowest order is pivot + ord(g),
    since the product of the two lowest terms is its only term there, so
    its bucket is known before it is formed: a product that truncates to
    zero is never queued, and a queued one is formed only when its bucket
    is processed.  A bucket gains no entry while it is processed, since
    ord(g) >= 1 puts every product above the row's pivot.  See
    ``branch_semigroup`` for why the pivots are the orders of A and why
    those below the queue minimum are final.
    """
    gens = [
        integer_row({m[0]: c for m, c in img.terms.items()})[0]
        for img in b.images if not img.is_zero()
    ]
    lows = [min(g) for g in gens]
    if all(low > order for low in lows):
        raise DegenerateBranch(
            f"all images vanish to working order {order}"
        )
    echelon = Echelon()
    rows = echelon.rows
    queue: Dict[int, List[Tuple[Series, Series]]] = {0: [({0: 1}, {0: 1})]}
    for q in range(order + 1):
        bucket = queue.pop(q, None)
        if bucket is None:
            continue
        yield q, rows
        for row, g in bucket:
            series: Series = {}
            for k1, c1 in row.items():
                for k2, c2 in g.items():
                    k = k1 + k2
                    if k <= order:
                        series[k] = series.get(k, 0) + c1 * c2
            new = echelon.insert({k: c for k, c in series.items() if c})
            if new is None:
                continue
            pivot = min(new)
            for g, low in zip(gens, lows):
                if pivot + low <= order:
                    queue.setdefault(pivot + low, []).append((new, g))
        if not queue:
            break
    yield order + 1, rows


def branch_semigroup(b: BranchParam, order: int) -> Set[int]:
    """Value semigroup of the branch, intersected with [0, order].

    These are the lowest t-orders of the elements of A, the image in
    k[t]/(t^(order+1)) of the subalgebra generated by the images.

    Saturation (``_saturate``, run here to exhaustion): series keyed by
    t-exponent go into a :class:`linalg.Echelon`, whose pivot is the
    lowest t-order, from a queue that starts with the series 1; each time
    an insertion adds a row, the row's products with every image,
    truncated above ``order``, are queued (those that truncate to zero are
    skipped).  The queue is processed in ascending order of each series'
    lowest t-order.  Each new row takes a new pivot in [0, order], so
    there are at most order + 1 rows and (order + 1) * e products.

    Proof that the pivots are the orders attained by A.  Let V be the
    span of the rows when the queue is empty.  V is inside A: 1 is in A,
    A is closed under products with the images, and every row is a
    queued element minus a combination of earlier rows.  A is inside V:
    V contains 1, and for every row r and image g the truncated product
    r*g was queued and reduced to a combination of rows, so V is closed
    under multiplication by each image; by induction on the degree it
    contains every truncated monomial in the images, and those span A.
    So V = A, and by the echelon's pivot fact the pivot set is the set of
    lowest orders of A, whatever the order in which the queue is
    processed.  None of this uses that the images are monomials.

    Proof that a pivot below the queue minimum q is final.  Inserting a
    series never gives its row a pivot below the series' lowest order, so
    every row still to come from the queue has a pivot >= q.  Such a row's
    products have lowest order pivot + ord(g) > pivot >= q, since every
    image vanishes at t = 0.  So the queue minimum never decreases, no
    later row takes a pivot below q, and the orders below q are already
    classified: the values are the pivots, the rest are gaps.

    Each image enters as its integer multiple (:func:`linalg.integer_row`):
    a nonzero multiple of a generator generates the same subalgebra, with
    the same orders, and keeps every row and product an integer series.
    """
    for _, rows in _saturate(b, order):
        pass
    return set(rows)


def delta_one_branch(b: BranchParam, order: int) -> int:
    """Number of semigroup gaps below the conductor, the smallest c with a
    full run [c, c + s_min) of values, s_min the smallest nonzero value.

    Each order below the queue minimum of the saturation is final (see
    ``branch_semigroup``), so the orders are classified in ascending order
    as they become final, and the saturation stops at the first run of
    s_min consecutive values: every later integer is a value too.  The
    working order only bounds the truncation; NoConductor if [0, order]
    holds no such run.
    """
    n = gaps = run = s_min = 0
    for final, rows in _saturate(b, order):
        while n < final:
            if n in rows:
                run += 1
                if not s_min and n:
                    s_min = n
                if s_min and run >= s_min:
                    return gaps
            else:
                gaps += 1
                run = 0
            n += 1
    if not s_min:
        raise NoConductor(f"no nonzero semigroup value up to {order}")
    raise NoConductor(f"no run of {s_min} consecutive values up to {order}")


def check_primitive(b: BranchParam, path: str) -> None:
    """SchemaError at ``path`` if every image t-exponent shares a factor d > 1.

    Then every image is a polynomial in t^d, so the parametrization factors
    through t -> t^d and covers its branch d times; its semigroup values
    are all multiples of d and have no conductor.  The test is sufficient,
    not necessary: a parametrization through some other series in t has
    exponents with gcd 1 and still runs to the cap.
    """
    d = gcd(*(m[0] for img in b.images for m in img.terms))
    if d > 1:
        raise SchemaError(f"parametrization factors through t^{d}", path)


def intersection_multiplicity(f_other: Poly, b: BranchParam) -> int:
    """t-order of the other equation pulled back exactly along the branch."""
    o = b.pullback(f_other).order()
    if o is None:
        raise NotTransverseAtOrder(
            "the branch lies on the other equation: its pullback is zero"
        )
    return o


def check_milnor_formula(mu: int, delta: int, r: int) -> None:
    """Raise MilnorMismatch unless mu = 2*delta - r + 1."""
    if mu != 2 * delta - r + 1:
        raise MilnorMismatch(
            f"mu={mu} but 2*delta - r + 1 = {2 * delta - r + 1} "
            f"(delta={delta}, r={r})"
        )


def delta_report(s: PlaneSingularity, mu: int) -> DeltaR:
    """delta and r from branch data, checked against mu by Milnor's formula."""
    if not s.branches:
        raise SchemaError("no branch data supplied", "branches")
    for i, br in enumerate(s.branches):
        composed = br.pullback(s.f)
        if not composed.is_zero():
            raise SchemaError(
                f"branch does not annihilate the equation (order "
                f"{composed.order()} term survives)",
                f"branches[{i}]",
            )
        check_primitive(br, f"branches[{i}]")
    delta = sum(delta_one_branch(br, WORKING_ORDER_CAP) for br in s.branches)
    for i, br in enumerate(s.branches):
        for j in range(i + 1, len(s.branches)):
            if br.equation is None:
                raise MissingBranchEquation(
                    f"branch {i} has no equation; needed for pairwise "
                    "intersection numbers"
                )
            try:
                delta += intersection_multiplicity(br.equation, s.branches[j])
            except NotTransverseAtOrder as exc:
                raise SchemaError(
                    f"repeats branches[{i}]: its equation pulls back to zero",
                    f"branches[{j}]",
                ) from exc
    r = len(s.branches)
    check_milnor_formula(mu, delta, r)
    return DeltaR(delta, r, "computed")
