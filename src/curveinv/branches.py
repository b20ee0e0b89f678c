"""Delta invariants and branch counts from parametrizations.

A branch parametrization generates a subalgebra of the power-series ring
in t; the t-orders attained by that subalgebra form the value semigroup,
computed here by subalgebra saturation (see ``branch_semigroup``) on the
sparse echelon kernel :class:`linalg.Echelon` that also serves jet
algebras and dense ranks.  Each image enters it once as an integer
multiple, so saturation multiplies integer series.  The gap count below
the conductor is the one-branch delta; multibranch delta adds pairwise
intersection multiplicities, which need a defining equation per branch.
Milnor's formula mu = 2*delta - r + 1 is asserted against the
independently computed mu as the end-to-end cross-check.  Branch images
are polynomials in t, so equations are pulled back along branches
exactly; the semigroup is the only computation with a working order.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List, Set

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

WORKING_ORDER_CAP = 4096

Series = Dict[int, int]  # t-exponent -> nonzero integer coefficient


def branch_semigroup(b: BranchParam, order: int) -> Set[int]:
    """Value semigroup of the branch, intersected with [0, order].

    These are the lowest t-orders of the elements of A, the image in
    k[t]/(t^(order+1)) of the subalgebra generated by the images.

    Saturation: series keyed by t-exponent go into a
    :class:`linalg.Echelon`, whose pivot is the lowest t-order, from a
    queue that starts with the series 1; each time an insertion adds a
    row, the row's products with every image, truncated above ``order``,
    are queued.  Each new row takes a new pivot in [0, order], so there
    are at most order + 1 rows and (order + 1) * e products.

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

    Each image enters as its integer multiple (:func:`linalg.integer_row`):
    a nonzero multiple of a generator generates the same subalgebra, with
    the same orders, and keeps every row and product an integer series.
    """
    gens = [
        integer_row({m[0]: c for m, c in img.terms.items()})[0]
        for img in b.images if not img.is_zero()
    ]
    if all(min(g) > order for g in gens):
        raise DegenerateBranch(
            f"all images vanish to working order {order}"
        )
    echelon = Echelon()
    queue: List[Series] = [{0: 1}]
    while queue:
        row = echelon.insert(queue.pop())
        if row is None:
            continue
        for g in gens:
            prod: Series = {}
            for k1, c1 in row.items():
                for k2, c2 in g.items():
                    k = k1 + k2
                    if k <= order:
                        prod[k] = prod.get(k, 0) + c1 * c2
            prod = {k: c for k, c in prod.items() if c}
            if prod:
                queue.append(prod)
    return set(echelon.rows)


def _conductor(values: Set[int], order: int) -> int:
    """Smallest c with a full run [c, c + s_min) of values; else NoConductor."""
    nonzero = sorted(v for v in values if v > 0)
    if not nonzero:
        raise NoConductor(f"no nonzero semigroup value up to {order}")
    s_min = nonzero[0]
    for c in range(0, order - s_min + 2):
        if all(c + i in values for i in range(s_min)):
            return c
    raise NoConductor(f"no run of {s_min} consecutive values up to {order}")


def delta_one_branch(b: BranchParam, order: int) -> int:
    """Number of semigroup gaps below the conductor."""
    values = branch_semigroup(b, order)
    c = _conductor(values, order)
    return sum(1 for n in range(c) if n not in values)


def branch_working_order(b: BranchParam) -> int:
    """Starting truncation order for one branch: eight times its top degree."""
    return 8 * max(img.degree() or 1 for img in b.images)


def delta_with_retry(b: BranchParam) -> int:
    """delta_one_branch from branch_working_order, doubling on NoConductor.

    The order decides only whether the conductor is found, not its value:
    a run of s_min values makes every larger integer a value.
    """
    order = branch_working_order(b)
    while True:
        try:
            return delta_one_branch(b, order)
        except NoConductor:
            if order >= WORKING_ORDER_CAP:
                raise
            order = min(2 * order, WORKING_ORDER_CAP)


def check_primitive(b: BranchParam, path: str) -> None:
    """SchemaError at ``path`` if every image t-exponent shares a factor d > 1.

    Then every image is a polynomial in t^d, so the parametrization factors
    through t -> t^d and covers its branch d times; its semigroup values
    are all multiples of d and have no conductor.  The test is sufficient,
    not necessary: a parametrization through some other series in t has
    exponents with gcd 1 and still doubles to the cap.
    """
    d = gcd(*(m[0] for img in b.images for m in img.terms))
    if d > 1:
        raise SchemaError(f"parametrization factors through t^{d}", path)


def intersection_multiplicity(f_other: Poly, b: BranchParam) -> int:
    """t-order of the other equation pulled back exactly along the branch."""
    o = f_other.substitute(b.as_map(f_other.vars)).order()
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
        composed = s.f.substitute(br.param.as_map(s.f.vars))
        if not composed.is_zero():
            raise SchemaError(
                f"branch does not annihilate the equation (order "
                f"{composed.order()} term survives)",
                f"branches[{i}]",
            )
        check_primitive(br.param, f"branches[{i}]")
    delta = sum(delta_with_retry(br.param) for br in s.branches)
    for i, br in enumerate(s.branches):
        for j in range(i + 1, len(s.branches)):
            if br.equation is None:
                raise MissingBranchEquation(
                    f"branch {i} has no equation; needed for pairwise "
                    "intersection numbers"
                )
            try:
                delta += intersection_multiplicity(br.equation, s.branches[j].param)
            except NotTransverseAtOrder as exc:
                raise SchemaError(
                    f"repeats branches[{i}]: its equation pulls back to zero",
                    f"branches[{j}]",
                ) from exc
    r = len(s.branches)
    check_milnor_formula(mu, delta, r)
    return DeltaR(delta, r, "computed")
