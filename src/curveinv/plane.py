"""Local analysis of isolated plane curve singularities.

For an equation f in two variables this module computes the Milnor and
Tjurina numbers as jet-space colengths, the kernel of multiplication by
f on the Milnor algebra, and the tail differential in two independent
ways: a general cofactor-witness algorithm valid for any isolated f, and
a diagonal scalar formula valid under a verified weight system.  The two must agree entry-by-entry whenever both apply, which is
the main internal cross-check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from . import linalg
from .errors import MissingWeights, WitnessOrderInsufficient
from .jets import JetAlgebra, build_jet_algebra
from .poly import (
    BranchParam,
    DeltaR,
    Monomial,
    Poly,
    euler_relation_holds,
    multiply_terms,
    weight_feasibility,
)

# The order the tail map's re-check algebra shuffles its rows to.
RECHECK_SEED = 1


@dataclass(frozen=True)
class PlaneSingularity:
    """Defining equation plus optional weight, branch and asserted delta/r data."""

    f: Poly
    label: str = ""
    weights: Optional[Tuple[Fraction, Fraction]] = None
    branches: Tuple[BranchParam, ...] = ()
    asserted: Optional[DeltaR] = None

    def __post_init__(self):
        if len(self.f.vars) != 2:
            raise ValueError("plane singularity needs exactly two variables")
        if self.f.is_zero() or self.f.constant_term() != 0:
            raise ValueError("equation must be nonzero with zero constant term")
        if self.weights is not None:
            w1, w2 = self.weights
            if w1 <= 0 or w2 <= 0:
                raise ValueError("weights must be positive")
            if not euler_relation_holds(self.f, w1, w2):
                raise ValueError("declared weights fail the Euler relation")


@dataclass(frozen=True)
class LocalInvariants:
    mu: int
    tau: int
    qh_by_saito: bool
    wh_in_coords: bool


@dataclass(frozen=True)
class TailMap:
    """The tail differential from ker(.f on M_f) to T_f: column j is the
    image of kernel vector j of ``PlaneAnalysis.mult_by_f``, sparse over
    the positions of the Tjurina basis and storing no zero, as the kernel
    vectors do; the rank is the columns'."""

    columns: Tuple[Dict[int, Fraction], ...]
    rank: int


class PlaneAnalysis:
    """The jet algebras, local invariants and tail maps of one singularity."""

    def __init__(self, sing: PlaneSingularity):
        self.sing = sing
        f = sing.f
        u, v = f.vars
        self.f_u = f.diff(u)
        self.f_v = f.diff(v)
        self._integer_f = F, d_f = linalg.integer_row(f.terms)  # f = F / d_f
        self.milnor = build_jet_algebra([self.f_u, self.f_v])
        # Column j of .f on M_f is the normal form of f times the j-th
        # standard monomial, sparse over the M_f basis positions, reduced
        # once for mult_by_f and the Tjurina algebra.  The Tjurina ideal
        # contains the Jacobian ideal, so it certifies at the Milnor order;
        # its rows are the Milnor rows and the nonzero columns, keyed by jet
        # monomial, which span what every multiple of f would (see jets).
        self._f_columns = [
            self.milnor.normal_form(multiply_terms(F, {mono: 1}), d_f)
            for mono in self.milnor.basis
        ]
        keys = self.milnor.basis_keys
        self.tjurina = JetAlgebra(
            [self.f_u, self.f_v, f], self.milnor.truncation_order,
            tagged=False, base=self.milnor,
            multiples=[
                linalg.integer_row({keys[i]: c for i, c in column.items()})[0]
                for column in self._f_columns if column
            ],
        )
        # Declared weights passing the Euler relation equal these unless f
        # is c*u*v, where the support leaves them free, M_f = <1> and the
        # tail scalar is w1 + w2 = 1 for any of them.
        self.effective_weights = weight_feasibility(f)
        mu, tau = self.milnor.colength(), self.tjurina.colength()
        if tau > mu:
            raise AssertionError(f"tau={tau} exceeds mu={mu}")
        self.invariants = LocalInvariants(
            mu=mu,
            tau=tau,
            qh_by_saito=mu == tau,
            wh_in_coords=self.effective_weights is not None,
        )
        self._mult_cache = None

    # -- multiplication by f on the Milnor algebra -------------------------

    def mult_by_f(self) -> Tuple[Dict[int, Fraction], ...]:
        """Kernel of .f on M_f, as sparse vectors over the M_f basis positions.

        The columns of .f, reduced in ``__init__`` and inserted in the
        Tjurina algebra too, go to ``linalg.column_nullspace``, an
        elimination of its own.  The kernel must have dimension tau; the
        cokernel of an endomorphism of M_f has the same dimension
        (rank-nullity), so it needs no second elimination.
        """
        if self._mult_cache is not None:
            return self._mult_cache
        columns = self._f_columns
        kernel = tuple(linalg.column_nullspace(columns, len(columns)))
        tau = self.invariants.tau
        if len(kernel) != tau:
            raise AssertionError(
                f"kernel of .f has dimension {len(kernel)}, expected tau={tau}"
            )
        self._mult_cache = kernel
        return kernel

    # -- tail differential -------------------------------------------------

    def _tail_columns(
        self,
        lifts: Sequence[Tuple[Dict[Monomial, int], int]],
        algebra: JetAlgebra,
        order: int,
    ) -> Tuple[Dict[int, Fraction], ...]:
        """The T_f class of each kernel lift Lambda / d_m, read off
        ``algebra`` with its witnesses lifted to ``order``.

        One witness (C_u, C_v) / s of f - R, R the normal form of f in
        ``algebra``, serves every lift; when R is not zero, each R * Lambda
        takes a witness of its own.  A column is the class of the
        divergence of the composed witness, over s * d_m and the scale of
        the R * Lambda witness; the Tjurina normal form drops degrees above
        its order, so the products Lambda * C stop there (see
        :meth:`tail_map_general`).
        """
        F, d_f = self._integer_f
        basis = algebra.basis
        remainder = {basis[k]: c for k, c in algebra.normal_form(F, d_f).items()}
        difference = {m: Fraction(c, d_f) for m, c in F.items()}
        for m, c in remainder.items():
            difference[m] = difference.get(m, 0) - c
        P, d = linalg.integer_row({m: c for m, c in difference.items() if c})
        cofactors, s = algebra.membership_with_witness(P, d, order)
        R, d_R = linalg.integer_row(remainder)
        top = self.tjurina.truncation_order + 1
        unit = {(0, 0): 1}
        columns = []
        for lift, d_m in lifts:
            column = self.tjurina.normal_form(_divergence(lift, cofactors, top), s * d_m)
            if R:
                R_cofactors, s_R = algebra.membership_with_witness(
                    multiply_terms(R, lift), d_R * d_m, order
                )
                extra = self.tjurina.normal_form(_divergence(unit, R_cofactors, top), s_R)
                for k, c in extra.items():
                    column[k] = column.get(k, 0) + c
                column = {k: c for k, c in column.items() if c}
            columns.append(column)
        return tuple(columns)

    def tail_map_general(self) -> TailMap:
        """Tail differential via cofactor witnesses, any isolated f.

        Each kernel class m of .f on M_f is lifted to a polynomial m~, a
        witness f*m~ = alpha*f_u + beta*f_v is composed from the jet
        reduction, and the image is the class of d_u(alpha) + d_v(beta)
        in T_f.  All of it runs on integer term maps, each over one
        denominator: f = F / d_f and m~ = Lambda / d_m are cleared once,
        and witnesses come back as integer cofactors over one scale s (see
        ``JetAlgebra.membership_with_witness``); only the T_f coordinates
        are Fractions.

        The witness order is T_w = N_M + N_T, the primality bounds of the
        Milnor and Tjurina algebras (m^N_M lies in J = (f_u, f_v) and m^N_T
        in the Tjurina ideal), and it is exact:

        * A witness whose defect D = f*m~ - alpha*f_u - beta*f_v lies in
          m^(T_w+1) is enough.
        * Since m^N_M is in J, m^(T_w+1) lies in J * m^(T_w+1-N_M), so
          D = a*f_u + b*f_v with a, b in m^(T_w+1-N_M).  Adding (a, b)
          gives an exact witness, and the divergence d_u(a) + d_v(b) lies
          in m^(T_w-N_M) = m^N_T, inside the Tjurina ideal: it leaves the
          class unchanged.
        * Two exact witnesses differ by a syzygy of f_u, f_v, which form a
          regular sequence (J is m-primary), so by h*(f_v, -f_u) for some
          h.  Its divergence h_u*f_v - h_v*f_u lies in J, so the class does
          not depend on the witness.

        One witness serves every column.  With R the normal form of f, a
        combination of standard monomials, f*m~ = m~*(f - R) + R*m~, and
        both f - R and f*m~ lie in J (m~ is in the kernel of .f), so R*m~
        does too.  A witness W of f - R with defect D of order > T_w gives
        m~*W, with defect m~*D of order > T_w as well; a witness of R*m~ to
        T_w added to it gives a witness of f*m~ whose defect lies in
        m^(T_w+1), which the argument above makes exact.  By Saito's
        criterion R = 0 exactly when tau = mu, and then the one witness of
        f is all the tail map lifts.

        No algebra is built at T_w.  The witnesses come from
        ``membership_with_witness`` on a tagged algebra A at N_M + 2: taken
        at its own order T and lifted through the witnesses of the
        monomials x^b of degree N_M, cached lazily in A (see ``jets``).  A
        defect term c*x^a gains c*x^(a-b)*(alpha_b, beta_b) for some
        b <= a with |b| = N_M, which trades it for c*x^(a-b) times the
        defect of x^b, of order > |a| + T - N_M.  So each pass raises the
        defect order by at least T + 1 - N_M >= 1, and the loop ends once
        the defect has order > T_w.  Which b a term takes changes the
        witness, never the class: any lifted witness has a defect in
        m^(T_w+1), and the argument above gives every such witness the same
        class.

        Every class is read from A lifted to T_w, and A is dropped.  Then A
        is eliminated again from A's own list of multiples, and every
        class, from that algebra's own R and witnesses lifted to T_w + 2
        through its own cache, must match: one comparison re-checks the
        witness order and the independence from the reduction order, and a
        mismatch raises :class:`WitnessOrderInsufficient`.

        The two algebras have the same generators, order and tags, so they
        insert the same multiples: A keeps the list it built as
        ``multiples``, which is shuffled in place with
        ``random.Random(RECHECK_SEED)`` and handed to the re-check algebra,
        which inserts it in that order.  That is the order a rebuilt list
        would take, since a shuffle depends only on the seed and the
        length, and the re-check still runs its own full elimination; the
        list is built once per tail map.  An insert copies its row, so the
        shuffle is the only change to the list.
        """
        kernel = self.mult_by_f()
        basis = self.milnor.basis
        lifts = [
            linalg.integer_row({basis[k]: c for k, c in vec.items()}) for vec in kernel
        ]
        order = max(1, self.milnor.primality_bound + self.tjurina.primality_bound)
        jacobian = [self.f_u, self.f_v]
        n_m = max(1, self.milnor.primality_bound)
        witness_algebra = JetAlgebra(jacobian, n_m + 2)
        columns = self._tail_columns(lifts, witness_algebra, order)
        # the witness algebra is freed before the re-check algebra is built,
        # and its list of multiples once the re-check has inserted it
        multiples = witness_algebra.multiples
        del witness_algebra
        random.Random(RECHECK_SEED).shuffle(multiples)
        recheck_algebra = JetAlgebra(jacobian, n_m + 2, multiples=multiples)
        del multiples
        if self._tail_columns(lifts, recheck_algebra, order + 2) != columns:
            raise WitnessOrderInsufficient(
                f"tail class at order {order} moved under the reshuffled "
                f"re-check at order {order + 2}"
            )
        return TailMap(columns=columns, rank=linalg.rank(columns))

    def tail_map_wh_scalar(self) -> Tuple[Dict[int, Fraction], ...]:
        """Columns of the tail differential under a weight system: diagonal
        scalars, to compare with those of :meth:`tail_map_general`.

        The Jacobian ideal is graded for the weights, so M_f splits into
        weighted-degree eigenspaces and the tail differential multiplies
        the weighted-degree-lambda piece by lambda + w1 + w2, which is
        positive; the map is an isomorphism of rank tau = mu.  Column j is
        kernel vector j scaled entrywise by these nonzero scalars.
        """
        if self.effective_weights is None:
            raise MissingWeights(
                "no weight system verified for this equation"
            )
        w1, w2 = self.effective_weights
        kernel = self.mult_by_f()
        basis = self.milnor.basis
        if basis != self.tjurina.basis:
            raise AssertionError(
                "weighted case must share the M_f and T_f standard bases"
            )
        scalars = [mono[0] * w1 + mono[1] * w2 + w1 + w2 for mono in basis]
        return tuple({i: c * scalars[i] for i, c in vec.items()} for vec in kernel)


def _divergence(
    lift: Dict[Monomial, int], cofactors: Sequence[Dict[Monomial, int]], top: int
) -> Dict[Monomial, int]:
    """d_u(Lambda * C_u) + d_v(Lambda * C_v) for integer term maps Lambda
    and (C_u, C_v) in two variables, from the terms of the products of
    degree <= ``top`` alone, without the terms that cancel."""
    C_u, C_v = cofactors
    divergence: dict = {}
    get = divergence.get
    for (a1, b1), c1 in lift.items():
        room = top - a1 - b1
        for (a2, b2), c2 in C_u.items():
            a = a1 + a2
            if a and a2 + b2 <= room:
                m = (a - 1, b1 + b2)
                divergence[m] = get(m, 0) + a * c1 * c2
        for (a2, b2), c2 in C_v.items():
            b = b1 + b2
            if b and a2 + b2 <= room:
                m = (a1 + a2, b - 1)
                divergence[m] = get(m, 0) + b * c1 * c2
    return {m: c for m, c in divergence.items() if c}
