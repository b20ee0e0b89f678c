"""Local analysis of isolated plane curve singularities.

For an equation f in two variables this module computes the Milnor and
Tjurina numbers as jet-space colengths, the kernel of multiplication by
f on the Milnor algebra, and the tail differential in two independent
ways: a general cofactor-witness algorithm valid for any isolated f, and
a diagonal scalar formula valid under a verified weight system.  The two must agree entry-by-entry whenever both apply, which is
the main internal cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Tuple

from . import linalg
from .errors import MissingWeights, WitnessOrderInsufficient
from .jets import JetAlgebra, build_jet_algebra
from .poly import (
    BranchParam,
    DeltaR,
    Poly,
    euler_relation_holds,
    multiply_terms,
    weight_feasibility,
)

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Branch:
    """One branch parametrization, optionally with its own equation."""

    param: BranchParam
    equation: Optional[Poly] = None


@dataclass(frozen=True)
class PlaneSingularity:
    """Defining equation plus optional weight, branch and asserted delta/r data."""

    f: Poly
    label: str = ""
    weights: Optional[Tuple[Fraction, Fraction]] = None
    branches: Tuple[Branch, ...] = ()
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
    """Matrix of the tail differential from ker(.f on M_f) to T_f."""

    source_basis: Tuple[Tuple[Fraction, ...], ...]  # vectors over the M_f basis
    target_basis: Tuple[tuple, ...]  # standard monomials of T_f
    matrix: Tuple[Tuple[Fraction, ...], ...]  # rows indexed by target basis
    rank: int


class PlaneAnalysis:
    """Caches the jet algebras of one singularity and derives its invariants."""

    def __init__(self, sing: PlaneSingularity):
        self.sing = sing
        f = sing.f
        u, v = f.vars
        self.f_u = f.diff(u)
        self.f_v = f.diff(v)
        self._integer_f = linalg.integer_row(f.terms)  # f = F / d_f
        self.milnor = build_jet_algebra([self.f_u, self.f_v])
        # The Tjurina ideal contains the Jacobian ideal, so its standard
        # monomials are among the Milnor algebra's and certify at its order;
        # it extends the Milnor rows by f times each Milnor standard monomial.
        self.tjurina = JetAlgebra(
            [self.f_u, self.f_v, f], self.milnor.truncation_order,
            tagged=False, base=self.milnor,
        )
        # Declared weights passing the Euler relation equal these unless f
        # is c*u*v, where the support leaves them free, M_f = <1> and the
        # tail scalar is w1 + w2 = 1 for any of them.
        self.effective_weights = weight_feasibility(f)
        self._mult_cache = None

    # -- basic invariants --------------------------------------------------

    def milnor_tjurina(self) -> Tuple[int, int]:
        mu = self.milnor.colength()
        tau = self.tjurina.colength()
        if tau > mu:
            raise AssertionError(f"tau={tau} exceeds mu={mu}")
        return mu, tau

    def saito_test(self) -> bool:
        mu, tau = self.milnor_tjurina()
        return mu == tau

    def wh_in_coords(self) -> bool:
        return self.effective_weights is not None

    def local_invariants(self) -> LocalInvariants:
        mu, tau = self.milnor_tjurina()
        return LocalInvariants(
            mu=mu,
            tau=tau,
            qh_by_saito=self.saito_test(),
            wh_in_coords=self.wh_in_coords(),
        )

    # -- multiplication by f on the Milnor algebra -------------------------

    def mult_by_f(self) -> Tuple[Tuple[Fraction, ...], ...]:
        """Kernel of .f on M_f, as vectors over the M_f basis.

        Column j of .f is the normal form of f times the j-th standard
        monomial (f's integer terms F, shifted, over f's denominator), and
        the columns go sparse to ``linalg.column_nullspace``.  The kernel
        must have dimension tau; the cokernel of an endomorphism of M_f has
        the same dimension (rank-nullity), so it needs no second
        elimination.
        """
        if self._mult_cache is not None:
            return self._mult_cache
        F, d = self._integer_f
        columns = [
            self.milnor.sparse_normal_form(multiply_terms(F, {mono: 1}), d)
            for mono in self.milnor.basis
        ]
        kernel = tuple(map(tuple, linalg.column_nullspace(columns, len(columns))))
        tau = self.tjurina.colength()
        if len(kernel) != tau:
            raise AssertionError(
                f"kernel of .f has dimension {len(kernel)}, expected tau={tau}"
            )
        self._mult_cache = kernel
        return kernel

    # -- tail differential -------------------------------------------------

    def _tail_image(
        self, product: Tuple[dict, int], witness_algebra: JetAlgebra, order: int
    ) -> Dict[int, Fraction]:
        """Class in T_f of the divergence of a cofactor witness for f*lift,
        given as the integer product F * Lambda over its denominator, with
        the witness lifted to ``order`` (``JetAlgebra.lifted_witness``).

        With cofactors C_u / s, C_v / s, the divergence is
        (d_u(C_u) + d_v(C_v)) / s, so its class is the sparse normal form
        of the numerator over s.
        """
        (C_u, C_v), s = witness_algebra.lifted_witness(*product, order)
        divergence: dict = {}
        for i, C in enumerate((C_u, C_v)):
            for m, c in C.items():
                if m[i]:
                    dm = m[:i] + (m[i] - 1,) + m[i + 1 :]
                    divergence[dm] = divergence.get(dm, 0) + c * m[i]
        return self.tjurina.sparse_normal_form(
            {m: c for m, c in divergence.items() if c}, s
        )

    def tail_map_general(self, row_seed: int = 1) -> TailMap:
        """Tail differential via cofactor witnesses, any isolated f.

        Each kernel class m of .f on M_f is lifted to a polynomial m~, a
        witness f*m~ = alpha*f_u + beta*f_v is extracted from the jet
        reduction, and the image is the class of d_u(alpha) + d_v(beta)
        in T_f.  All of it runs on integer term maps, each over one
        denominator: f = F / d_f and m~ = Lambda / d_m are cleared once,
        f*m~ is the integer product F * Lambda over d_f * d_m, and the
        witness comes back as integer cofactors over one scale s (see
        ``JetAlgebra.lifted_witness``); only the T_f coordinates are
        Fractions.

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

        No algebra is built at T_w.  The witnesses come from a tagged
        algebra A at N_M + 2, taken at its own order T and lifted through
        the witnesses of the monomials x^b of degree N_M, cached lazily in
        A (see ``jets``): a defect term c*x^a gains
        c*x^(a-b)*(alpha_b, beta_b) for some b <= a with |b| = N_M, which
        trades it for c*x^(a-b) times the defect of x^b, of order
        > |a| + T - N_M.  So each pass raises the defect order by at least
        T + 1 - N_M >= 1, and the loop ends once the defect has order
        > T_w.  Which b a term takes changes the witness, never the class:
        any lifted witness has a defect in m^(T_w+1), and the argument
        above gives every such witness the same class.

        Every class is read from A lifted to T_w, and A is dropped.  Then A
        is eliminated again from A's own list of multiples, inserted in the
        order ``row_seed`` shuffles a copy of it to, and every class,
        lifted to T_w + 2 through that algebra's own cache, must match:
        one comparison re-checks the witness order and the independence
        from the reduction order, and a mismatch raises
        :class:`WitnessOrderInsufficient`.
        """
        kernel = self.mult_by_f()
        basis = self.milnor.basis
        F, d_f = self._integer_f
        products = []
        for vec in kernel:
            lift, d_m = linalg.integer_row({m: c for m, c in zip(basis, vec) if c})
            products.append((multiply_terms(F, lift), d_f * d_m))
        order = max(1, self.milnor.primality_bound + self.tjurina.primality_bound)
        jacobian = [self.f_u, self.f_v]
        n_m = max(1, self.milnor.primality_bound)
        witness_algebra = JetAlgebra(jacobian, n_m + 2)
        columns = [self._tail_image(p, witness_algebra, order) for p in products]
        # the witness algebra is freed before the re-check algebra is built,
        # and its list of multiples once the re-check has inserted it
        multiples = witness_algebra.multiples
        del witness_algebra
        recheck_algebra = JetAlgebra(
            jacobian, n_m + 2, row_seed=row_seed, multiples=multiples
        )
        del multiples
        for product, image in zip(products, columns):
            if self._tail_image(product, recheck_algebra, order + 2) != image:
                raise WitnessOrderInsufficient(
                    f"tail class at order {order} moved under the reshuffled "
                    f"re-check at order {order + 2}"
                )
        target_basis = self.tjurina.basis
        matrix = tuple(
            tuple(column.get(i, _ZERO) for column in columns)
            for i in range(len(target_basis))
        )
        return TailMap(
            source_basis=kernel,
            target_basis=target_basis,
            matrix=matrix,
            rank=linalg.rank(matrix),
        )

    def tail_map_wh_scalar(self) -> TailMap:
        """Tail differential under a weight system: diagonal scalars.

        The Jacobian ideal is graded for the weights, so M_f splits into
        weighted-degree eigenspaces and the tail differential multiplies
        the weighted-degree-lambda piece by lambda + w1 + w2, which is
        positive; the map is an isomorphism of rank tau = mu.
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
        matrix = tuple(
            tuple(vec[i] * scalar for vec in kernel)
            for i, scalar in enumerate(scalars)
        )
        return TailMap(
            source_basis=kernel,
            target_basis=basis,
            matrix=matrix,
            rank=linalg.rank(matrix),
        )
