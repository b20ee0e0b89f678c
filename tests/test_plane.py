"""Plane singularity analysis: mu, tau, Saito test, tail maps."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import oracle_nullspace
from curveinv import plane
from curveinv.errors import MissingWeights, NotMPrimary, TruncationCapExceeded
from curveinv.jets import JetAlgebra, build_jet_algebra
from curveinv.plane import PlaneAnalysis, PlaneSingularity
from curveinv.poly import Poly, parse_poly

UV = ("u", "v")


def analysis(src, **kwargs):
    return PlaneAnalysis(PlaneSingularity(parse_poly(src, UV), **kwargs))


ADE = (
    [(f"u^2+v^{n + 1}", n) for n in range(1, 11)]
    + [(f"u^2*v+v^{n - 1}", n) for n in range(4, 11)]
    + [("u^3+v^4", 6), ("u^3+u*v^3", 7), ("u^3+v^5", 8)]
)


@pytest.mark.parametrize("src,expected_mu", ADE)
def test_ade_mu_equals_tau(src, expected_mu):
    a = analysis(src)
    mu, tau = a.milnor_tjurina()
    assert (mu, tau) == (expected_mu, expected_mu)
    assert a.saito_test()
    assert a.wh_in_coords()


def test_non_qh_quintic_strict_inequality():
    a = analysis("u^5+v^5+u^3*v^3")
    mu, tau = a.milnor_tjurina()
    assert (mu, tau) == (16, 15)
    assert tau < mu
    assert not a.saito_test()
    assert not a.wh_in_coords()


def test_non_isolated_rejected():
    with pytest.raises(TruncationCapExceeded):
        analysis("u^2")  # Jacobian (2u, 0) is not m-primary


def test_declared_weights_validated():
    with pytest.raises(ValueError):
        PlaneSingularity(
            parse_poly("u^2+v^3", UV),
            weights=(Fraction(1, 2), Fraction(1, 2)),
        )


# -- multiplication by f ----------------------------------------------------

def test_mult_by_f_node():
    assert analysis("u*v").mult_by_f() == ((Fraction(1),),)


def test_mult_by_f_zero_under_weights():
    # Euler relation puts f inside the Jacobian ideal, so .f is zero on M_f
    a = analysis("u^2+v^3")
    assert len(a.mult_by_f()) == a.milnor.colength() == 2


@pytest.mark.parametrize("src", ["u*v", "u^2+v^3", "u^3+v^5", "u^5+v^5+u^3*v^3"])
def test_kernel_cokernel_both_tau(src):
    # the cokernel of .f on M_f has the kernel's dimension (rank-nullity)
    a = analysis(src)
    _, tau = a.milnor_tjurina()
    assert len(a.mult_by_f()) == tau


# -- tail maps --------------------------------------------------------------

def test_tail_node():
    tail = analysis("u*v").tail_map_general()
    assert tail.matrix == ((Fraction(1),),)
    assert tail.rank == 1


def test_tail_cusp_diagonal():
    tail = analysis("u^2+v^3").tail_map_general()
    assert tail.matrix == (
        (Fraction(5, 6), Fraction(0)),
        (Fraction(0), Fraction(7, 6)),
    )
    assert tail.rank == 2


def test_tail_e8_scalars():
    a = analysis("u^3+v^5")
    tail = a.tail_map_wh_scalar()
    expected = {
        mono: Fraction(mono[0], 3) + Fraction(mono[1], 5) + Fraction(8, 15)
        for mono in a.milnor.basis
    }
    for i, mono in enumerate(tail.target_basis):
        assert tail.matrix[i][i] == expected[mono]
        assert expected[mono] != 0
    assert tail.rank == 8


@pytest.mark.parametrize(
    "src", ["u*v", "u^2+v^3", "u^2+v^11", "u^2*v+v^5", "u^3+v^4", "u^3+u*v^3", "u^3+v^5"]
)
def test_wh_scalar_matches_general(src):
    a = analysis(src)
    assert a.tail_map_wh_scalar().matrix == a.tail_map_general().matrix


@pytest.mark.parametrize("src", ["u^2+v^3", "u^3+v^5", "u^5+v^5+u^3*v^3"])
def test_witness_independence(src):
    a = analysis(src)
    base = a.tail_map_general()
    for seed in (1, 2, 42):
        assert a.tail_map_general(row_seed=seed).matrix == base.matrix


@pytest.mark.parametrize("src,expected_mu", ADE)
def test_qh_full_rank(src, expected_mu):
    a = analysis(src)
    assert a.tail_map_general().rank == expected_mu


def test_non_qh_local_rank_recorded():
    # no full-rank guarantee without quasihomogeneity; the computed value
    # is frozen as a regression anchor
    a = analysis("u^5+v^5+u^3*v^3")
    assert a.tail_map_general().rank == 14


def test_scalar_map_needs_weights():
    with pytest.raises(MissingWeights):
        analysis("u^5+v^5+u^3*v^3").tail_map_wh_scalar()


def test_tail_matrix_stable_under_truncation_raise(monkeypatch):
    a = analysis("u^3+v^5")
    order = a.milnor.truncation_order + 2
    monkeypatch.setattr(
        plane, "build_jet_algebra",
        lambda generators: JetAlgebra(generators, order, tagged=False),
    )
    raised = analysis("u^3+v^5")
    assert raised.milnor.truncation_order == order
    assert raised.tail_map_general().matrix == a.tail_map_general().matrix


# -- witness order oracle ---------------------------------------------------

def degree_order_tail_matrix(a):
    """Tail matrix with the witness order taken from polynomial degrees.

    The verified order is N_T + max deg(f * lift) + 2, and the witness
    algebra is built at that order + 2 + the top generator degree, but not
    below the Milnor algebra's degree-based start 4 + 2 * that degree: far
    above the N_M + N_T that ``tail_map_general`` uses.
    """
    f = a.sing.f
    u, v = f.vars
    kernel = a.mult_by_f()
    lifts = [
        Poly(f.vars, {m: c for m, c in zip(a.milnor.basis, vec) if c != 0})
        for vec in kernel
    ]
    gen_degree = max(g.degree() or 0 for g in (a.f_u, a.f_v))
    order = a.tjurina.primality_bound + max(
        ((f * lift).degree() or 0 for lift in lifts), default=0
    ) + 2
    witness_algebra = JetAlgebra(
        [a.f_u, a.f_v], max(order + 2 + gen_degree, 4 + 2 * gen_degree)
    )
    columns = []
    for lift in lifts:
        alpha, beta = witness_algebra.membership_with_witness(f * lift, order)
        columns.append(a.tjurina.normal_form(alpha.diff(u) + beta.diff(v)))
    return tuple(
        tuple(col[i] for col in columns) for i in range(len(a.tjurina.basis))
    )


coefficients = st.builds(
    lambda sign, num, den: Fraction(sign * num, den),
    st.sampled_from((-1, 1)), st.integers(1, 5), st.integers(1, 6),
)


@st.composite
def germs(draw, max_k=9):
    """Brieskorn-Pham c1*u^a + c2*v^b, alone or plus terms above its Newton
    boundary (semi-quasihomogeneous, often with tau < mu), or
    (u+v)^2 + c*v^k, k <= max_k, whose Jacobian's initial forms are not
    coprime."""
    family = draw(st.sampled_from(("bp", "above", "tangent")))
    if family == "tangent":
        k = draw(st.integers(2, max_k))
        return Poly(UV, {(2, 0): 1, (1, 1): 2, (0, 2): 1}) + Poly(
            UV, {(0, k): draw(coefficients)}
        )
    a, b = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    terms = {(a, 0): draw(coefficients), (0, b): draw(coefficients)}
    above = [
        (i, j) for i in range(a + 1) for j in range(b + 1)
        if i * b + j * a > a * b and i + j <= max(a, b) + 1
    ]
    if family == "above":
        extra = st.lists(st.sampled_from(above), min_size=1, max_size=2, unique=True)
        for mono in draw(extra):
            terms[mono] = draw(coefficients)
    return Poly(UV, terms)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(germs())
@example(parse_poly("u^5+v^7+u^3*v^3", UV))  # a kernel entry with denominator 27
@example(parse_poly("u^5+v^6+u*v^5", UV))  # and one with denominator 5
def test_mult_by_f_matches_gauss_jordan_nullspace(f):
    """The kernel of .f is the Gauss-Jordan nullspace of the dense matrix of
    .f, whose columns are Poly normal forms of f times each basis monomial."""
    a = PlaneAnalysis(PlaneSingularity(f))
    basis = a.milnor.basis
    columns = [a.milnor.normal_form(f * Poly(UV, {mono: 1})) for mono in basis]
    rows = [[col[i] for col in columns] for i in range(len(basis))]
    assert a.mult_by_f() == tuple(map(tuple, oracle_nullspace(rows, len(basis))))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(germs())
@example(parse_poly("u^5+v^6+2*u^3*v^3", UV))
@example(parse_poly("(u^2-v^3)^2+u*v^5", UV))
def test_tail_rank_is_tau_iff_quasihomogeneous(f):
    """The local form of the paper's theorem, read off the tail map: the
    tail differential from ker(.f on M_f) to T_f has rank tau exactly when
    mu = tau, that is, when f is quasihomogeneous (Saito)."""
    a = PlaneAnalysis(PlaneSingularity(f))
    mu, tau = a.milnor_tjurina()
    assert (a.tail_map_general().rank == tau) == (mu == tau)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(germs())
def test_tail_map_matches_degree_order_oracle(f):
    a = PlaneAnalysis(PlaneSingularity(f))
    assert a.tail_map_general().matrix == degree_order_tail_matrix(a)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    germs(),
    st.builds(Fraction, st.integers(-30, 30).filter(bool), st.integers(1, 30)),
)
@example(parse_poly("1/3*u^4+2/5*v^5+1/7*u^3*v^2", UV), Fraction(7, 3))
@example(parse_poly("(u+v)^2+3/4*v^7", UV), Fraction(-2, 9))
@example(parse_poly("(u+v)^2+3/4*v^7", UV), Fraction(6))
def test_tail_map_invariant_under_scaling_f(f, c):
    """c*f has f's Jacobian and Tjurina ideals, its kernel of .f and its
    witnesses (c*f*m = alpha*c*f_u + beta*c*f_v), so the same tail matrix,
    while f, each lift and each witness carry other denominators."""
    tail = PlaneAnalysis(PlaneSingularity(f)).tail_map_general()
    scaled = PlaneAnalysis(PlaneSingularity(f.scale(c))).tail_map_general()
    assert scaled.matrix == tail.matrix


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(2, 5),
    st.integers(1, 3),
    st.integers(-3, 3).filter(bool),
)
def test_mu_tau_invariant_under_u_plus_c_v_k(a, b, k, c):
    """tau <= mu on u^a + v^b, and u -> u + c*v^k changes neither."""
    u, v = Poly.variable(UV, "u"), Poly.variable(UV, "v")
    f = u ** a + v ** b
    moved = f.substitute({"u": u + (v ** k).scale(c), "v": v})
    mu, tau = PlaneAnalysis(PlaneSingularity(f)).milnor_tjurina()
    assert tau <= mu == (a - 1) * (b - 1)
    assert PlaneAnalysis(PlaneSingularity(moved)).milnor_tjurina() == (mu, tau)


# -- jet algebras derived by projection and extension -----------------------

jet_polys = st.dictionaries(
    st.tuples(st.integers(0, 30), st.integers(0, 30)), coefficients, max_size=6
).map(lambda terms: Poly(UV, terms))


def build_or_none(*args, **kwargs):
    """The algebra, or None where it does not certify m-primality."""
    try:
        return JetAlgebra(*args, **kwargs)
    except NotMPrimary:
        return None


def assert_same_algebra(derived, fresh, polys):
    assert (derived is None) == (fresh is None)
    if fresh is None:
        return
    assert derived.basis == fresh.basis
    assert sorted(derived._rows.rows) == sorted(fresh._rows.rows)  # the pivots
    assert derived.primality_bound == fresh.primality_bound
    for p in polys:
        assert derived.normal_form(p) == fresh.normal_form(p)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    germs(max_k=12),
    st.integers(-2, 2),
    st.integers(0, 3),
    st.booleans(),
    st.lists(jet_polys, max_size=4),
)
def test_derived_algebras_equal_fresh_builds(f, shift, d, tagged, polys):
    """A projection from order T + d, with or without the multiples of f
    added, has the basis, primality bound and normal forms of a fresh
    build at T, including not certifying where the fresh build does not
    (T runs around the certified Milnor order T_c).  A tagged base is
    projected only: its projection gives witnesses, and extending it fails."""
    jac = [f.diff("u"), f.diff("v")]
    T = max(1, build_jet_algebra(jac).truncation_order + shift)
    base = build_or_none(jac, T + d, tagged=tagged)
    if base is None:  # certified at T, the ideal would certify at T + d too
        assert build_or_none(jac, T) is None
        return
    projected = build_or_none(jac, T, base=base)
    assert_same_algebra(projected, build_or_none(jac, T), polys)
    assert projected is None or projected.tagged == tagged
    if not tagged:
        tjurina = build_or_none(jac + [f], T, base=base)
        assert_same_algebra(tjurina, build_or_none(jac + [f], T), polys)
        return
    with pytest.raises(AssertionError, match="tagged base cannot be extended"):
        JetAlgebra(jac + [f], T, base=base)
    if projected is not None:  # the base's carried keys, kept by the cut
        for p in polys:
            target = jac[0] * p + jac[1] * p * p
            projected.membership_with_witness(target, T)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(germs(max_k=12))
def test_projected_witnesses_pass_the_exact_defect_check(f):
    """Witnesses from the order-T_w projection of the tagged order-(T_w + 2)
    algebra satisfy f*lift = alpha*f_u + beta*f_v up to terms of degree
    > T_w, and their cofactors use only the multiples a fresh build at T_w
    inserts."""
    a = PlaneAnalysis(PlaneSingularity(f))
    order = max(1, a.milnor.primality_bound + a.tjurina.primality_bound)
    jac = [a.f_u, a.f_v]
    witness_algebra = JetAlgebra(jac, order, base=JetAlgebra(jac, order + 2))
    for vec in a.mult_by_f():
        target = f * Poly(UV, dict(zip(a.milnor.basis, vec)))
        cofactors = witness_algebra.membership_with_witness(target, order)
        defect = target - cofactors[0] * a.f_u - cofactors[1] * a.f_v
        assert defect.is_zero() or defect.order() > order
        for cof, g in zip(cofactors, jac):
            assert cof.is_zero() or cof.degree() <= order - g.order()
