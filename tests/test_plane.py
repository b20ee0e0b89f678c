"""Plane singularity analysis: mu, tau, Saito test, tail maps."""

import hashlib
import random
import re
from collections import Counter
from fractions import Fraction
from operator import add
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from conftest import (
    coefficients, dense_normal_form, gauss_jordan, germs, oracle_nullspace, poly_witness,
    reshuffled, tail_matrix,
)
from curveinv import corpus, linalg, plane, report
from curveinv.errors import (
    MissingWeights, NotMPrimary, TruncationCapExceeded, WitnessOrderInsufficient,
)
from curveinv.jets import JetAlgebra, build_jet_algebra
from curveinv.plane import PlaneAnalysis, PlaneSingularity
from curveinv.poly import Poly, parse_poly
from curveinv.report import AnalysisOptions, analyze
from curveinv.schema import build_curve

UV = ("u", "v")


def analysis(src, **kwargs):
    return PlaneAnalysis(PlaneSingularity(parse_poly(src, UV), **kwargs))


def dense_vectors(vectors, n):
    """Sparse vectors (index -> entry) as dense tuples of length n."""
    return tuple(tuple(vec.get(i, Fraction(0)) for i in range(n)) for vec in vectors)


ADE = (
    [(f"u^2+v^{n + 1}", n) for n in range(1, 11)]
    + [(f"u^2*v+v^{n - 1}", n) for n in range(4, 11)]
    + [("u^3+v^4", 6), ("u^3+u*v^3", 7), ("u^3+v^5", 8)]
)


@pytest.mark.parametrize("src,expected_mu", ADE)
def test_ade_mu_equals_tau(src, expected_mu):
    a = analysis(src)
    mu, tau = a.invariants.mu, a.invariants.tau
    assert (mu, tau) == (expected_mu, expected_mu)
    assert a.invariants.qh_by_saito
    assert a.invariants.wh_in_coords


def test_non_qh_quintic_strict_inequality():
    a = analysis("u^5+v^5+u^3*v^3")
    mu, tau = a.invariants.mu, a.invariants.tau
    assert (mu, tau) == (16, 15)
    assert tau < mu
    assert not a.invariants.qh_by_saito
    assert not a.invariants.wh_in_coords


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
    assert dense_vectors(analysis("u*v").mult_by_f(), 1) == ((Fraction(1),),)


def test_mult_by_f_zero_under_weights():
    # Euler relation puts f inside the Jacobian ideal, so .f is zero on M_f
    a = analysis("u^2+v^3")
    assert len(a.mult_by_f()) == a.milnor.colength() == 2


@pytest.mark.parametrize("src", ["u*v", "u^2+v^3", "u^3+v^5", "u^5+v^5+u^3*v^3"])
def test_kernel_cokernel_both_tau(src):
    # the cokernel of .f on M_f has the kernel's dimension (rank-nullity)
    a = analysis(src)
    tau = a.invariants.tau
    assert len(a.mult_by_f()) == tau


# -- tail maps --------------------------------------------------------------

def test_tail_node():
    a = analysis("u*v")
    tail = a.tail_map_general()
    assert tail_matrix(a, tail.columns) == ((Fraction(1),),)
    assert tail.rank == 1


def test_tail_cusp_diagonal():
    a = analysis("u^2+v^3")
    tail = a.tail_map_general()
    assert tail_matrix(a, tail.columns) == (
        (Fraction(5, 6), Fraction(0)),
        (Fraction(0), Fraction(7, 6)),
    )
    assert tail.rank == 2


def test_tail_e8_scalars():
    a = analysis("u^3+v^5")
    columns = a.tail_map_wh_scalar()
    expected = {
        mono: Fraction(mono[0], 3) + Fraction(mono[1], 5) + Fraction(8, 15)
        for mono in a.milnor.basis
    }
    matrix = tail_matrix(a, columns)
    for i, mono in enumerate(a.tjurina.basis):
        assert matrix[i][i] == expected[mono]
        assert expected[mono] != 0
    assert linalg.rank(columns) == 8


@pytest.mark.parametrize(
    "src", ["u*v", "u^2+v^3", "u^2+v^11", "u^2*v+v^5", "u^3+v^4", "u^3+u*v^3", "u^3+v^5"]
)
def test_wh_scalar_matches_general(src):
    a = analysis(src)
    assert a.tail_map_wh_scalar() == a.tail_map_general().columns


BP_EXPONENTS = [(a, b) for a in range(2, 32) for b in range(2, 32) if (a - 1) * (b - 1) <= 30]


@st.composite
def brieskorn_pham_in_new_coordinates(draw):
    """(a, b, f): c1*u^a + c2*v^b with mu = (a-1)*(b-1) <= 30, after
    u -> u + c*v^j, v -> v + c'*u^i, invertible since c*c' != 1 when
    i = j = 1."""
    a, b = draw(st.sampled_from(BP_EXPONENTS))
    i, j = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    # integer shifts keep the coefficients of u^30 and the like short
    c, c2 = draw(st.sampled_from((-2, -1, 1, 2))), draw(st.sampled_from((-2, -1, 1, 2)))
    assume(not (i == j == 1 and c * c2 == 1))
    f = Poly(UV, {(a, 0): draw(coefficients), (0, b): draw(coefficients)})
    images = {"u": Poly(UV, {(1, 0): 1, (0, j): c}), "v": Poly(UV, {(0, 1): 1, (i, 0): c2})}
    return a, b, f.substitute(images)


def example_germ(a, b, src):
    return example((a, b, parse_poly(src, UV)))


# the oracle eliminates once per spectral number: up to 30 dense 30x30
# eliminations per germ
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(brieskorn_pham_in_new_coordinates())
@example_germ(3, 4, "u^3+v^4")
@example_germ(3, 4, "(u+v)^3+v^4")
@example_germ(2, 7, "u^2+v^7")
@example_germ(2, 7, "(u+v)^2+v^7")
@example_germ(2, 7, "(u+v^2)^2+v^7")
@example_germ(3, 5, "(u+2*v^2)^3+(v+u)^5")
@example_germ(4, 5, "(u+v^2)^4+(v-u^3)^5")
@example_germ(5, 6, "(u+v)^5+v^6")
def test_tail_map_spectrum_of_a_brieskorn_pham_germ_in_new_coordinates(case):
    """With tau = mu, .f is zero on M_f, the kernel basis is the unit
    vectors and T_f = M_f, so the tail map is an endomorphism A of M_f.
    A is diagonalizable with the spectrum of u^a + v^b in any coordinates:
    the numbers (k+1)/a + (l+1)/b, k < a-1, l < b-1, with multiplicity,
    each alpha the nullity of A - alpha*I under the dense oracle."""
    a, b, f = case
    mu = (a - 1) * (b - 1)
    germ = PlaneAnalysis(PlaneSingularity(f))
    assert (germ.invariants.mu, germ.invariants.tau) == (mu, mu)
    assert list(germ.mult_by_f()) == [{k: 1} for k in range(mu)]
    assert germ.milnor.basis == germ.tjurina.basis
    A = tail_matrix(germ, germ.tail_map_general().columns)
    spectrum = Counter(
        Fraction(k + 1, a) + Fraction(l + 1, b) for k in range(a - 1) for l in range(b - 1)
    )
    nullities = {}
    for alpha in spectrum:
        shifted = [[x - alpha * (r == s) for s, x in enumerate(row)] for r, row in enumerate(A)]
        nullities[alpha] = mu - len(gauss_jordan(shifted)[1])
    assert nullities == spectrum
    assert sum(nullities.values()) == mu


@pytest.mark.parametrize("src", ["u^2+v^3", "u^3+v^5", "u^5+v^5+u^3*v^3"])
def test_witness_independence(monkeypatch, src):
    base = analysis(src).tail_map_general()
    for seed in (1, 2, 42):
        monkeypatch.setattr(plane, "RECHECK_SEED", seed)
        assert analysis(src).tail_map_general().columns == base.columns


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


def zoo_examples(test):
    """``test`` with each germ of the corpus zoo as an explicit example."""
    for doc in corpus.zoo():
        test = example(parse_poly(doc["f"], UV))(test)
    return test


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(germs())
@zoo_examples
def test_weights_imply_tau_equals_mu(f):
    """Weights come back only when f = w1*u*f_u + w2*v*f_v, which puts f
    in its Jacobian ideal, so tau = mu: the report's qh-full-rank check
    needs no guard of its own."""
    a = PlaneAnalysis(PlaneSingularity(f))
    if a.effective_weights is not None:
        assert a.invariants.qh_by_saito


def test_readme_library_example():
    """The README's library example runs, and each ``# ...`` comment is the
    repr of the value on its line."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.M | re.S)[1]
    namespace, shown = {}, 0
    for line in block.splitlines():
        code, _, comment = line.partition("# ")
        if comment:
            assert repr(eval(code, namespace)) == comment.strip()
            shown += 1
        else:
            exec(line, namespace)
    assert shown == 3


def test_tail_matrix_stable_under_truncation_raise(monkeypatch):
    a = analysis("u^3+v^5")
    order = a.milnor.truncation_order + 2
    monkeypatch.setattr(
        plane, "build_jet_algebra",
        lambda generators: JetAlgebra(generators, order, tagged=False),
    )
    raised = analysis("u^3+v^5")
    assert raised.milnor.truncation_order == order
    assert raised.tail_map_general().columns == a.tail_map_general().columns


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
        Poly(f.vars, {a.milnor.basis[k]: c for k, c in vec.items()})
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
        alpha, beta = poly_witness(witness_algebra, f * lift, order)
        columns.append(dense_normal_form(a.tjurina, alpha.diff(u) + beta.diff(v)))
    return tuple(
        tuple(col[i] for col in columns) for i in range(len(a.tjurina.basis))
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(germs())
@example(parse_poly("u^5+v^7+u^3*v^3", UV))  # a kernel entry with denominator 27
@example(parse_poly("u^5+v^6+u*v^5", UV))  # and one with denominator 5
def test_mult_by_f_matches_gauss_jordan_nullspace(f):
    """The kernel of .f is the Gauss-Jordan nullspace of the dense matrix of
    .f, whose columns are Poly normal forms of f times each basis monomial."""
    a = PlaneAnalysis(PlaneSingularity(f))
    basis = a.milnor.basis
    columns = [dense_normal_form(a.milnor, f * Poly(UV, {mono: 1})) for mono in basis]
    rows = [[col[i] for col in columns] for i in range(len(basis))]
    assert dense_vectors(a.mult_by_f(), len(basis)) == tuple(
        map(tuple, oracle_nullspace(rows, len(basis)))
    )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(germs())
@example(parse_poly("u^5+v^6+2*u^3*v^3", UV))
@example(parse_poly("(u^2-v^3)^2+u*v^5", UV))
def test_tail_rank_is_tau_iff_quasihomogeneous(f):
    """The local form of the paper's theorem, read off the tail map: the
    tail differential from ker(.f on M_f) to T_f has rank tau exactly when
    mu = tau, that is, when f is quasihomogeneous (Saito)."""
    a = PlaneAnalysis(PlaneSingularity(f))
    mu, tau = a.invariants.mu, a.invariants.tau
    assert (a.tail_map_general().rank == tau) == (mu == tau)


def seeded_family(count, seed=3):
    """c1*u^a + c2*v^b (a in 2..7, b in 2..9) plus up to four terms strictly
    above its Newton boundary, of degree <= max(a, b) + 2, all with
    rational coefficients: isolated, and often with tau < mu."""
    rng = random.Random(seed)

    def coefficient():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 6))

    for _ in range(count):
        a, b = rng.randint(2, 7), rng.randint(2, 9)
        terms = {(a, 0): coefficient(), (0, b): coefficient()}
        above = [
            (i, j) for i in range(a + 1) for j in range(b + 1)
            if i * b + j * a > a * b and i + j <= max(a, b) + 2
        ]
        for mono in rng.sample(above, rng.randint(0, min(4, len(above)))):
            terms[mono] = coefficient()
        yield Poly(UV, terms)


def assert_tail_rank_is_2tau_minus_mu(f):
    """Asserts the identity on f and returns (mu, tau, tail matrix)."""
    a = PlaneAnalysis(PlaneSingularity(f))
    mu, tau = a.invariants.mu, a.invariants.tau
    tail = a.tail_map_general()
    assert tail.rank == 2 * tau - mu, f
    return mu, tau, tail_matrix(a, tail.columns)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(germs())
def test_tail_cokernel_has_dimension_mu_minus_tau(f):
    """The tail map ker(.f on M_f) -> T_f has rank 2*tau - mu, so its
    cokernel has dimension mu - tau: an identity that reads mu and tau
    only, stronger than rank == tau iff mu == tau."""
    assert_tail_rank_is_2tau_minus_mu(f)


@pytest.mark.parametrize(
    "src,mu,tau",
    [("u^5+v^31+u^3*v^19", 120, 109), ("(u^2-v^3)^2+u*v^5", 16, 14)],
)
def test_tail_cokernel_named_examples(src, mu, tau):
    assert assert_tail_rank_is_2tau_minus_mu(parse_poly(src, UV))[:2] == (mu, tau)


# sha256 of the family's tail matrices: any change of a tail class changes it
SEEDED_FAMILY_TAIL_SHA256 = (
    "e18162eeef41bbd1020761b3afb86eedab78122317d8d91dbafbb27e21fa5077"
)


def test_tail_cokernel_on_a_seeded_family():
    digest, non_qh = hashlib.sha256(), 0
    for f in seeded_family(400):
        mu, tau, matrix = assert_tail_rank_is_2tau_minus_mu(f)
        non_qh += mu > tau
        digest.update(repr((str(f), [[str(x) for x in row] for row in matrix])).encode())
    assert non_qh >= 50  # the family does reach tau < mu
    assert digest.hexdigest() == SEEDED_FAMILY_TAIL_SHA256


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(germs())
# germs whose witnesses need many lifting passes
@example(parse_poly("u^5+v^6+2*u^3*v^3", UV))
@example(parse_poly("u^4+v^5+u^3*v^2", UV))
@example(parse_poly("(u^2-v^3)^2+u*v^5", UV))
def test_tail_map_matches_degree_order_oracle(f):
    a = PlaneAnalysis(PlaneSingularity(f))
    assert tail_matrix(a, a.tail_map_general().columns) == degree_order_tail_matrix(a)


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
    scaled = PlaneAnalysis(PlaneSingularity(f * Poly.const(UV, c))).tail_map_general()
    assert scaled.columns == tail.columns


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
    moved = f.substitute({"u": u + v ** k * Poly.const(UV, c), "v": v})
    invariants = PlaneAnalysis(PlaneSingularity(f)).invariants
    assert invariants.tau <= invariants.mu == (a - 1) * (b - 1)
    moved_invariants = PlaneAnalysis(PlaneSingularity(moved)).invariants
    assert (moved_invariants.mu, moved_invariants.tau) == (invariants.mu, invariants.tau)


# -- jet algebras derived by extension ---------------------------------------

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
        assert dense_normal_form(derived, p) == dense_normal_form(fresh, p)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(germs(max_k=12), st.integers(-2, 2), st.lists(jet_polys, max_size=4))
# non-QH germs where (f) adds two dimensions to the Jacobian ideal:
# mu 16, tau 14 and mu 20, tau 18, so an extension by f alone is caught
@example(parse_poly("(u^2-v^3)^2+u*v^5", UV), 0, [])
@example(parse_poly("u^5+v^6+2*u^3*v^3", UV), 0, [])
def test_derived_algebras_equal_fresh_builds(f, shift, polys):
    """The Jacobian rows at order T, extended by the columns of .f, the
    normal forms of f times each standard monomial of the Jacobian algebra,
    have the basis, primality bound and normal forms of a fresh build of
    the Tjurina ideal at T (T runs around the certified Milnor order T_c;
    the Tjurina ideal certifies wherever the Jacobian does)."""
    jac = [f.diff("u"), f.diff("v")]
    T = max(1, build_jet_algebra(jac).truncation_order + shift)
    base = build_or_none(jac, T, tagged=False)
    if base is None:  # nothing to extend
        return
    F, d = linalg.integer_row(f.terms)
    columns = [
        base.normal_form({tuple(map(add, m, b)): c for m, c in F.items()}, d)
        for b in base.basis
    ]
    rows = [
        linalg.integer_row({base.basis_keys[i]: c for i, c in column.items()})[0]
        for column in columns if column
    ]
    tjurina = build_or_none(jac + [f], T, tagged=False, base=base, multiples=rows)
    assert_same_algebra(tjurina, build_or_none(jac + [f], T, tagged=False), polys)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(germs(max_k=12))
@example(parse_poly("u^5+v^6+2*u^3*v^3", UV))
@example(parse_poly("(u^2-v^3)^2+u*v^5", UV))
def test_lifted_witnesses_pass_the_exact_defect_check(f):
    """Witnesses from the order-(N_M + 2) algebra, lifted through its cache
    to T_w = N_M + N_T, satisfy f*lift = alpha*f_u + beta*f_v up to terms
    of degree > T_w, checked here in Poly arithmetic; so do those of the
    same algebra with reshuffled rows, lifted to T_w + 2."""
    a = PlaneAnalysis(PlaneSingularity(f))
    n_m = max(1, a.milnor.primality_bound)
    order = max(1, a.milnor.primality_bound + a.tjurina.primality_bound)
    jac = [a.f_u, a.f_v]
    witness_algebra = JetAlgebra(jac, n_m + 2)
    recheck_algebra = reshuffled(witness_algebra, 1)
    for vec in a.mult_by_f():
        target = f * Poly(UV, {a.milnor.basis[k]: c for k, c in vec.items()})
        integer_target, d = linalg.integer_row(target.terms)
        for algebra, lifted_order in (
            (witness_algebra, order), (recheck_algebra, order + 2)
        ):
            cofactors, s = algebra.membership_with_witness(
                integer_target, d, lifted_order
            )
            alpha, beta = (Poly(UV, {m: Fraction(c, s) for m, c in C.items()})
                           for C in cofactors)
            defect = target - alpha * a.f_u - beta * a.f_v
            assert defect.is_zero() or defect.order() > lifted_order


def poly_cofactors(witness):
    """Integer cofactors over one scale, as Polys."""
    cofactors, s = witness
    return [Poly(UV, {m: Fraction(c, s) for m, c in C.items()}) for C in cofactors]


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(germs(max_k=12))
@example(parse_poly("u^5+v^6+2*u^3*v^3", UV))
@example(parse_poly("(u^2-v^3)^2+u*v^5", UV))
def test_composed_witnesses_pass_the_exact_defect_check(f):
    """With R the normal form of f in an algebra, the witness
    lift*W_(f-R) + W_(R*lift) of f*lift, from that algebra's witnesses,
    satisfies f*lift = alpha*f_u + beta*f_v up to terms of degree > T_w
    for the order-(N_M + 2) algebra, and > T_w + 2 for the same algebra
    with reshuffled rows, checked here in Poly arithmetic; R is zero
    exactly when tau = mu."""
    a = PlaneAnalysis(PlaneSingularity(f))
    n_m = max(1, a.milnor.primality_bound)
    order = max(1, a.milnor.primality_bound + a.tjurina.primality_bound)
    jac = [a.f_u, a.f_v]
    lifts = [
        Poly(UV, {a.milnor.basis[k]: c for k, c in vec.items()}) for vec in a.mult_by_f()
    ]
    witness_algebra = JetAlgebra(jac, n_m + 2)
    for algebra, lifted_order in (
        (witness_algebra, order),
        (reshuffled(witness_algebra, plane.RECHECK_SEED), order + 2),
    ):
        normal = algebra.normal_form(*linalg.integer_row(f.terms))
        R = Poly(UV, {algebra.basis[k]: c for k, c in normal.items()})
        assert R.is_zero() == a.invariants.qh_by_saito
        W = poly_cofactors(algebra.membership_with_witness(
            *linalg.integer_row((f - R).terms), lifted_order
        ))
        for lift in lifts:
            alpha, beta = lift * W[0], lift * W[1]
            if not (R * lift).is_zero():
                A = poly_cofactors(algebra.membership_with_witness(
                    *linalg.integer_row((R * lift).terms), lifted_order
                ))
                alpha, beta = alpha + A[0], beta + A[1]
            defect = f * lift - alpha * a.f_u - beta * a.f_v
            assert defect.is_zero() or defect.order() > lifted_order


@pytest.mark.parametrize(
    "src", ["u^2+v^41", "u^4+v^6+u^3*v^3", "u^5+v^6+2*u^3*v^3"]
)
def test_tail_map_lifts_one_witness_of_f_minus_its_normal_form_per_algebra(
    monkeypatch, src
):
    """Each of the two algebras lifts one witness, of f - R, and one more
    per kernel lift m~ with R*m~ != 0, R the normal form of f: 2 in all
    when tau = mu, where R = 0."""
    a = analysis(src)
    f = a.sing.f
    calls = []
    membership_with_witness = JetAlgebra.membership_with_witness

    def counting(self, *args):
        calls.append(args)
        return membership_with_witness(self, *args)

    monkeypatch.setattr(JetAlgebra, "membership_with_witness", counting)
    a.tail_map_general()
    normal = a.milnor.normal_form(*linalg.integer_row(f.terms))
    R = Poly(UV, {a.milnor.basis[k]: c for k, c in normal.items()})
    moved = sum(
        not (R * Poly(UV, {a.milnor.basis[k]: c for k, c in vec.items()})).is_zero()
        for vec in a.mult_by_f()
    )
    assert len(calls) == 2 + 2 * moved
    assert (moved == 0) == a.invariants.qh_by_saito


def test_tail_map_builds_no_algebra_above_the_table_order(monkeypatch):
    built = []

    def recording(generators, truncation_order, **kwargs):
        built.append(truncation_order)
        return JetAlgebra(generators, truncation_order, **kwargs)

    a = analysis("u^5+v^6+2*u^3*v^3")
    monkeypatch.setattr(plane, "JetAlgebra", recording)
    a.tail_map_general()
    n_m = a.milnor.primality_bound
    assert built == [n_m + 2, n_m + 2]
    assert n_m + a.tjurina.primality_bound > n_m + 2


@pytest.mark.parametrize(
    "src, mu, tau", [("u^2+v^11", 10, 10), ("(u^2-v^3)^2+u*v^5", 16, 14)]
)
def test_tjurina_build_inserts_at_most_one_row_per_milnor_basis_monomial(
    monkeypatch, src, mu, tau
):
    """The Tjurina algebra inserts the nonzero columns of .f, at most one
    per standard monomial of the Milnor algebra, not every multiple of f of
    degree <= T (45 on each germ here): none on the QH germ, where f lies
    in the Jacobian ideal, and some on the non-QH one."""
    inserted, building = [], []
    insert = linalg.Echelon.insert

    def recording_insert(self, row):
        if building:
            inserted.append(row)
        return insert(self, row)

    def recording_algebra(*args, **kwargs):
        building.append(True)
        try:
            return JetAlgebra(*args, **kwargs)
        finally:
            building.pop()

    monkeypatch.setattr(linalg.Echelon, "insert", recording_insert)
    monkeypatch.setattr(plane, "JetAlgebra", recording_algebra)
    a = analysis(src)
    if mu == tau:
        assert inserted == []
    else:
        assert 0 < len(inserted) <= len(a.milnor.basis)
    assert (a.invariants.mu, a.invariants.tau) == (mu, tau)


def test_tail_map_eliminations_insert_one_row_list_in_two_orders(monkeypatch):
    """The witness and re-check algebras insert the same rows, built once,
    the re-check in the witness order shuffled by
    ``random.Random(RECHECK_SEED)``, so each seed gives its own order; the
    Milnor and Tjurina algebras keep no row list."""
    inserted, building, built = [], [], []
    insert, multiples = linalg.Echelon.insert, JetAlgebra._multiples

    def recording_insert(self, row):
        if building:
            inserted[-1].append(tuple(sorted(row.items())))
        return insert(self, row)

    def recording_multiples(self):
        built.append(self.truncation_order)
        return multiples(self)

    def recording_algebra(*args, **kwargs):
        inserted.append([])
        building.append(True)
        try:
            return JetAlgebra(*args, **kwargs)
        finally:
            building.pop()

    monkeypatch.setattr(linalg.Echelon, "insert", recording_insert)
    monkeypatch.setattr(JetAlgebra, "_multiples", recording_multiples)
    monkeypatch.setattr(plane, "JetAlgebra", recording_algebra)
    orders = []
    for seed in (1, 2, 42):
        monkeypatch.setattr(plane, "RECHECK_SEED", seed)
        a = analysis("u^5+v^6+2*u^3*v^3")
        inserted.clear()
        built.clear()
        a.tail_map_general()
        witness, recheck = inserted
        shuffled = list(witness)
        random.Random(seed).shuffle(shuffled)
        assert len(witness) > 1 and recheck == shuffled
        assert witness != recheck
        assert built == [a.milnor.primality_bound + 2]
        assert a.milnor.multiples is None and a.tjurina.multiples is None
        orders.append(recheck)
    assert len({tuple(order) for order in orders}) == 3


# -- sparse vectors ---------------------------------------------------------

def assert_sparse_tail_data(a):
    """No kernel vector, tail column or scalar column stores a zero, and
    the rank of each set of columns is the Gauss-Jordan rank of its dense
    matrix."""
    tail = a.tail_map_general()
    ranked = [(tail.columns, tail.rank)]
    if a.effective_weights is not None:
        scalar = a.tail_map_wh_scalar()
        ranked.append((scalar, linalg.rank(scalar)))
    assert all(all(vec.values()) for vec in a.mult_by_f())
    for columns, rank in ranked:
        assert all(all(column.values()) for column in columns)
        assert rank == len(gauss_jordan(tail_matrix(a, columns))[1])


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(germs())
@example(parse_poly("u^5+v^6+2*u^3*v^3", UV))
@example(parse_poly("u^3+v^5", UV))
def test_tail_data_is_sparse_and_ranked_like_gauss_jordan(f):
    assert_sparse_tail_data(PlaneAnalysis(PlaneSingularity(f)))


def test_corpus_tail_data_is_sparse_and_ranked_like_gauss_jordan():
    models = corpus.curve_models()
    assert len(models) == 12
    for doc in models:
        for sing in build_curve(doc).singularities:
            if isinstance(sing, PlaneSingularity):
                assert_sparse_tail_data(PlaneAnalysis(sing))


def test_analyze_computes_one_tail_map_per_plane_singularity(monkeypatch):
    """The report's witness-independence check is the tail map's own
    re-check, not a second tail map."""
    labels = []
    tail_map_general = PlaneAnalysis.tail_map_general

    def recording(self, *args, **kwargs):
        labels.append(self.sing.label)
        return tail_map_general(self, *args, **kwargs)

    monkeypatch.setattr(PlaneAnalysis, "tail_map_general", recording)
    docs = {doc["label"]: doc for doc in corpus.curve_models()}
    report = analyze(build_curve(docs["two-sing-genus-1"]), AnalysisOptions())
    assert labels == ["node", "cusp"]
    assert [c.status for c in report.checks if c.name == "witness-independence"] == [
        "pass", "pass"
    ]


def test_analyze_ranks_each_plane_germ_once(monkeypatch):
    """The tail map's rank is the one ``linalg.rank`` call per plane germ:
    the weighted cross-check compares columns and ranks nothing."""
    rank, analyze_plane = linalg.rank, report._analyze_plane
    per_germ, weighted, inside = [], [], []

    def counting_rank(columns):
        if inside:
            per_germ[-1] += 1
        return rank(columns)

    def counting_plane(sing, checks):
        per_germ.append(0)
        start = len(checks)
        inside.append(True)
        try:
            return analyze_plane(sing, checks)
        finally:
            inside.pop()
            weighted.append(any(c.name == "wh-scalar-agreement" for c in checks[start:]))

    monkeypatch.setattr(linalg, "rank", counting_rank)
    monkeypatch.setattr(report, "_analyze_plane", counting_plane)
    germs_seen = 0
    for doc in corpus.curve_models():
        model = build_curve(doc)
        germs_seen += sum(isinstance(s, PlaneSingularity) for s in model.singularities)
        analyze(model, AnalysisOptions())
    assert per_germ == [1] * germs_seen
    assert any(weighted)


def test_recheck_mismatch_raises(monkeypatch):
    """A class that moves under the reshuffled re-check at T_w + 2 stops
    the tail map."""
    a = analysis("u^3+v^5")
    t_w = a.milnor.primality_bound + a.tjurina.primality_bound
    tail_columns = plane.PlaneAnalysis._tail_columns

    def moved_on_recheck(self, lifts, algebra, order):
        columns = tail_columns(self, lifts, algebra, order)
        if order == t_w:
            return columns
        return ({**columns[0], 0: columns[0].get(0, 0) + 1},) + columns[1:]

    monkeypatch.setattr(plane.PlaneAnalysis, "_tail_columns", moved_on_recheck)
    with pytest.raises(WitnessOrderInsufficient, match="reshuffled re-check"):
        a.tail_map_general()
