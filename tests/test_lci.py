"""Non-planar complete-intersection germs and the degree -1 obstruction."""

import os
import subprocess
import sys
import textwrap
from math import comb
from pathlib import Path

import pytest

import curveinv
from curveinv.errors import NonMinimalPresentation, PlanarNoObstruction
from curveinv.lci import (
    LciPresentation,
    coker_mod_m_cross_check,
    complex_term_ranks,
    embedding_dimension,
    obstruction,
    verify_parametrization,
)
from curveinv.poly import parse_branch, parse_poly

XYZ = ("x", "y", "z")


def pres(equations, variables=XYZ, param=None):
    return LciPresentation(
        variables=variables,
        equations=tuple(parse_poly(src, variables) for src in equations),
        parametrization=None if param is None else parse_branch(param),
    )


T469 = pres(["y^2-x^3", "z^2-y^3"], param=["t^4", "t^6", "t^9"])
FOURSPACE = pres(
    ["y^2-x^3", "z^2-y^3", "w^2-z^3"],
    variables=("x", "y", "z", "w"),
    param=["t^8", "t^12", "t^18", "t^27"],
)


# -- embedding dimension ----------------------------------------------------

def test_embedding_dimension_t469():
    assert embedding_dimension(T469) == 3


def test_planar_presentation_has_dimension_two():
    p = pres(["u^2+v^3"], variables=("u", "v"))
    assert embedding_dimension(p) == 2
    with pytest.raises(PlanarNoObstruction):
        obstruction(p)


def test_non_minimal_rejected():
    p = pres(["y-x^2", "z^2-y^3"])
    with pytest.raises(NonMinimalPresentation):
        embedding_dimension(p)


def test_wrong_equation_count_rejected():
    with pytest.raises(ValueError):
        pres(["y^2-x^3"])


# -- parametrization checks -------------------------------------------------

def test_parametrization_verified():
    assert verify_parametrization(T469)
    assert verify_parametrization(FOURSPACE)


def test_wrong_parametrization_detected():
    bad = pres(["y^2-x^3", "z^2-y^3"], param=["t^3", "t^4", "t^5"])
    assert not verify_parametrization(bad)
    # z^2 - y^3 pulls back to t^110 - t^108, past a fixed order of 64.
    bad = pres(["y^2-x^3", "z^2-y^3"], param=["t^24", "t^36", "t^55"])
    assert not verify_parametrization(bad)
    # Off the curve only at t^42, t^34, t^74: above eight times the top
    # image degree, so any check truncated at that order would pass them.
    for equations, param in [
        (["y^2-x^3", "z^2-x^5-x^21"], ["t^2", "t^3", "t^5"]),
        (["y^2-x^3", "z^2-x^4-x^17"], ["t^2", "t^3", "t^4"]),
        (["y^2-x^3", "z^2-x^9-x^37"], ["t^2", "t^3", "t^9"]),
    ]:
        assert not verify_parametrization(pres(equations, param=param))


# -- complex term ranks -----------------------------------------------------

def test_term_ranks_e3_p4():
    assert complex_term_ranks(3, 4) == [(-4, 5), (-3, 12), (-2, 9), (-1, 2)]


def test_term_ranks_e2_p3():
    assert complex_term_ranks(2, 3) == [(-3, 1), (-2, 2), (-1, 1)]


def test_term_ranks_match_independent_summation():
    # re-derive the alternating sum with a separate binomial routine
    for e in range(2, 6):
        for p in range(1, e + 3):
            ranks = complex_term_ranks(e, p)
            direct = sum((-1) ** i * rank for (_, rank), i in zip(ranks, range(len(ranks))))
            independent = sum(
                (-1) ** i * comb(p - i + e - 2, e - 2) * comb(e, i)
                for i in range(min(p, e) + 1)
            )
            assert direct == independent


def test_top_degree_beyond_window():
    # for p >= e + 2 the complex never reaches degree -1
    for e in range(3, 6):
        for p in range(e + 2, e + 5):
            top_degree = complex_term_ranks(e, p)[-1][0]
            assert top_degree == -p + min(p, e) < -1


# -- obstruction ------------------------------------------------------------

def test_obstruction_t469():
    rep = obstruction(T469)
    assert rep.e == 3
    assert rep.coker_mod_m_dim == 2
    assert rep.nonzero_H_minus1
    assert rep.obstruction_position == (4, -1)
    assert rep.total_degree == 3


def test_obstruction_fourspace():
    rep = obstruction(FOURSPACE)
    assert rep.e == 4
    assert rep.coker_mod_m_dim == 3
    assert rep.obstruction_position == (5, -1)
    assert rep.total_degree == 4


def test_mod_m_cross_check():
    assert coker_mod_m_cross_check(T469) == 2
    assert coker_mod_m_cross_check(FOURSPACE) == 3


def test_obstruction_requires_minimality():
    p = pres(["y-x^2", "z^2-y^3"])
    with pytest.raises(NonMinimalPresentation):
        obstruction(p)


def test_obstruction_top_term_check_survives_optimize():
    # Under ``python -O`` a bare assert would vanish; the check must not.
    script = textwrap.dedent("""
        from curveinv import lci
        from curveinv.poly import parse_poly

        lci.complex_term_ranks = lambda e, p: [(-1, 0)]
        xyz = ("x", "y", "z")
        p = lci.LciPresentation(
            variables=xyz,
            equations=tuple(parse_poly(s, xyz) for s in ("y^2-x^3", "z^2-y^3")),
            parametrization=None,
        )
        try:
            lci.obstruction(p)
        except AssertionError as exc:
            print("raised:", exc)
        else:
            print("returned")
    """)
    src = str(Path(curveinv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout == "raised: top term of the complex is (-1, 0), expected (-1, 2)\n"
