"""Seeded workloads for the curveinv benchmark.

A workload is a list of strata.  Each stratum fixes the shape of one
input (exponents, singularity mix, windows), which fixes its cost; the
seed picks, for every op, a presentation of that shape (variable names,
signs) and the order of the ops in each pass.  So different seeds send the
engine different equations and documents, while runs with different seeds
measure the same amount of work and stay comparable.

Every op carries ``expect``: facts derived from the generator's own
parameters by ``oracles``, never from the engine.  ``check_output`` tests
the engine's stdout against them; the byte-identity reference lives in
``references.json``, keyed by ``Op.key``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import oracles

DOC = "{doc}"  # stands for the document path in an analyze argv


@dataclass(frozen=True)
class Op:
    key: str  # stable id into references.json
    argv: Tuple[str, ...]  # curveinv CLI arguments
    doc: Optional[dict] = None  # curve document, written to DOC before the op
    expect: Dict[str, object] = field(default_factory=dict, compare=False)


def _analyze_op(doc: dict, options: Sequence[str], expect: dict) -> Op:
    argv = ("analyze", DOC) + tuple(options)
    return Op(" ".join(argv).replace(DOC, doc["label"]), argv, doc, expect)


# ---------------------------------------------------------------------------
# plane-sing: `sing --format json-like` over plane germs
# ---------------------------------------------------------------------------

PLANE_NAMES = (("u", "v"), ("x", "y"), ("p", "q"), ("a", "b"))


def _bp(a: int, b: int):
    return "{u}^%d{s}{v}^%d" % (a, b), oracles.brieskorn_pham_milnor(a, b), True


def _d_type(k: int):
    return "{u}^2*{v}{s}{v}^%d" % k, oracles.qh_milnor(*oracles.d_type_weights(k)), True


def _e_type(k: int):
    return "{u}^3{s}{u}*{v}^%d" % k, oracles.qh_milnor(*oracles.e_type_weights(k)), True


def _semi_qh(a: int, b: int, c: int, i: int, j: int):
    """u^a + s*(v^b + c*u^i*v^j) with i/a + j/b > 1: not QH, mu of u^a + v^b."""
    if i * b + j * a <= a * b:
        raise ValueError("perturbation must lie above the Newton boundary")
    return (
        "{u}^%d{s}{v}^%d{s}%d*{u}^%d*{v}^%d" % (a, b, c, i, j),
        oracles.brieskorn_pham_milnor(a, b),
        False,
    )


# One stratum per shape, roughly ascending cost (0.03 s to 2 s per op).
PLANE_STRATA = (
    _bp(3, 4), _bp(4, 5), _bp(3, 5), _bp(5, 7), _bp(6, 7),
    _e_type(5), _semi_qh(3, 7, 1, 2, 5), _bp(3, 11), _bp(2, 11),
    _d_type(10), _semi_qh(4, 6, 1, 3, 3), _semi_qh(4, 5, 1, 3, 2),
    _e_type(8), _semi_qh(5, 6, 2, 3, 3), _bp(2, 21), _d_type(20),
    _bp(2, 31), _bp(2, 41),
)


def _plane_op(stratum, names, sign: str) -> Op:
    template, mu, qh = stratum
    u, v = names
    expr = template.format(u=u, v=v, s=sign)
    argv = ("sing", expr, "--vars", f"{u},{v}", "--format", "json-like")
    return Op(" ".join(argv), argv, None, {"mu": mu, "qh": qh})


def _plane_variants(stratum) -> List[Op]:
    return [_plane_op(stratum, n, s) for n in PLANE_NAMES for s in "+-"]


def _check_plane(op: Op, out: str) -> Optional[str]:
    data = json.loads(out)
    mu, tau = data["mu"], data["tau"]
    if mu != op.expect["mu"]:
        return f"mu={mu}, oracle says {op.expect['mu']}"
    if tau > mu:
        return f"tau={tau} exceeds mu={mu}"
    if op.expect["qh"] and tau != mu:
        return f"quasihomogeneous input but tau={tau} != mu={mu}"
    return None


# ---------------------------------------------------------------------------
# lci-chain: `analyze` on genus-0 documents with one monomial CI germ
# ---------------------------------------------------------------------------

# (t-exponents, equations as (variable index, exponent vector)): x_i^2 equals
# the monomial in the earlier variables.  Semigroup generated by the
# exponents; every later generator has 2*n in the earlier semigroup.
LCI_STRATA = (
    ((4, 6, 9), ((1, (3,)), (2, (0, 3)))),
    ((4, 10, 13), ((1, (5,)), (2, (4, 1)))),
    ((8, 12, 10, 11), ((1, (3,)), (2, (1, 1)), (3, (0, 1, 1)))),
    ((4, 6, 13), ((1, (3,)), (2, (5, 1)))),
    ((8, 20, 22, 21), ((1, (5,)), (2, (3, 1)), (3, (0, 1, 1)))),
    ((8, 12, 14, 17), ((1, (3,)), (2, (2, 1)), (3, (1, 1, 1)))),
    ((4, 6, 19), ((1, (3,)), (2, (8, 1)))),
    ((8, 28, 18, 23), ((1, (7,)), (2, (1, 1)), (3, (0, 1, 1)))),
    ((16, 24, 20, 22, 23), ((1, (3,)), (2, (1, 1)), (3, (0, 1, 1)), (4, (0, 1, 0, 1)))),
    ((8, 12, 10, 19), ((1, (3,)), (2, (1, 1)), (3, (2, 1, 1)))),
    ((16, 24, 20, 18, 17), ((1, (3,)), (2, (1, 1)), (3, (1, 0, 1)), (4, (1, 0, 0, 1)))),
    ((16, 24, 20, 18, 19), ((1, (3,)), (2, (1, 1)), (3, (1, 0, 1)), (4, (0, 0, 1, 1)))),
    ((8, 12, 18, 27), ((1, (3,)), (2, (0, 3)), (3, (0, 0, 3)))),
)
# The e=5 chain (16, 24, 36, 54, 81) is left out: one op takes 13.7 s,
# longer than a run.

LCI_NAMES = ("x1 x2 x3 x4 x5", "x y z w s", "a b c d f")


def _monomial(names: Sequence[str], exps: Sequence[int]) -> str:
    parts = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
    return "*".join(parts)


def _lci_op(stratum, scheme: int, flip: bool) -> Op:
    gens, relations = stratum
    names = LCI_NAMES[scheme].split()[: len(gens)]
    equations = []
    for i, exps in relations:
        if sum(g * e for g, e in zip(gens, exps)) != 2 * gens[i]:
            raise ValueError(f"relation for x{i + 1} is not homogeneous in t")
        left, right = f"{names[i]}^2", _monomial(names, exps)
        equations.append(f"{right}-{left}" if flip else f"{left}-{right}")
    label = "lci-" + ".".join(map(str, gens)) + f"-n{scheme}" + ("-f" if flip else "")
    doc = {
        "label": label,
        "genus": 0,
        "singularities": [{
            "kind": "lci",
            "label": "germ",
            "variables": names,
            "equations": equations,
            "parametrization": [f"t^{g}" for g in gens],
        }],
    }
    expect = {"delta": oracles.semigroup_gaps(gens), "e": len(gens)}
    return _analyze_op(doc, ("--format", "json-like"), expect)


def _lci_variants(stratum) -> List[Op]:
    return [_lci_op(stratum, k, f) for k in range(len(LCI_NAMES)) for f in (False, True)]


def _check_lci(op: Op, out: str) -> Optional[str]:
    data = json.loads(out)
    sing = data["singularities"][0]
    e = op.expect["e"]
    if data["verdict"]["value"] != "FailsViaNonPlanar":
        return f"verdict {data['verdict']['value']}, expected FailsViaNonPlanar"
    if sing["embedding_dimension"] != e or sing["obstruction_position"] != [e + 1, -1]:
        return f"obstruction at {sing['obstruction_position']}, expected {[e + 1, -1]}"
    delta = (sing.get("delta") or {}).get("value")
    if delta != op.expect["delta"]:
        return f"delta={delta}, semigroup gap count is {op.expect['delta']}"
    return None


# ---------------------------------------------------------------------------
# wide-pages: `analyze` in both formats with wide tail and cyclic windows
# ---------------------------------------------------------------------------

def _node(u, v, k):
    return {
        "kind": "plane", "label": f"node{k}", "f": f"{u}*{v}",
        "variables": [u, v], "weights": ["1/2", "1/2"],
        "branches": [
            {"images": ["t", "0"], "equation": v},
            {"images": ["0", "t"], "equation": u},
        ],
    }


def _cusp(u, v, k):
    return {
        "kind": "plane", "label": f"cusp{k}", "f": f"{u}^2-{v}^3",
        "variables": [u, v], "branches": [{"images": ["t^3", "t^2"]}],
    }


def _tacnode(u, v, k):
    return {
        "kind": "plane", "label": f"tacnode{k}", "f": f"{u}^2-{v}^4",
        "variables": [u, v],
        "branches": [
            {"images": ["t^2", "t"], "equation": f"{u}-{v}^2"},
            {"images": ["-1*t^2", "t"], "equation": f"{u}+{v}^2"},
        ],
    }


def _t469(u, v, k):
    return {
        "kind": "lci", "label": f"t469-{k}", "variables": [u, v, "z"],
        "equations": [f"{v}^2-{u}^3", f"z^2-{v}^3"],
        "parametrization": ["t^4", "t^6", "t^9"],
    }


GERMS = {"node": _node, "cusp": _cusp, "tacnode": _tacnode, "t469": _t469}

# (singularities, tail window p, cyclic window a,b)
WIDE_STRATA = (
    ((), 48, (-2, 46)),
    (("node",), 44, (-2, 42)),
    (("cusp",), 48, (-1, 47)),
    (("tacnode",), 48, (-2, 46)),
    (("node", "node"), 44, (-2, 42)),
    (("node", "cusp"), 48, (-3, 45)),
    (("t469",), 48, (-2, 46)),
    (("node", "node", "cusp"), 44, (-2, 42)),
    (("node", "t469"), 48, (-1, 47)),
)
WIDE_NAMES = PLANE_NAMES[:3]
WIDE_GENERA = (0, 1, 2, 3)


def _wide_ops(stratum, names, genus: int) -> List[Op]:
    kinds, tail, (lo, hi) = stratum
    u, v = names
    label = f"wide-{'+'.join(kinds) or 'smooth'}-p{tail}-g{genus}-{u}{v}"
    doc = {
        "label": label,
        "genus": genus,
        "singularities": [GERMS[kind](u, v, k) for k, kind in enumerate(kinds)],
    }
    verdict = "FailsViaNonPlanar" if "t469" in kinds else "Degenerates"
    expect = {"verdict": verdict, "hc_pages": hi - lo + 1}
    options = ("--tail-window", str(tail), f"--hc-window={lo},{hi}")
    return [
        _analyze_op(doc, options + ("--format", fmt), dict(expect, format=fmt))
        for fmt in ("text", "json-like")
    ]


def _wide_variants(stratum) -> List[List[Op]]:
    return [_wide_ops(stratum, n, g) for n in WIDE_NAMES for g in WIDE_GENERA]


def _check_wide(op: Op, out: str) -> Optional[str]:
    want = op.expect["verdict"]
    if op.expect["format"] == "text":
        lines = out.splitlines()
        if not any(line.startswith("  verdict: ") and line.split()[1] == want for line in lines):
            return f"text report lacks the line 'verdict: {want}'"
        return None
    data = json.loads(out)
    if data["verdict"]["value"] != want:
        return f"verdict {data['verdict']['value']}, expected {want}"
    if len(data["pages"]["hc"]) != op.expect["hc_pages"]:
        return f"{len(data['pages']['hc'])} cyclic pages, expected {op.expect['hc_pages']}"
    return None


# ---------------------------------------------------------------------------
# corpus: the builtin corpus with default options
# ---------------------------------------------------------------------------

def _zoo_expectations() -> Dict[str, Tuple[int, bool]]:
    """Label -> (mu, quasihomogeneous) for the corpus zoo rows."""
    zoo = {f"A{n}": (oracles.brieskorn_pham_milnor(2, n + 1), True) for n in range(1, 11)}
    for n in range(4, 11):
        zoo[f"D{n}"] = (oracles.qh_milnor(*oracles.d_type_weights(n - 1)), True)
    zoo["E6"] = (oracles.brieskorn_pham_milnor(3, 4), True)
    zoo["E7"] = (oracles.qh_milnor(*oracles.e_type_weights(3)), True)
    zoo["E8"] = (oracles.brieskorn_pham_milnor(3, 5), True)
    zoo["nonQH-quintic"] = (oracles.brieskorn_pham_milnor(5, 5), False)
    return zoo


CORPUS_OP = Op("corpus", ("corpus",), None, {"zoo": _zoo_expectations()})


def _check_corpus(op: Op, out: str) -> Optional[str]:
    if "FAIL" in out:
        return "a corpus check failed"
    seen = set()
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 5 and fields[0] in op.expect["zoo"]:
            mu, tau = int(fields[1]), int(fields[2])
            want, qh = op.expect["zoo"][fields[0]]
            if mu != want or tau > mu or (qh and tau != mu):
                return f"zoo row {fields[0]}: mu={mu} tau={tau}, oracle mu={want}"
            seen.add(fields[0])
    missing = set(op.expect["zoo"]) - seen
    return f"zoo rows missing: {sorted(missing)}" if missing else None


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    variants: Tuple[Tuple[Tuple[Op, ...], ...], ...]  # per stratum, per variant: its ops
    check: object  # (op, stdout) -> error message or None
    min_passes: int  # an untraced run makes at least this many passes

    @property
    def tail_pct(self) -> int:
        """Highest whole percentile with ten samples beyond it after min_passes.

        Fixed per workload, so a faster engine (more passes in a run) is
        still compared at the same percentile.  With fewer than eleven
        samples no percentile qualifies and the tail is the maximum.
        """
        n = self.min_passes * len(self.variants_per_pass())
        return 100 if n <= 10 else (100 * (n - 10)) // n

    def variants_per_pass(self) -> List[Op]:
        return [op for stratum in self.variants for op in stratum[0]]

    def pass_ops(self, rng: random.Random) -> List[Op]:
        ops = [op for stratum in self.variants for op in rng.choice(stratum)]
        rng.shuffle(ops)
        return ops

    def passes(self, seed: int) -> Iterator[List[Op]]:
        """The run's inputs: an endless, seed-determined sequence of passes.

        Each pass holds one variant of every stratum, in seeded order.
        """
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield self.pass_ops(rng)

    def catalogue(self) -> List[Op]:
        """Every op any seed can produce."""
        return [op for stratum in self.variants for variant in stratum for op in variant]


def _single(ops: Sequence[Op]) -> Tuple[Tuple[Op, ...], ...]:
    return tuple((op,) for op in ops)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("corpus", (((CORPUS_OP,),),), _check_corpus, 1),
        Workload(
            "plane-sing",
            tuple(_single(_plane_variants(s)) for s in PLANE_STRATA),
            _check_plane, 3,
        ),
        Workload(
            "lci-chain",
            tuple(_single(_lci_variants(s)) for s in LCI_STRATA),
            _check_lci, 3,
        ),
        Workload(
            "wide-pages",
            tuple(tuple(tuple(v) for v in _wide_variants(s)) for s in WIDE_STRATA),
            _check_wide, 6,
        ),
    )
}


def check_output(workload: Workload, op: Op, out: str) -> Optional[str]:
    """Oracle verdict on one op's stdout: None when it agrees."""
    try:
        return workload.check(op, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
