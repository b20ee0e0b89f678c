"""Spans and counters around curveinv's public functions, installed from outside.

The engine has no tracing of its own yet, so the benchmark wraps the
functions at each layer boundary for the traced run and restores them
afterwards.  A wrapper is installed on every name a caller looks up: the
class attribute for a method, and for a module-level function every
``curveinv`` module attribute bound to that same function object (the
modules import each other's functions by name).

Each span records its name, start, end and parent; ``note`` hooks add
counters (rows, truncation order, certified or not) where the work
happens.  ``summarize`` turns one op's spans into per-layer self times and
counts; a layer's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

PACKAGE = "curveinv"
BUILD_ROLES = {
    "plane.PlaneAnalysis_init": ("milnor", "tjurina"),
    "plane.tail_map_general": ("witness", "recheck"),
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name: str, parent: Optional["Span"]):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.attrs: Dict[str, object] = {}


def _note_jet_algebra(span: Span, args, kwargs, error) -> None:
    algebra = args[0]
    span.attrs["T"] = getattr(algebra, "truncation_order", 0)
    span.attrs["certified"] = error is None
    span.attrs["rows"] = len(algebra._rows) if error is None else 0


def _note_rref(span: Span, args, kwargs, error) -> None:
    rows = args[0] if args else kwargs["rows"]
    span.attrs["cells"] = len(rows) * len(rows[0]) if rows else 0


def _note_delta_one_branch(span: Span, args, kwargs, error) -> None:
    span.attrs["order"] = args[1] if len(args) > 1 else kwargs["order"]
    span.attrs["certified"] = error is None


# (span name, defining module, qualified name, note hook)
TARGETS = (
    ("cli.main", "cli", "main", None),
    ("schema.build_curve", "schema", "build_curve", None),
    ("poly.parse_poly", "poly", "parse_poly", None),
    ("poly.substitute", "poly", "Poly.substitute", None),
    ("poly.pow", "poly", "Poly.__pow__", None),
    ("poly.weight_feasibility", "poly", "weight_feasibility", None),
    ("report.analyze", "report", "analyze", None),
    ("report.run_corpus", "report", "run_corpus", None),
    ("report.to_json", "report", "to_json", None),
    ("report.to_text", "report", "to_text", None),
    ("plane.PlaneAnalysis_init", "plane", "PlaneAnalysis.__init__", None),
    ("plane.mult_by_f", "plane", "PlaneAnalysis.mult_by_f", None),
    ("plane.tail_map_general", "plane", "PlaneAnalysis.tail_map_general", None),
    ("plane.tail_map_wh_scalar", "plane", "PlaneAnalysis.tail_map_wh_scalar", None),
    ("jets.build_jet_algebra", "jets", "build_jet_algebra", None),
    ("jets.JetAlgebra", "jets", "JetAlgebra.__init__", _note_jet_algebra),
    ("jets.normal_form", "jets", "JetAlgebra.normal_form", None),
    ("jets.membership_with_witness", "jets", "JetAlgebra.membership_with_witness", None),
    ("linalg.rref", "linalg", "rref", _note_rref),
    ("branches.delta_one_branch", "branches", "delta_one_branch", _note_delta_one_branch),
    ("branches.delta_report", "branches", "delta_report", None),
    ("branches.intersection_multiplicity", "branches", "intersection_multiplicity", None),
    ("lci.verify_parametrization", "lci", "verify_parametrization", None),
    ("lci.obstruction", "lci", "obstruction", None),
    ("spectral.degeneration_verdict", "spectral", "degeneration_verdict", None),
    ("spectral.global_invariants", "spectral", "global_invariants", None),
    ("spectral.e1_page", "spectral", "e1_page", None),
    ("spectral.e2_page", "spectral", "e2_page", None),
    ("spectral.hc_pages", "spectral", "hc_pages", None),
    ("spectral.render_page", "spectral", "render_page", None),
)


class Tracer:
    """Installs the wrappers, collects one op's spans, and restores the originals."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._patches: list = []  # (owner, attribute, original)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, note) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            error = None
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                error = exc
                raise
            finally:
                span.end = clock()
                stack.pop()
                if note is not None:
                    note(span, args, kwargs, error)

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        try:
            for name, module, qualname, note in TARGETS:
                home = sys.modules[f"{PACKAGE}.{module}"]
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(home, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, original, self._wrap(original, name, note))
                    continue
                original = getattr(home, qualname)
                wrapper = self._wrap(original, name, note)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def take(self) -> List[Span]:
        """Return the spans collected since the last call and start afresh."""
        if self._stack:
            raise RuntimeError("spans still open")
        out = list(self.spans)
        self.spans.clear()
        return out


# -- per-op summary ----------------------------------------------------------


def _build_owner(span: Span) -> Span:
    """The span that stands for one jet-algebra build.

    A ``JetAlgebra`` construction inside ``build_jet_algebra`` is one
    attempt of that build; constructed directly (as the tail map does), it
    is a build by itself.
    """
    parent = span.parent
    if parent is not None and parent.name == "jets.build_jet_algebra":
        return parent
    return span


def summarize(spans: List[Span]) -> Dict[str, float]:
    """Counts and self times of one op, keyed as ``<layer>.<quantity>``.

    Keys ending in ``_max`` take the maximum over ops; every other key is
    summed over ops by the caller.
    """
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[id(span.parent)] += span.end - span.start
    out: Dict[str, float] = defaultdict(float)
    build_index: Dict[int, int] = defaultdict(int)  # parent id -> builds seen
    roles: Dict[int, str] = {}  # build owner id -> role
    for span in spans:  # spans are in start order, so builds are numbered in order
        self_s = (span.end - span.start) - child_time[id(span)]
        name = span.name
        if name in ("jets.build_jet_algebra", "jets.JetAlgebra"):
            owner = _build_owner(span)
            if id(owner) not in roles:
                parent = owner.parent
                names = BUILD_ROLES.get(parent.name if parent else "", ())
                k = build_index[id(parent)]
                build_index[id(parent)] += 1
                roles[id(owner)] = names[k] if k < len(names) else "other"
                out[f"jets.build.{roles[id(owner)]}.calls"] += 1
            role = f"jets.build.{roles[id(owner)]}"
            out[f"{role}.self_s"] += self_s
            if name == "jets.JetAlgebra":
                out["jets.build.attempts"] += 1
                if span.attrs["certified"]:
                    out["jets.build.certified"] += 1
                    out[f"{role}.rows"] += span.attrs["rows"]
                    out[f"{role}.T_max"] = max(out[f"{role}.T_max"], span.attrs["T"])
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        if name == "linalg.rref":
            out["linalg.rref.cells"] += span.attrs["cells"]
        elif name == "branches.delta_one_branch":
            out["branches.delta_one_branch.certified"] += span.attrs["certified"]
            key = "branches.delta_one_branch.working_order_max"
            out[key] = max(out[key], span.attrs["order"])
    return dict(out)
