"""Curve-document validation and construction.

A curve document is a JSON object with a genus, a label, and a list of
singularity documents of kind "plane" or "lci".  Validation is manual and
reports the path of the offending field; expression strings are parsed
under the declared variables so parse errors surface with positions.
``serialize_curve`` writes a document back through ``spectral.dump_json``,
the package's one JSON writer.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple, Union

from .errors import ParseError, SchemaError
from .lci import LciPresentation
from .plane import Branch, PlaneSingularity
from .poly import BRANCH_PARAM_VAR, BranchParam, DeltaR, parse_poly
from .spectral import dump_json

Sing = Union[PlaneSingularity, LciPresentation]


@dataclass(frozen=True)
class CurveDocument:
    """A validated curve document.

    ``source`` is the decoded document that ``build_curve`` validated, held
    by reference, not copied: ``serialize_curve`` writes it as it is when
    called, so a caller that mutates the dict afterwards changes that output.
    """

    genus: int
    label: str
    notes: str
    singularities: Tuple[Sing, ...]
    source: Dict[str, Any] = field(hash=False)


def _require(cond: bool, message: str, path: str) -> None:
    if not cond:
        raise SchemaError(message, path)


def _get(doc: Dict[str, Any], key: str, kind, path: str, default=None, required=False):
    if key not in doc:
        _require(not required, f"missing required field {key!r}", path)
        return default
    value = doc[key]
    _require(isinstance(value, kind), f"field {key!r} has wrong type", f"{path}.{key}")
    return value


# Python prints an int of at most 4300 digits (``poly.MAX_DIGITS``), and
# JSON decoding accepts one that long.  A number that a report prints from
# the genus, an asserted delta or r, or an --hc-window bound sums a few
# terms per singularity, each at most 4 times such a field or a jet-capped
# Milnor number; with the fields below 10^4000, such a sum has fewer than
# 4300 digits unless a document holds some 10^290 singularities.
MAX_INPUT_DIGITS = 4000
INPUT_BOUND = 10 ** MAX_INPUT_DIGITS  # every bounded value lies below it


def _natural(doc: Dict[str, Any], key: str, path: str, required=True, default=None):
    value = _get(doc, key, int, path, required=required, default=default)
    if value is not None:
        _require(not isinstance(value, bool) and value >= 0,
                 f"field {key!r} must be a natural number", f"{path}.{key}")
        _require(value < INPUT_BOUND,
                 f"field {key!r} has more than {MAX_INPUT_DIGITS} digits",
                 f"{path}.{key}")
    return value


# A rational is an integer or p/q, each part of at most MAX_INPUT_DIGITS
# digits, matched before Fraction sees it: Fraction also takes decimal
# exponents, and "1e20000000" would build 10**20000000 first.
_RATIONAL = re.compile(rf"[+-]?[0-9]{{1,{MAX_INPUT_DIGITS}}}(/[0-9]{{1,{MAX_INPUT_DIGITS}}})?")


def _parse_fraction(text: Any, path: str) -> Fraction:
    _require(isinstance(text, str), "rational must be a string", path)
    if not _RATIONAL.fullmatch(text):
        shown = repr(text) if len(text) <= 40 else f"{text[:40]!r}..."
        raise SchemaError(
            f"bad rational {shown}: expected an integer or p/q of at most "
            f"{MAX_INPUT_DIGITS} digits each",
            path,
        )
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise SchemaError(f"bad rational {text!r}: {exc}", path)


def _parse_expr(source: Any, variables, path: str):
    _require(isinstance(source, str), "expression must be a string", path)
    try:
        return parse_poly(source, variables)
    except ParseError as exc:
        # quote a bounded prefix, so one huge expression gives a short error
        shown = repr(source) if len(source) <= 40 else f"{source[:40]!r}..."
        raise SchemaError(f"bad expression {shown}: {exc}", path)


def _param(images: List[Any], path: str) -> BranchParam:
    polys = tuple(
        _parse_expr(img, (BRANCH_PARAM_VAR,), f"{path}[{j}]")
        for j, img in enumerate(images)
    )
    try:
        return BranchParam(polys)
    except ValueError as exc:
        raise SchemaError(str(exc), path)


def _asserted(doc: Dict[str, Any], path: str) -> Optional[DeltaR]:
    block = _get(doc, "asserted", dict, path)
    if block is None:
        return None
    delta = _natural(block, "delta", f"{path}.asserted")
    r = _natural(block, "r", f"{path}.asserted")
    _require(r >= 1, "asserted r must be at least 1", f"{path}.asserted.r")
    _get(block, "note", str, f"{path}.asserted")
    extra = set(block) - {"delta", "r", "note"}
    _require(not extra, f"unknown fields {sorted(extra)}", f"{path}.asserted")
    return DeltaR(delta, r, "asserted-input")


def _build_plane(doc: Dict[str, Any], path: str) -> PlaneSingularity:
    variables = _get(doc, "variables", list, path, required=True)
    _require(
        len(variables) == 2 and all(isinstance(v, str) for v in variables),
        "plane singularity needs exactly two variable names",
        f"{path}.variables",
    )
    _require(variables[0] != variables[1], "repeated variable name", f"{path}.variables")
    f = _parse_expr(_get(doc, "f", str, path, required=True), variables, f"{path}.f")
    weights = None
    raw_weights = _get(doc, "weights", list, path)
    if raw_weights is not None:
        _require(len(raw_weights) == 2, "weights must be a pair", f"{path}.weights")
        weights = tuple(
            _parse_fraction(w, f"{path}.weights[{i}]") for i, w in enumerate(raw_weights)
        )
    branches: List[Branch] = []
    raw_branches = _get(doc, "branches", list, path, default=[])
    for i, bdoc in enumerate(raw_branches):
        bpath = f"{path}.branches[{i}]"
        _require(isinstance(bdoc, dict), "branch must be an object", bpath)
        images = _get(bdoc, "images", list, bpath, required=True)
        _require(len(images) == 2, "branch needs two images", f"{bpath}.images")
        param = _param(images, f"{bpath}.images")
        equation = None
        if "equation" in bdoc:
            equation = _parse_expr(bdoc["equation"], variables, f"{bpath}.equation")
        extra = set(bdoc) - {"images", "equation"}
        _require(not extra, f"unknown fields {sorted(extra)}", bpath)
        branches.append(Branch(param=param, equation=equation))
    asserted = _asserted(doc, path)
    extra = set(doc) - {"kind", "f", "variables", "weights", "branches", "asserted", "label"}
    _require(not extra, f"unknown fields {sorted(extra)}", path)
    try:
        return PlaneSingularity(
            f=f,
            label=_get(doc, "label", str, path, default=""),
            weights=weights,
            branches=tuple(branches),
            asserted=asserted,
        )
    except ValueError as exc:
        raise SchemaError(str(exc), path)


def _build_lci(doc: Dict[str, Any], path: str) -> LciPresentation:
    variables = _get(doc, "variables", list, path, required=True)
    _require(
        len(variables) >= 2 and all(isinstance(v, str) for v in variables),
        "lci singularity needs at least two variable names",
        f"{path}.variables",
    )
    _require(
        len(set(variables)) == len(variables), "repeated variable name", f"{path}.variables"
    )
    raw_equations = _get(doc, "equations", list, path, required=True)
    equations = tuple(
        _parse_expr(src, variables, f"{path}.equations[{i}]")
        for i, src in enumerate(raw_equations)
    )
    parametrization = None
    raw_param = _get(doc, "parametrization", list, path)
    if raw_param is not None:
        _require(
            len(raw_param) == len(variables),
            "one image per variable required",
            f"{path}.parametrization",
        )
        parametrization = _param(raw_param, f"{path}.parametrization")
    asserted = _asserted(doc, path)
    extra = set(doc) - {
        "kind", "variables", "equations", "parametrization", "asserted", "label"
    }
    _require(not extra, f"unknown fields {sorted(extra)}", path)
    try:
        return LciPresentation(
            variables=tuple(variables),
            equations=equations,
            parametrization=parametrization,
            label=_get(doc, "label", str, path, default=""),
            asserted=asserted,
        )
    except ValueError as exc:
        raise SchemaError(str(exc), path)


def build_curve(doc: Any) -> CurveDocument:
    _require(isinstance(doc, dict), "curve document must be an object", "$")
    genus = _natural(doc, "genus", "$", required=True)
    label = _get(doc, "label", str, "$", default="")
    notes = _get(doc, "notes", str, "$", default="")
    raw_sings = _get(doc, "singularities", list, "$", default=[])
    extra = set(doc) - {"genus", "label", "notes", "singularities"}
    _require(not extra, f"unknown fields {sorted(extra)}", "$")
    sings: List[Sing] = []
    for i, sdoc in enumerate(raw_sings):
        path = f"$.singularities[{i}]"
        _require(isinstance(sdoc, dict), "singularity must be an object", path)
        kind = _get(sdoc, "kind", str, path, required=True)
        if kind == "plane":
            sings.append(_build_plane(sdoc, path))
        elif kind == "lci":
            sings.append(_build_lci(sdoc, path))
        else:
            raise SchemaError(f"unknown kind {kind!r}", f"{path}.kind")
    return CurveDocument(
        genus=genus,
        label=label,
        notes=notes,
        singularities=tuple(sings),
        source=doc,
    )


def load_curve(path: str) -> CurveDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read file: {exc}", "$")
    try:
        doc = json.loads(text)
    # JSONDecodeError, an integer past int's digit limit, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"not valid JSON: {exc}", "$")
    return build_curve(doc)


def serialize_curve(doc: CurveDocument) -> str:
    """Canonical re-serialization of the validated source document: sorted
    keys, two-space indent, as ``spectral.dump_json`` writes every report."""
    return dump_json(doc.source)
