"""First and second pages of the degeneration spectral sequences.

The first page of the Hodge-type spectral sequence of an integral
projective curve model has a rigid shape: a four-entry block in columns
0..2, plus repeating "tail" pairs (p+1, -p) -> (p+2, -p) of dimension
tau (the total Tjurina number) for every p >= 1.  Three global
dimensions depend on sheaf cohomology of the actual projective model and
are never guessed; they appear as the symbolic unknowns

    kappa = dim ker(u),  c = dim coker(u),  k_v = dim ker(v)

where u and v are the two non-tail first-page differentials.  Everything
else is exact: tail ranks are sums of local tail-map ranks computed
upstream.  The differential d1 goes from (p, q) to (p + 1, q), and the
first page keys each rank by its arrow's source, so the rank keys are the
arrow list.  A second-page entry is its first-page entry minus the rank
leaving it and the rank entering it, symbolically where necessary.

Every entry and rank is one type, ``Dim``: an integer constant plus
integer coefficients over the unknowns, or the marker "provably nonzero,
size undetermined" that a non-planar obstruction leaves on the first
page.  Dims add and subtract; an exact dimension is never negative, and
the marker takes part in no arithmetic.

The degeneration verdict is decided by local data alone: the sequence
degenerates at the second page exactly when every singularity is a
quasihomogeneous plane curve singularity; a planar witness with tau < mu
or a non-planar germ (whose obstruction survives at position (e+1, -1))
defeats it.

The cyclic-homology pages are reindexed copies: the auxiliary filtered
complex splits by an integer m, and its piece keeps the Hodge columns
p >= max(0, m), placing column p in filtration degree a = p - m.  Its
second page follows the same rule, except that an entry of the cut
column loses no incoming rank: the arrow into it starts in a column that
was cut.

One pass builds everything: the caller computes ``global_invariants``
and ``degeneration_verdict`` once, ``e1_page`` builds the first page from
them, and ``e2_page`` applies the survivor rule (``_survivor``) to each
first-page entry, which also applies the constraints proved under
degeneration.  ``hc_pages`` runs no second subtraction per m: each page
is the Hodge second page cut at column max(0, m), except on the left
edge, whose entries are the same rule without the incoming rank,
computed once for every m.  ``page_json`` writes a page's JSON, the one
layout that ``report.to_json`` and the json-like ``render_page`` read.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import MissingBranchData
from .lci import LciPresentation, ObstructionReport
from .plane import LocalInvariants, PlaneSingularity, TailMap
from .poly import DeltaR

UNKNOWN_ORDER = ("kappa", "c", "k_v")


@dataclass(frozen=True)
class Dim:
    """An entry dimension: const + sum of coeff * unknown over UNKNOWN_ORDER.

    ``coeffs`` holds the nonzero coefficients in UNKNOWN_ORDER; ``Dim.of``
    builds it from keywords.  ``positive`` marks a provably nonzero entry
    of undetermined size: it renders as ">=1" and refuses arithmetic.
    ``text`` is rendered once per object: the cyclic pages share the
    second page's entries.
    """

    const: int = 0
    coeffs: Tuple[Tuple[str, int], ...] = ()
    positive: bool = False

    def __post_init__(self):
        if self.const < 0 and not self.coeffs and not self.positive:
            raise ValueError(f"negative dimension {self.const}")

    @classmethod
    def of(cls, const: int, **coeffs: int) -> "Dim":
        return cls(
            const,
            tuple((name, coeffs[name]) for name in UNKNOWN_ORDER if coeffs.get(name, 0)),
        )

    def as_dict(self) -> Dict[str, int]:
        return dict(self.coeffs)

    def __add__(self, other: "Dim") -> "Dim":
        return self._combine(other, 1)

    def __sub__(self, other: "Dim") -> "Dim":
        return self._combine(other, -1)

    def _combine(self, other: "Dim", sign: int) -> "Dim":
        if self.positive or other.positive:
            raise ValueError("cannot combine an undetermined-positive entry")
        coeffs = dict(self.coeffs)
        for name, coeff in other.coeffs:
            coeffs[name] = coeffs.get(name, 0) + sign * coeff
        return Dim.of(self.const + sign * other.const, **coeffs)

    @cached_property
    def text(self) -> str:
        if self.positive:
            return ">=1"
        if not self.coeffs:
            return str(self.const)
        parts: List[str] = []
        for name, coeff in self.coeffs:
            if not parts:
                lead = "-" if coeff < 0 else ""
            else:
                lead = " - " if coeff < 0 else " + "
            mag = abs(coeff)
            parts.append(f"{lead}{'' if mag == 1 else str(mag) + '*'}{name}")
        if self.const != 0:
            parts.append(f" - {-self.const}" if self.const < 0 else f" + {self.const}")
        return "".join(parts)

    @property
    def provenance(self) -> str:
        return "symbolic" if self.coeffs else "computed"


class Verdict(enum.Enum):
    DEGENERATES = "Degenerates"
    FAILS_VIA_TAU = "FailsViaTau"
    FAILS_VIA_NONPLANAR = "FailsViaNonPlanar"


@dataclass(frozen=True)
class PlaneRecord:
    sing: PlaneSingularity
    invariants: LocalInvariants
    tail: TailMap
    delta_r: Optional[DeltaR]


@dataclass(frozen=True)
class LciRecord:
    pres: LciPresentation
    report: ObstructionReport
    delta_r: Optional[DeltaR]


SingRecord = Union[PlaneRecord, LciRecord]


@dataclass(frozen=True)
class CurveModel:
    genus: int
    records: Tuple[SingRecord, ...]
    label: str = ""

    def plane_records(self) -> Tuple[PlaneRecord, ...]:
        return tuple(r for r in self.records if isinstance(r, PlaneRecord))

    def lci_records(self) -> Tuple[LciRecord, ...]:
        return tuple(r for r in self.records if isinstance(r, LciRecord))


@dataclass(frozen=True)
class GlobalInvariants:
    genus: int
    delta_total: int
    tau_total: int
    mu_total: int
    R: int
    p_a: int
    betti: Tuple[int, int, int]


@dataclass(frozen=True)
class VerdictReport:
    verdict: Verdict
    witness: str
    detail: str
    ledger_tau_total: Optional[int]
    ledger_rhs: Optional[int]  # 2*delta - R
    ledger_consistent: Optional[bool]  # None when skipped


@dataclass(frozen=True)
class SSPage:
    label: str
    entries: Tuple[Tuple[Tuple[int, int], Dim], ...]  # ((p, q), entry) sorted
    d1_ranks: Tuple[Tuple[Tuple[int, int], Dim], ...]
    verdict: Verdict
    constraints: Tuple[str, ...] = ()
    notes: Tuple[str, ...] = ()

    def entry_map(self) -> Dict[Tuple[int, int], Dim]:
        return dict(self.entries)

    def rank_map(self) -> Dict[Tuple[int, int], Dim]:
        return dict(self.d1_ranks)


@dataclass(frozen=True)
class HCPages:
    per_m: Tuple[Tuple[int, SSPage], ...]
    verdict: Verdict

    def page(self, m: int) -> SSPage:
        return dict(self.per_m)[m]


def _freeze(d: Dict[Tuple[int, int], Dim]):
    return tuple(sorted(d.items()))


# ---------------------------------------------------------------------------
# Global invariants
# ---------------------------------------------------------------------------


def global_invariants(c: CurveModel) -> GlobalInvariants:
    delta_total = 0
    R = 0
    for record in c.records:
        if record.delta_r is None:
            raise MissingBranchData(
                "a singularity lacks delta/r data needed for global sums"
            )
        delta_total += record.delta_r.delta
        R += record.delta_r.r - 1
    tau_total = sum(r.invariants.tau for r in c.plane_records())
    mu_total = sum(r.invariants.mu for r in c.plane_records())
    return GlobalInvariants(
        genus=c.genus,
        delta_total=delta_total,
        tau_total=tau_total,
        mu_total=mu_total,
        R=R,
        p_a=c.genus + delta_total,
        betti=(1, 2 * c.genus + R, 1),
    )


# ---------------------------------------------------------------------------
# Verdict
# ---------------------------------------------------------------------------


def degeneration_verdict(c: CurveModel, gi: GlobalInvariants) -> VerdictReport:
    """Decide second-page degeneration from the analyzed singularities."""
    for record in c.lci_records():
        rep = record.report
        return _with_ledger(
            c,
            gi,
            Verdict.FAILS_VIA_NONPLANAR,
            witness=record.pres.label,
            detail=(
                f"non-planar germ: obstruction at position "
                f"{rep.obstruction_position}, total degree {rep.total_degree}"
            ),
        )
    for record in c.plane_records():
        inv = record.invariants
        if inv.tau < inv.mu:
            return _with_ledger(
                c,
                gi,
                Verdict.FAILS_VIA_TAU,
                witness=record.sing.label,
                detail=f"tau={inv.tau} < mu={inv.mu}: not quasihomogeneous",
            )
    return _with_ledger(
        c,
        gi,
        Verdict.DEGENERATES,
        witness="",
        detail="every singularity is a quasihomogeneous plane curve point",
    )


def _with_ledger(
    c: CurveModel, gi: GlobalInvariants, verdict: Verdict, witness: str, detail: str
) -> VerdictReport:
    """Attach the tau_total = 2*delta - R ledger check when it applies.

    The identity is meaningful only when every singularity is planar;
    otherwise the check is reported as skipped.
    """
    tau_total = rhs = consistent = None
    if all(isinstance(r, PlaneRecord) for r in c.records):
        tau_total = gi.tau_total
        rhs = 2 * gi.delta_total - gi.R
        consistent = (tau_total == rhs) == (verdict is Verdict.DEGENERATES)
    return VerdictReport(
        verdict=verdict,
        witness=witness,
        detail=detail,
        ledger_tau_total=tau_total,
        ledger_rhs=rhs,
        ledger_consistent=consistent,
    )


# ---------------------------------------------------------------------------
# Page assembly
# ---------------------------------------------------------------------------


def _tail_rank_total(c: CurveModel) -> int:
    return sum(r.tail.rank for r in c.plane_records())


def e1_page(
    c: CurveModel, gi: GlobalInvariants, verdict: Verdict, tail_window: int
) -> SSPage:
    """First page: exact where determined, symbolic at the two u/v slots."""
    entries: Dict[Tuple[int, int], Dim] = {}
    ranks: Dict[Tuple[int, int], Dim] = {}
    notes: List[str] = []
    if not c.records:
        g = c.genus
        entries[(0, 0)] = Dim(1)
        entries[(1, 0)] = Dim(g)
        entries[(0, 1)] = Dim(g)
        entries[(1, 1)] = Dim(1)
        notes.append("smooth model: classical Hodge square, all maps zero")
        return SSPage(
            label=f"E1({c.label})",
            entries=_freeze(entries),
            d1_ranks=_freeze(ranks),
            verdict=verdict,
            notes=tuple(notes),
        )
    g, delta, tau = gi.genus, gi.delta_total, gi.tau_total
    entries[(0, 0)] = Dim(1)
    entries[(0, 1)] = Dim(g + delta)
    entries[(2, 0)] = Dim(tau)
    entries[(1, 0)] = Dim.of(tau, kappa=1, c=-1)
    entries[(1, 1)] = Dim.of(tau + 1 - g - delta, kappa=1, c=-1)
    for p in range(1, tail_window + 1):
        entries[(p + 1, -p)] = Dim(tau)
        entries[(p + 2, -p)] = Dim(tau)
    tail_rank = _tail_rank_total(c)
    for p in range(1, tail_window + 1):
        ranks[(p + 1, -p)] = Dim(tail_rank)
    degenerates = verdict is Verdict.DEGENERATES
    # rank of u out of (1,0): tau - c; proved full (c = 0) under degeneration
    ranks[(1, 0)] = Dim(tau) if degenerates else Dim.of(tau, c=-1)
    ranks[(0, 1)] = Dim.of(g + delta, k_v=-1)
    for record in c.lci_records():
        pos = record.report.obstruction_position
        entries[pos] = Dim(positive=True)
        notes.append(
            f"nonzero entry at {pos} from non-planar germ "
            f"{record.pres.label or '(unlabeled)'}"
        )
    notes.append(
        f"tail pairs repeat identically for every p >= 1; shown for p <= {tail_window}"
    )
    return SSPage(
        label=f"E1({c.label})",
        entries=_freeze(entries),
        d1_ranks=_freeze(ranks),
        verdict=verdict,
        notes=tuple(notes),
    )


def _survivor(
    entry: Dim, ranks: Sequence[Optional[Dim]], two_g_plus_R: Optional[int]
) -> Dim:
    """``entry`` minus each rank that is not None, then the constraints; a
    provably nonzero entry stays as it is.

    ``two_g_plus_R`` is given exactly when the sequence degenerates.  Then
    surjectivity of u gives c = 0, and the first Betti identity gives
    kappa + k_v = 2g + R, applied when both unknowns carry the same
    coefficient.
    """
    if entry.positive:
        return entry
    for rank in ranks:
        if rank is not None:
            entry = entry - rank
    if two_g_plus_R is not None and entry.coeffs:
        entry = _apply_degenerate_constraints(entry, two_g_plus_R)
    return entry


def _apply_degenerate_constraints(entry: Dim, two_g_plus_R: int) -> Dim:
    coeffs = entry.as_dict()
    coeffs.pop("c", None)
    ka, kv = coeffs.get("kappa", 0), coeffs.get("k_v", 0)
    const = entry.const
    if ka != 0 and ka == kv:
        const += ka * two_g_plus_R
        coeffs.pop("kappa")
        coeffs.pop("k_v")
    return Dim.of(const, **coeffs)


def e2_page(c: CurveModel, e1: SSPage, gi: GlobalInvariants) -> SSPage:
    """Second page of ``e1``, the first page of ``c``."""
    if not c.records:
        return SSPage(
            label=f"E2({c.label})",
            entries=e1.entries,
            d1_ranks=(),
            verdict=e1.verdict,
            notes=("smooth model: second page equals the first",),
        )
    degenerates = e1.verdict is Verdict.DEGENERATES
    two_g_plus_R = 2 * gi.genus + gi.R if degenerates else None
    ranks = e1.rank_map()
    entries = tuple(
        (
            (p, q),
            _survivor(entry, (ranks.get((p, q)), ranks.get((p - 1, q))), two_g_plus_R),
        )
        for (p, q), entry in e1.entries
    )
    constraints: Tuple[str, ...] = ()
    if degenerates:
        constraints = (
            f"kappa + k_v = 2*g + R = {two_g_plus_R}",
            "c = 0 (the column-two map is surjective)",
            "dim coker(v) + c = 1",
        )
        note = "support confined to total degrees 0..2; all tails cancel"
    elif e1.verdict is Verdict.FAILS_VIA_TAU:
        note = (
            f"surviving tail entries of dimension "
            f"{gi.tau_total - _tail_rank_total(c)} witness non-degeneration"
        )
    else:
        note = "non-planar obstruction entry survives unconditionally"
    return SSPage(
        label=f"E2({c.label})",
        entries=entries,
        d1_ranks=(),
        verdict=e1.verdict,
        constraints=constraints,
        notes=(note,),
    )


# ---------------------------------------------------------------------------
# Cyclic-homology pages
# ---------------------------------------------------------------------------


def hc_pages(
    c: CurveModel,
    e1: SSPage,
    e2: SSPage,
    gi: GlobalInvariants,
    window: Tuple[int, int],
) -> HCPages:
    """Reindexed second pages of the split filtered complex, one per integer m.

    The piece for m keeps the columns p >= p_min = max(0, m) of ``e1``,
    the first page of ``c``, at filtration degree a = p - m; ``e2`` is the
    Hodge second page of ``e1``.  Every arrow goes from a column p to
    p + 1, so an entry in a column p > p_min keeps every arrow into and
    out of it, and its second-page value is its ``e2`` entry; arrows
    leaving the displayed window to the right are subtracted, since the
    column family continues beyond any finite display.  The exception is
    the left edge: an entry (p_min, q) whose incoming rank is keyed at
    (p_min - 1, q), a cut column, keeps its first-page entry minus its
    outgoing rank alone.  For m >= 3 that is the target of the left-most
    tail pair.  Column 0 is no arrow's target, so a page with m <= 0 is
    ``e2`` reindexed.  The left-edge entries are computed once for all m,
    and each page reads the sorted ``e2`` entries once: the shift of p
    keeps their order.
    """
    lo, hi = window
    if lo > hi:
        raise ValueError("empty window")
    verdict = e1.verdict
    two_g_plus_R = 2 * gi.genus + gi.R if verdict is Verdict.DEGENERATES else None
    ranks = e1.rank_map()
    left_edge = {
        (p, q): _survivor(entry, (ranks.get((p, q)),), two_g_plus_R)
        for (p, q), entry in e1.entries
        if (p - 1, q) in ranks
    }
    pages: List[Tuple[int, SSPage]] = []
    for m in range(lo, hi + 1):
        p_min = max(0, m)
        reindexed = tuple(
            ((p - m, q), left_edge.get((p, q), entry) if p == p_min else entry)
            for (p, q), entry in e2.entries
            if p >= p_min
        )
        notes = (
            f"column a = p - {m} hosts Hodge column p; columns p < {p_min} cut",
        )
        pages.append(
            (
                m,
                SSPage(
                    label=f"E2(F_{m}, {c.label})",
                    entries=reindexed,
                    d1_ranks=(),
                    verdict=verdict,
                    notes=notes,
                ),
            )
        )
    return HCPages(per_m=tuple(pages), verdict=verdict)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_page(page: SSPage, format: str = "text") -> Union[str, dict]:
    """The page as a text grid, or as the dict that ``page_json`` writes."""
    if format == "text":
        return _render_text(page)
    if format == "json-like":
        return json.loads(page_json(page))
    raise ValueError(f"unknown format {format!r}")


def _render_text(page: SSPage) -> str:
    lines = [f"{page.label}  [verdict: {page.verdict.value}]"]
    if page.entries:
        # each entry is rendered once; empty cells are "." and never wider
        # than the minimum width 4
        rendered = [(p, q, entry.text) for (p, q), entry in page.entries]
        ps = sorted({p for p, _, _ in rendered})
        qs = sorted({q for _, q, _ in rendered}, reverse=True)
        width = max(max(len(text) for _, _, text in rendered), 4)
        column = {p: i for i, p in enumerate(ps)}
        rows = {q: [f" {'.':>{width}}"] * len(ps) for q in qs}
        for p, q, text in rendered:
            rows[q][column[p]] = f" {text:>{width}}"
        header = "q\\p |" + "".join(f" {p:>{width}}" for p in ps)
        lines.append(header)
        lines.append("-" * len(header))
        for q in qs:
            lines.append(f"{q:>3} |" + "".join(rows[q]))
    else:
        lines.append("(empty grid)")
    for label, items in (("constraints", page.constraints), ("notes", page.notes)):
        for item in items:
            lines.append(f"{label[:-1]}: {item}")
    return "\n".join(lines)


def page_json(page: SSPage, newline: str = "\n") -> str:
    """The page as ``report.dump_json`` writes it, with ``newline`` (a line
    break and the indent) before the closing brace.  The one place a page's
    JSON is laid out: keys in sorted order, each row of entries (dim, p,
    provenance, q) and of d1_ranks (p, provenance, q, rank) one f-string.
    """
    key = newline + "  "
    item = key + "  "
    field = item + "  "

    def array(items: List[str]) -> str:
        return f"[{item}{f',{item}'.join(items)}{key}]" if items else "[]"

    entries = array([
        f'{{{field}"dim": {_quote(entry.text)},{field}"p": {p},'
        f'{field}"provenance": {_quote(entry.provenance)},{field}"q": {q}{item}}}'
        for (p, q), entry in page.entries
    ])
    ranks = array([
        f'{{{field}"p": {p},{field}"provenance": {_quote(rank.provenance)},'
        f'{field}"q": {q},{field}"rank": {_quote(rank.text)}{item}}}'
        for (p, q), rank in page.d1_ranks
    ])
    return (
        f'{{{key}"constraints": {array([_quote(c) for c in page.constraints])},'
        f'{key}"d1_ranks": {ranks},{key}"entries": {entries},'
        f'{key}"label": {_quote(page.label)},'
        f'{key}"notes": {array([_quote(n) for n in page.notes])},'
        f'{key}"verdict": {_quote(page.verdict.value)}{newline}}}'
    )
