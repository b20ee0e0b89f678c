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
upstream, and the second page is obtained by subtracting incoming and
outgoing ranks entry-by-entry (symbolically where necessary).

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
second page is computed by the same rank subtraction, with arrows whose
source column was cut contributing nothing.

One pass builds everything: the caller computes ``global_invariants``
and ``degeneration_verdict`` once, ``e1_page`` builds the first page from
them, and ``e2_page`` and ``hc_pages`` derive their pages from that first
page through one rank-subtraction step, which also applies the
constraints proved under degeneration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import MissingBranchData, UnanalyzedSingularity
from .lci import LciPresentation, ObstructionReport
from .plane import LocalInvariants, PlaneSingularity, TailMap

UNKNOWN_ORDER = ("kappa", "c", "k_v")


@dataclass(frozen=True)
class Dim:
    """An entry dimension: const + sum of coeff * unknown over UNKNOWN_ORDER.

    ``coeffs`` holds the nonzero coefficients in UNKNOWN_ORDER; ``Dim.of``
    builds it from keywords.  ``positive`` marks a provably nonzero entry
    of undetermined size: it renders as ">=1" and refuses arithmetic.
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

    def render(self) -> str:
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
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class PlaneRecord:
    sing: PlaneSingularity
    invariants: LocalInvariants
    tail: TailMap


@dataclass(frozen=True)
class LciRecord:
    pres: LciPresentation
    report: ObstructionReport
    delta: Optional[int] = None
    r: Optional[int] = None
    delta_provenance: Optional[str] = None


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


def _record_delta_r(record: SingRecord) -> Tuple[int, int]:
    if isinstance(record, PlaneRecord):
        delta, r = record.invariants.delta, record.invariants.r
    else:
        delta, r = record.delta, record.r
    if delta is None or r is None:
        raise MissingBranchData(
            "a singularity lacks delta/r data needed for global sums"
        )
    return delta, r


def global_invariants(c: CurveModel) -> GlobalInvariants:
    delta_total = 0
    R = 0
    for record in c.records:
        delta, r = _record_delta_r(record)
        delta_total += delta
        R += r - 1
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
        if record.report is None:
            raise UnanalyzedSingularity("lci record without obstruction report")
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
    c: CurveModel, gi: GlobalInvariants, verdict: Verdict, tail_window: int = 4
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


def _hodge_arrows(entries: Dict[Tuple[int, int], Dim]):
    arrows = [((0, 1), (1, 1)), ((1, 0), (2, 0))]
    for (p, q) in entries:
        if q <= -1 and p == -q + 1:  # tail source (p'+1, -p')
            arrows.append(((p, q), (p + 1, q)))
    return arrows


def _second_page(
    entries: Dict[Tuple[int, int], Dim],
    ranks: Dict[Tuple[int, int], Dim],
    arrows: Sequence[Tuple[Tuple[int, int], Tuple[int, int]]],
    two_g_plus_R: Optional[int],
) -> Dict[Tuple[int, int], Dim]:
    """Rank subtraction E2 = E1 - rank(out) - rank(in), then the constraints.

    ``two_g_plus_R`` is given exactly when the sequence degenerates.  Then
    surjectivity of u gives c = 0, and the first Betti identity gives
    kappa + k_v = 2g + R, applied when both unknowns carry the same
    coefficient.
    """
    incoming: Dict[Tuple[int, int], Dim] = {}
    outgoing: Dict[Tuple[int, int], Dim] = {}
    for source, target in arrows:
        rank = ranks.get(source, Dim(0))
        outgoing[source] = rank
        incoming[target] = rank
    out: Dict[Tuple[int, int], Dim] = {}
    for pos, entry in entries.items():
        if not entry.positive:
            for rank in (outgoing.get(pos), incoming.get(pos)):
                if rank is not None:
                    entry = entry - rank
            if two_g_plus_R is not None and entry.coeffs:
                entry = _apply_degenerate_constraints(entry, two_g_plus_R)
        out[pos] = entry
    return out


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
    entry_map = e1.entry_map()
    entries = _second_page(
        entry_map, e1.rank_map(), _hodge_arrows(entry_map), two_g_plus_R
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
        entries=_freeze(entries),
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
    gi: GlobalInvariants,
    window: Tuple[int, int] = (-2, 4),
) -> HCPages:
    """Reindexed second pages of the split filtered complex, one per integer m.

    The piece for m keeps the columns p >= max(0, m) of ``e1``, the first
    page of ``c``, at filtration degree a = p - m.  Arrows whose source
    column is cut contribute no incoming rank, so entries that were
    cancelled from the left on the Hodge page can survive here; arrows
    leaving the displayed window to the right are still subtracted, since
    the column family continues beyond any finite display.
    """
    lo, hi = window
    if lo > hi:
        raise ValueError("empty window")
    verdict = e1.verdict
    two_g_plus_R = 2 * gi.genus + gi.R if verdict is Verdict.DEGENERATES else None
    entries, ranks = e1.entry_map(), e1.rank_map()
    arrows = _hodge_arrows(entries)
    pages: List[Tuple[int, SSPage]] = []
    for m in range(lo, hi + 1):
        p_min = max(0, m)
        e2_entries = _second_page(
            {pos: entry for pos, entry in entries.items() if pos[0] >= p_min},
            ranks,
            [(s, t) for (s, t) in arrows if s[0] >= p_min],
            two_g_plus_R,
        )
        reindexed = {
            (p - m, q): entry for (p, q), entry in e2_entries.items()
        }
        notes = (
            f"column a = p - {m} hosts Hodge column p; columns p < {p_min} cut",
        )
        pages.append(
            (
                m,
                SSPage(
                    label=f"E2(F_{m}, {c.label})",
                    entries=_freeze(reindexed),
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
    if format == "text":
        return _render_text(page)
    if format == "json-like":
        return _render_structured(page)
    raise ValueError(f"unknown format {format!r}")


def _render_text(page: SSPage) -> str:
    entries = page.entry_map()
    lines = [f"{page.label}  [verdict: {page.verdict.value}]"]
    if entries:
        ps = sorted({p for p, _ in entries})
        qs = sorted({q for _, q in entries}, reverse=True)
        cells = {
            (p, q): entries[(p, q)].render() if (p, q) in entries else "."
            for p in ps
            for q in qs
        }
        width = max(max(len(v) for v in cells.values()), 4)
        header = "q\\p |" + "".join(f" {p:>{width}}" for p in ps)
        lines.append(header)
        lines.append("-" * len(header))
        for q in qs:
            lines.append(
                f"{q:>3} |" + "".join(f" {cells[(p, q)]:>{width}}" for p in ps)
            )
    else:
        lines.append("(empty grid)")
    for label, items in (("constraints", page.constraints), ("notes", page.notes)):
        for item in items:
            lines.append(f"{label[:-1]}: {item}")
    return "\n".join(lines)


def _render_structured(page: SSPage) -> dict:
    return {
        "label": page.label,
        "verdict": page.verdict.value,
        "entries": [
            {
                "p": p,
                "q": q,
                "dim": entry.render(),
                "provenance": entry.provenance,
            }
            for (p, q), entry in page.entries
        ],
        "d1_ranks": [
            {
                "p": p,
                "q": q,
                "rank": entry.render(),
                "provenance": entry.provenance,
            }
            for (p, q), entry in page.d1_ranks
        ],
        "constraints": list(page.constraints),
        "notes": list(page.notes),
    }
