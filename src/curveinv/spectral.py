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

Every entry and rank is one type, ``Dim``: an integer constant and one
named integer field per unknown, its coefficient (0 when the unknown is
absent), or the marker "provably nonzero, size undetermined" that a
non-planar obstruction leaves on the first page.  Dims add and subtract
field by field; an exact dimension is never negative, and the marker
takes part in no arithmetic.

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
computed once for every m.  ``HCPages`` keeps the second page, the left
edge and the window, and builds a cyclic page as an ``SSPage`` only when
asked.

One text renderer (``_TextGrid``) and one row writer (``_JsonRows``)
serve every page, as a cut: a Hodge page is the cut at its own first
column with m = 0 and no left edge.  ``hc_text`` renders each row of the
second page once per cell width and slices every cyclic page's rows from
it; ``_JsonRows`` keeps each entry row as the text around its ``"p"``,
once per report.  ``dump_json`` is the package's one JSON writer: it
writes reports, ``sing`` results and ``schema.serialize_curve``, and a
page as its six fields around the rows that ``_JsonRows`` wrote.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import MissingBranchData
from .lci import LciPresentation, ObstructionReport
from .plane import LocalInvariants, PlaneSingularity, TailMap
from .poly import DeltaR

UNKNOWN_ORDER = ("kappa", "c", "k_v")


@dataclass(frozen=True)
class Dim:
    """An entry dimension: ``const`` plus each unknown of UNKNOWN_ORDER
    times the field of its name.

    Each unknown's field is its integer coefficient, 0 when it is absent;
    ``symbolic`` says whether any is nonzero.  ``positive`` marks a
    provably nonzero entry of undetermined size: it renders as ">=1" and
    refuses arithmetic.  ``text`` is rendered once per object: the cyclic
    pages share the second page's entries.
    """

    const: int = 0
    kappa: int = 0
    c: int = 0
    k_v: int = 0
    positive: bool = False

    def __post_init__(self):
        if self.const < 0 and not self.symbolic and not self.positive:
            raise ValueError(f"negative dimension {self.const}")

    @property
    def symbolic(self) -> bool:
        return bool(self.kappa or self.c or self.k_v)

    def __add__(self, other: "Dim") -> "Dim":
        return self._combine(other, 1)

    def __sub__(self, other: "Dim") -> "Dim":
        return self._combine(other, -1)

    def _combine(self, other: "Dim", sign: int) -> "Dim":
        if self.positive or other.positive:
            raise ValueError("cannot combine an undetermined-positive entry")
        return Dim(
            self.const + sign * other.const,
            self.kappa + sign * other.kappa,
            self.c + sign * other.c,
            self.k_v + sign * other.k_v,
        )

    @cached_property
    def text(self) -> str:
        if self.positive:
            return ">=1"
        parts: List[str] = []
        for name in UNKNOWN_ORDER:
            coeff = getattr(self, name)
            if not coeff:
                continue
            if not parts:
                lead = "-" if coeff < 0 else ""
            else:
                lead = " - " if coeff < 0 else " + "
            mag = abs(coeff)
            parts.append(f"{lead}{'' if mag == 1 else str(mag) + '*'}{name}")
        if not parts:
            return str(self.const)
        if self.const != 0:
            parts.append(f" - {-self.const}" if self.const < 0 else f" + {self.const}")
        return "".join(parts)

    @property
    def provenance(self) -> str:
        return "symbolic" if self.symbolic else "computed"


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
    """The cyclic second pages E2(F_m), m in ``window``, as cuts of ``e2``.

    The page for m keeps the columns p >= max(0, m) of the Hodge second
    page ``e2`` at a = p - m, with the ``left_edge`` entries of its cut
    column in place of e2's.  ``label`` is the curve model's.  The writers
    (``hc_text``, ``dump_json``) read these fields; ``per_m`` and ``page``
    build the pages as ``SSPage`` values on first use.
    """

    e2: SSPage
    left_edge: Tuple[Tuple[Tuple[int, int], Dim], ...]  # sorted by (p, q)
    window: Tuple[int, int]
    label: str
    verdict: Verdict

    def cuts(self) -> List[Tuple[int, str, str, int, Dict[int, Dim]]]:
        """(m, label, note, p_min, edge) for each m in the window: the cut
        column p_min = max(0, m) and, keyed by q, the left-edge entries
        that replace e2's in it."""
        edges: Dict[int, Dict[int, Dim]] = {}
        for (p, q), entry in self.left_edge:
            edges.setdefault(p, {})[q] = entry
        lo, hi = self.window
        return [
            (
                m,
                f"E2(F_{m}, {self.label})",
                f"column a = p - {m} hosts Hodge column p; columns p < {max(0, m)} cut",
                max(0, m),
                edges.get(max(0, m), {}),
            )
            for m in range(lo, hi + 1)
        ]

    @cached_property
    def per_m(self) -> Tuple[Tuple[int, SSPage], ...]:
        pages = []
        for m, label, note, p_min, edge in self.cuts():
            entries = tuple(
                ((p - m, q), edge.get(q, entry) if p == p_min else entry)
                for (p, q), entry in self.e2.entries
                if p >= p_min
            )
            pages.append((m, SSPage(label, entries, (), self.verdict, notes=(note,))))
        return tuple(pages)

    def page(self, m: int) -> SSPage:
        lo, hi = self.window
        if not lo <= m <= hi:
            raise KeyError(m)
        return self.per_m[m - lo][1]


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


def degeneration_verdict(c: CurveModel) -> VerdictReport:
    """Decide second-page degeneration from the analyzed singularities."""
    for record in c.lci_records():
        rep = record.report
        return VerdictReport(
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
            return VerdictReport(
                Verdict.FAILS_VIA_TAU,
                witness=record.sing.label,
                detail=f"tau={inv.tau} < mu={inv.mu}: not quasihomogeneous",
            )
    return VerdictReport(
        Verdict.DEGENERATES,
        witness="",
        detail="every singularity is a quasihomogeneous plane curve point",
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
    g = gi.genus
    entries[(0, 0)] = Dim(1)
    if not c.records:
        entries[(1, 0)] = Dim(g)
        entries[(0, 1)] = Dim(g)
        entries[(1, 1)] = Dim(1)
        notes.append("smooth model: classical Hodge square, all maps zero")
    else:
        delta, tau = gi.delta_total, gi.tau_total
        # one Dim per value, shared by every entry and rank that has it, so
        # its text is rendered once
        tau_dim, tail_rank = Dim(tau), Dim(_tail_rank_total(c))
        entries[(0, 1)] = Dim(g + delta)
        entries[(2, 0)] = tau_dim
        entries[(1, 0)] = Dim(tau, kappa=1, c=-1)
        entries[(1, 1)] = Dim(tau + 1 - g - delta, kappa=1, c=-1)
        for p in range(1, tail_window + 1):
            entries[(p + 1, -p)] = entries[(p + 2, -p)] = tau_dim
            ranks[(p + 1, -p)] = tail_rank
        # rank of u out of (1,0): tau - c; proved full (c = 0) under
        # degeneration
        ranks[(1, 0)] = tau_dim if verdict is Verdict.DEGENERATES else Dim(tau, c=-1)
        ranks[(0, 1)] = Dim(g + delta, k_v=-1)
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
    if two_g_plus_R is not None and entry.symbolic:
        fold = entry.kappa if entry.kappa == entry.k_v else 0
        entry = Dim(entry.const + fold * two_g_plus_R,
                    kappa=entry.kappa - fold, k_v=entry.k_v - fold)
    return entry


def _survivors(
    cells: Iterable[Tuple[Tuple[int, int], Dim, Tuple[Optional[Dim], ...]]],
    two_g_plus_R: Optional[int],
) -> Tuple[Tuple[Tuple[int, int], Dim], ...]:
    """``_survivor`` of each (position, entry, ranks) cell, computed once
    per distinct (entry, ranks): equal cells share one ``Dim``, so its text
    is rendered once."""
    memo: Dict[Tuple[Dim, Tuple[Optional[Dim], ...]], Dim] = {}
    out = []
    for pq, entry, ranks in cells:
        survivor = memo.get((entry, ranks))
        if survivor is None:
            survivor = memo[entry, ranks] = _survivor(entry, ranks, two_g_plus_R)
        out.append((pq, survivor))
    return tuple(out)


def e2_page(c: CurveModel, e1: SSPage, gi: GlobalInvariants) -> SSPage:
    """Second page of ``e1``, the first page of ``c``."""
    constraints: Tuple[str, ...] = ()
    if not c.records:
        entries = e1.entries
        note = "smooth model: second page equals the first"
    else:
        degenerates = e1.verdict is Verdict.DEGENERATES
        two_g_plus_R = 2 * gi.genus + gi.R if degenerates else None
        ranks = e1.rank_map()
        entries = _survivors(
            (((p, q), entry, (ranks.get((p, q)), ranks.get((p - 1, q))))
             for (p, q), entry in e1.entries),
            two_g_plus_R,
        )
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
    ``e2`` reindexed.  The left-edge entries are computed once for all m;
    the pages themselves are cuts of ``e2`` that ``HCPages`` builds or
    writes on demand.
    """
    lo, hi = window
    if lo > hi:
        raise ValueError("empty window")
    verdict = e1.verdict
    two_g_plus_R = 2 * gi.genus + gi.R if verdict is Verdict.DEGENERATES else None
    ranks = e1.rank_map()
    left_edge = _survivors(
        (((p, q), entry, (ranks.get((p, q)),))
         for (p, q), entry in e1.entries if (p - 1, q) in ranks),
        two_g_plus_R,
    )
    return HCPages(e2=e2, left_edge=left_edge, window=window, label=c.label, verdict=verdict)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_page(page: SSPage) -> str:
    """The page as a text grid."""
    grid = _TextGrid(page.entries)
    return _text(page.label, page.verdict, grid.lines(grid.first, 0, {}),
                 page.constraints, page.notes)


def hc_text(hc: HCPages) -> List[str]:
    """The text of each cyclic page, in window order: ``render_page`` of
    ``hc.page(m)``, written from one grid of ``hc.e2``."""
    grid = _TextGrid(hc.e2.entries)
    return [
        _text(label, hc.verdict, grid.lines(p_min, m, edge), (), (note,))
        for m, label, note, p_min, edge in hc.cuts()
    ]


def _text(label: str, verdict: Verdict, grid: List[str],
          constraints: Sequence[str], notes: Sequence[str]) -> str:
    lines = [f"{label}  [verdict: {verdict.value}]", *grid]
    lines += [f"constraint: {item}" for item in constraints]
    lines += [f"note: {item}" for item in notes]
    return "\n".join(lines)


class _TextGrid:
    """A page's text grid, laid out once for every cut of it.

    ``lines(p_min, m, edge)`` is the grid of the cut that keeps the columns
    p >= p_min under the labels p - m, with the ``edge`` entries (keyed by
    q) in place of the page's in column p_min.  The page itself is the cut
    at its first column with m = 0 and no edge.  Cells are right-aligned
    to the cut's widest cell (at least 4); empty cells are ".", and the row
    labels are right-aligned to the longest (at least 3).

    Each row of the whole page is rendered once per cell width.  A cut's
    row is its first cell followed by a right-end slice of that string:
    every later cell fits the cut's width, but a cell of a cut column may
    not, so a slice from the left would misalign.
    """

    def __init__(self, entries: Sequence[Tuple[Tuple[int, int], Dim]]):
        self.cells: Dict[int, Dict[int, str]] = {}  # p -> q -> text
        last: Dict[int, int] = {}  # q -> the row's last column
        for (p, q), entry in entries:
            self.cells.setdefault(p, {})[q] = entry.text
            last[q] = max(last.get(q, p), p)
        self.columns = sorted(self.cells)
        self.first = self.columns[0] if self.columns else 0
        self.rows = sorted(last.items(), reverse=True)
        # widest[k]: the widest cell of the columns from k on
        self.widest = [0] * (len(self.columns) + 1)
        for k in range(len(self.columns) - 1, -1, -1):
            column = self.cells[self.columns[k]].values()
            self.widest[k] = max(self.widest[k + 1], *map(len, column))
        self.strings: Dict[int, Dict[int, str]] = {}  # width -> q -> whole row
        self.labels: Dict[int, Dict[int, str]] = {}  # label width -> q -> label

    def lines(self, p_min: int, m: int, edge: Dict[int, Dim]) -> List[str]:
        k = bisect_left(self.columns, p_min)
        if k == len(self.columns):
            return ["(empty grid)"]
        first = self.columns[k]
        column = self.cells[first]
        if first == p_min and edge:
            column = {q: edge[q].text if q in edge else text for q, text in column.items()}
        width = max(4, self.widest[k + 1], *map(len, column.values()))
        if width not in self.strings:
            self.strings[width] = self._strings(width)
        strings = self.strings[width]
        rows = [q for q, last in self.rows if last >= first]
        label = max(3, len(str(rows[0])), len(str(rows[-1])))
        if label not in self.labels:
            self.labels[label] = {q: f"{q:>{label}} |" for q, _ in self.rows}
        labels = self.labels[label]
        header = "q\\p".ljust(label) + " |" + "".join(
            [f" {p - m:>{width}}" for p in self.columns[k:]]
        )
        dot = f" {'.':>{width}}"
        firsts = {q: f" {text:>{width}}" for q, text in column.items()}
        cut = (len(self.columns) - k - 1) * (width + 1)
        later = slice(-cut, None) if cut else slice(0, 0)
        return [header, "-" * len(header)] + [
            f"{labels[q]}{firsts.get(q, dot)}{strings[q][later]}" for q in rows
        ]

    def _strings(self, width: int) -> Dict[int, str]:
        dot = f" {'.':>{width}}"
        rows = {q: [dot] * len(self.columns) for q, _ in self.rows}
        for k, p in enumerate(self.columns):
            for q, text in self.cells[p].items():
                rows[q][k] = f" {text:>{width}}"
        return {q: "".join(cells) for q, cells in rows.items()}


def dump_json(value) -> str:
    """Write ``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` does.

    Takes dicts with string keys, lists, strings, ints, bools and None, and
    raises TypeError on any other type, except that an ``SSPage`` is written
    as its six fields, an ``HCPages`` as the object that maps each
    ``str(m)`` to the page ``hc.page(m)``, and the items of a ``_Written``
    list as the JSON text they are.  Strings go through the stdlib's C
    escaper, so non-ASCII text comes out as \\uXXXX escapes.  The pieces
    are joined once, at the end: a report holds pages of hundreds of
    kilobytes, and no nested value is copied into its parent's text.  A
    string in a dict or list, the most common value (every entry of a
    ``sing`` tail matrix is one), is written without a call.
    """
    out: List[str] = []
    _dump(value, "\n", out)
    return "".join(out)


class _Written(list):
    """Array items written as JSON text, each at the indent of its array."""


def _dump(value, newline: str, out: List[str]) -> None:
    """Append the JSON text of ``value`` to ``out``, with ``newline`` (a
    line break and the indent) before its closing bracket."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key, item in sorted(value.items()):
            if item.__class__ is str:
                out.append(f"{lead}{_quote(key)}: {_quote(item)}")
            else:
                out.append(f"{lead}{_quote(key)}: ")
                _dump(item, inner, out)
            lead = "," + inner
        out.append(newline + "}")
    elif isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        if isinstance(value, _Written):
            out += (f"[{inner}", f",{inner}".join(value), f"{newline}]")
            return
        lead = "[" + inner
        for item in value:
            if item.__class__ is str:
                out.append(lead + _quote(item))
            else:
                out.append(lead)
                _dump(item, inner, out)
            lead = "," + inner
        out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, SSPage):
        # each row of entries (dim, p, provenance, q) and of d1_ranks (p,
        # provenance, q, rank) written straight from the page
        rows = _JsonRows(value.entries, newline)
        field = rows.field
        ranks = _Written(
            f'{{{field}"p": {p},{field}"provenance": {_quote(rank.provenance)},'
            f'{field}"q": {q},{field}"rank": {_quote(rank.text)}{rows.item}}}'
            for (p, q), rank in value.d1_ranks
        )
        page = _page(value.label, value.verdict, value.constraints, ranks,
                     rows.cut(rows.first, 0, {}), value.notes)
        _dump(page, newline, out)
    elif isinstance(value, HCPages):
        # every cyclic page a cut of one set of rows of the second page
        rows = _JsonRows(value.e2.entries, newline + "  ")
        pages = {
            str(m): _page(label, value.verdict, (), [], rows.cut(p_min, m, edge), (note,))
            for m, label, note, p_min, edge in value.cuts()
        }
        _dump(pages, newline, out)
    else:
        raise TypeError(f"cannot write {type(value).__name__} as JSON")


def _page(label: str, verdict: Verdict, constraints: Sequence[str],
          ranks: List[str], entries: List[str], notes: Sequence[str]) -> dict:
    """A page's six JSON fields, around its written rows."""
    return {"constraints": list(constraints), "d1_ranks": ranks,
            "entries": entries, "label": label, "notes": list(notes),
            "verdict": verdict.value}


class _JsonRows:
    """A page's entry rows as JSON, laid out once for every cut of it.

    ``cut(p_min, m, edge)`` writes the rows of the cut that keeps the
    columns p >= p_min at p - m, with the ``edge`` entries (keyed by q) in
    place of the page's in column p_min.  A row of a cut differs from the
    page's own row only in ``"p": p - m``, so each row is kept as the text
    before and after that integer.  ``newline`` is the page's own.
    """

    def __init__(self, entries: Sequence[Tuple[Tuple[int, int], Dim]], newline: str):
        self.item = newline + "    "
        self.field = self.item + "  "
        self.ps = [p for (p, _), _ in entries]
        self.first = self.ps[0] if self.ps else 0
        self.rows = [(p, q, *self.pieces(q, entry)) for (p, q), entry in entries]

    def pieces(self, q: int, entry: Dim) -> Tuple[str, str]:
        field = self.field
        return (
            f'{{{field}"dim": {_quote(entry.text)},{field}"p": ',
            f',{field}"provenance": {_quote(entry.provenance)},{field}"q": {q}{self.item}}}',
        )

    def cut(self, p_min: int, m: int, edge: Dict[int, Dim]) -> _Written:
        start = bisect_left(self.ps, p_min)
        end = bisect_right(self.ps, p_min, start)
        rows = _Written()
        for p, q, head, tail in self.rows[start:end]:
            if q in edge:
                head, tail = self.pieces(q, edge[q])
            rows.append(f"{head}{p - m}{tail}")
        rows += [f"{head}{p - m}{tail}" for p, _, head, tail in self.rows[end:]]
        return rows
