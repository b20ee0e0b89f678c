"""Pipeline orchestration: analyze a curve document and emit reports.

``analyze`` runs every singularity through the local engines, assembles
the curve model, computes the pages and the verdict, and records each
cross-check as pass/fail/skipped.  Reports serialize deterministically:
two runs on the same document and options produce byte-identical output.
``to_json`` writes through ``spectral.dump_json``, the one JSON writer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .branches import (
    WORKING_ORDER_CAP,
    check_milnor_formula,
    check_primitive,
    delta_one_branch,
    delta_report,
)
from .errors import SchemaError
from .lci import (
    LciPresentation,
    coker_mod_m_cross_check,
    obstruction,
    verify_parametrization,
)
from .plane import PlaneAnalysis, PlaneSingularity
from .poly import DeltaR
from .schema import CurveDocument, build_curve
from .spectral import (
    CurveModel,
    Dim,
    GlobalInvariants,
    HCPages,
    LciRecord,
    PlaneRecord,
    SSPage,
    Verdict,
    VerdictReport,
    degeneration_verdict,
    dump_json,
    e1_page,
    e2_page,
    global_invariants,
    hc_pages,
    hc_text,
    render_page,
)


@dataclass(frozen=True)
class AnalysisOptions:
    tail_window: int = 4
    hc_window: Tuple[int, int] = (-2, 4)


@dataclass(frozen=True)
class Check:
    name: str
    scope: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""


@dataclass(frozen=True)
class Report:
    options: AnalysisOptions
    model: CurveModel
    invariants: GlobalInvariants
    verdict: VerdictReport
    e1: SSPage
    e2: SSPage
    hc: HCPages
    checks: Tuple[Check, ...]

    def ok(self) -> bool:
        return all(check.status != "fail" for check in self.checks)


def _check(
    checks: List[Check], name: str, scope: str, outcome: Optional[bool], detail: str
) -> None:
    """Record one check: it passes when ``outcome`` is true, fails when it
    is false and is skipped when it is None."""
    status = {True: "pass", False: "fail", None: "skipped"}[outcome]
    checks.append(Check(name, scope, status, detail))


# ---------------------------------------------------------------------------
# Per-singularity analysis
# ---------------------------------------------------------------------------


def _check_asserted(
    asserted: Optional[DeltaR], computed: DeltaR, label: str, checks: List[Check]
) -> None:
    """Compare asserted delta/r, when given, with the computed record."""
    if asserted is not None:
        _check(checks, "asserted-delta-r", label,
               (asserted.delta, asserted.r) == (computed.delta, computed.r),
               f"asserted delta={asserted.delta}, r={asserted.r}; "
               f"computed delta={computed.delta}, r={computed.r}")


def _analyze_plane(sing: PlaneSingularity, checks: List[Check]) -> PlaneRecord:
    label = sing.label or str(sing.f)
    analysis = PlaneAnalysis(sing)
    # PlaneAnalysis asserts tau <= mu as it builds its invariants, mult_by_f
    # (which the tail map calls) asserts the kernel dimension (the
    # cokernel's is rank-nullity), and the tail map re-checks every class
    # under reshuffled witness extraction, so a report that exists passed all
    inv = analysis.invariants
    mu, tau = inv.mu, inv.tau
    _check(checks, "tau-le-mu", label, True, f"tau={tau}, mu={mu}")
    _check(checks, "kernel-cokernel-tau", label, True, f"both dimensions equal tau={tau}")
    tail = analysis.tail_map_general()
    _check(checks, "witness-independence", label, True,
           "tail matrix invariant under reshuffled witness extraction")
    if analysis.effective_weights is not None:
        _check(checks, "wh-scalar-agreement", label,
               analysis.tail_map_wh_scalar() == tail.columns,
               "diagonal scalar formula matches the witness algorithm")
        # weights exist only when f = w1*u*f_u + w2*v*f_v, which puts f in
        # its Jacobian ideal: tau = mu
        _check(checks, "qh-full-rank", label, tail.rank == tau,
               f"tail rank {tail.rank} vs tau {tau}")
    delta_r = sing.asserted
    if sing.branches:
        # delta_report raises unless mu = 2*delta - r + 1
        delta_r = delta_report(sing, mu)
        _check(checks, "milnor-formula", label, True,
               f"mu={mu} = 2*{delta_r.delta} - {delta_r.r} + 1")
        _check_asserted(sing.asserted, delta_r, label, checks)
    elif delta_r is not None:
        check_milnor_formula(mu, delta_r.delta, delta_r.r)
        _check(checks, "milnor-formula", label, None,
               "delta/r asserted, not computed; asserted values satisfy "
               "mu = 2*delta - r + 1")
    return PlaneRecord(
        sing=sing,
        invariants=inv,
        tail=tail,
        delta_r=delta_r,
    )


def _analyze_lci(pres: LciPresentation, checks: List[Check]) -> LciRecord:
    label = pres.label or ",".join(str(f) for f in pres.equations)
    report = obstruction(pres)
    e = report.e
    _check(checks, "minimal-presentation", label, True,
           f"all {e - 1} equations have zero linear part")
    if pres.parametrization is not None:
        _check(checks, "parametrization-vanishes", label, verify_parametrization(pres),
               "all equations vanish on the parametrized curve")
    cross = coker_mod_m_cross_check(pres)
    _check(checks, "obstruction-mod-m", label, cross == e - 1,
           f"mod-m cokernel dimension {cross}, expected {e - 1}")
    delta_r = pres.asserted
    if pres.parametrization is not None:
        check_primitive(pres.parametrization, "parametrization")
        delta_r = DeltaR(
            delta_one_branch(pres.parametrization, WORKING_ORDER_CAP), 1, "computed"
        )
        _check_asserted(pres.asserted, delta_r, label, checks)
    return LciRecord(pres=pres, report=report, delta_r=delta_r)


# ---------------------------------------------------------------------------
# Full analysis
# ---------------------------------------------------------------------------


def analyze(doc: CurveDocument, options: AnalysisOptions = AnalysisOptions()) -> Report:
    checks: List[Check] = []
    records = []
    for i, sing in enumerate(doc.singularities):
        analyze_one = _analyze_plane if isinstance(sing, PlaneSingularity) else _analyze_lci
        try:
            records.append(analyze_one(sing, checks))
        except SchemaError as exc:  # its path is relative to the germ
            raise SchemaError(exc.message, f"$.singularities[{i}].{exc.path}") from exc
    model = CurveModel(genus=doc.genus, records=tuple(records), label=doc.label)
    invariants = global_invariants(model)
    verdict = degeneration_verdict(model)
    e1 = e1_page(model, invariants, verdict.verdict, tail_window=options.tail_window)
    e2 = e2_page(model, e1, invariants)
    hc = hc_pages(model, e1, e2, invariants, window=options.hc_window)
    scope = doc.label or "curve"
    if model.lci_records():
        _check(checks, "ledger-equivalence", scope, None,
               "needs all-planar singularities with delta/r data")
    else:
        # Every planar germ satisfies mu = 2*delta - r + 1 (computed from its
        # branches or checked on asserted values), so 2*delta - R = mu_total,
        # and the verdict is Degenerates exactly when tau_total = mu_total:
        # this check cannot fail
        rhs = 2 * invariants.delta_total - invariants.R
        _check(checks, "ledger-equivalence", scope,
               (invariants.tau_total == rhs) == (verdict.verdict is Verdict.DEGENERATES),
               f"tau_total={invariants.tau_total}, 2*delta - R = {rhs}, "
               f"verdict {verdict.verdict.value}")
    # hc_pages copies the verdict, so this compares it with itself
    _check(checks, "hc-verdict-agreement", scope, hc.verdict == verdict.verdict,
           "cyclic-homology pages carry the same verdict")
    if verdict.verdict is Verdict.DEGENERATES:
        _betti_checks(e2, invariants, scope, checks)
    return Report(
        options=options,
        model=model,
        invariants=invariants,
        verdict=verdict,
        e1=e1,
        e2=e2,
        hc=hc,
        checks=tuple(checks),
    )


def _betti_checks(e2: SSPage, gi: GlobalInvariants, scope: str, checks: List[Check]) -> None:
    """Second-page totals against Betti numbers, under degeneration.

    Degree-one entries must sum to kappa + k_v (constrained to 2g + R) or
    to the exact value; the degree-two total must be exactly 1.
    """
    entries = e2.entry_map()
    zero = Dim(0)
    total1 = entries.get((0, 1), zero) + entries.get((1, 0), zero)
    b1 = gi.betti[1]
    if not total1.symbolic:
        _check(checks, "betti-degree-1", scope, total1.const == b1,
               f"degree-1 total {total1.const}, b1={b1}")
    else:
        _check(checks, "betti-degree-1", scope, total1 == Dim(0, kappa=1, k_v=1),
               f"degree-1 total {total1.text}, constrained to b1={b1}")
    total2 = entries.get((1, 1), zero) + entries.get((2, 0), zero)
    _check(checks, "betti-degree-2", scope, total2 == Dim(1),
           f"degree-2 total {total2.text}, b2=1")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _tagged(value: int, provenance: str = "computed") -> Dict:
    """A reported number with the provenance it came from."""
    return {"value": value, "provenance": provenance}


def _sing_summary(record: Union[PlaneRecord, LciRecord]) -> Dict:
    if isinstance(record, PlaneRecord):
        inv = record.invariants
        summary = {
            "kind": "plane",
            "label": record.sing.label,
            "equation": str(record.sing.f),
            "mu": _tagged(inv.mu),
            "tau": _tagged(inv.tau),
            "qh_by_saito": inv.qh_by_saito,
            "wh_in_coords": inv.wh_in_coords,
            "tail_rank": _tagged(record.tail.rank),
        }
    else:
        rep = record.report
        summary = {
            "kind": "lci",
            "label": record.pres.label,
            "equations": [str(f) for f in record.pres.equations],
            "embedding_dimension": rep.e,
            "obstruction_position": list(rep.obstruction_position),
            "total_degree": rep.total_degree,
            "coker_mod_m_dim": rep.coker_mod_m_dim,
        }
    dr = record.delta_r
    for key in ("delta", "r"):
        summary[key] = None if dr is None else _tagged(getattr(dr, key), dr.provenance)
    return summary


def _document(report: Report) -> Dict:
    """The report as ``to_json`` writes it: plain JSON values and pages."""
    gi = report.invariants
    return {
        "label": report.model.label,
        "options": {
            # Constant: tests/golden/ and perfbench/references.json pin this key.
            "truncation": None,
            "tail_window": report.options.tail_window,
            "hc_window": list(report.options.hc_window),
        },
        "verdict": {
            "value": report.verdict.verdict.value,
            "witness": report.verdict.witness,
            "detail": report.verdict.detail,
        },
        "singularities": [_sing_summary(r) for r in report.model.records],
        "checks": [vars(check) for check in report.checks],
        "pages": {
            "e1": report.e1,
            "e2": report.e2,
            "hc": report.hc,
        },
        "global_invariants": {
            "genus": _tagged(gi.genus, "asserted-input"),
            "delta_total": _tagged(gi.delta_total),
            "tau_total": _tagged(gi.tau_total),
            "mu_total": _tagged(gi.mu_total),
            "R": _tagged(gi.R),
            "p_a": _tagged(gi.p_a),
            "betti": list(gi.betti),
        },
    }


def to_json(report: Report) -> str:
    return dump_json(_document(report))


def to_text(report: Report) -> str:
    gi = report.invariants
    lines = [
        f"curve model: {report.model.label}",
        f"  genus {gi.genus}, delta_total {gi.delta_total}, "
        f"tau_total {gi.tau_total}, R {gi.R}, p_a {gi.p_a}, "
        f"betti {gi.betti}",
    ]
    lines.append(
        f"  verdict: {report.verdict.verdict.value}"
        + (f" (witness: {report.verdict.witness})" if report.verdict.witness else "")
    )
    lines.append(f"  detail: {report.verdict.detail}")
    for record in report.model.records:
        if isinstance(record, PlaneRecord):
            inv = record.invariants
            lines.append(
                f"  plane {record.sing.label}: mu={inv.mu} tau={inv.tau} "
                f"qh={inv.qh_by_saito} tail_rank={record.tail.rank}"
            )
        else:
            lines.append(
                f"  lci {record.pres.label}: e={record.report.e} "
                f"obstruction at {record.report.obstruction_position}"
            )
    for check in report.checks:
        lines.append(
            f"  [{check.status:>7}] {check.name} ({check.scope}): {check.detail}"
        )
    lines.append("")
    lines.append(render_page(report.e1))
    lines.append("")
    lines.append(render_page(report.e2))
    for text in hc_text(report.hc):
        lines.append("")
        lines.append(text)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Corpus run
# ---------------------------------------------------------------------------


def run_corpus():
    """Analyze the builtin zoo and curve models; return (text, all_ok)."""
    from . import corpus

    lines = ["singularity zoo:"]
    lines.append(f"  {'label':<16} {'mu':>4} {'tau':>4} {'QH?':>5} {'WH?':>5}")
    ok = True
    for doc in corpus.zoo():
        sing = build_curve(
            {"genus": 0, "label": doc["label"], "singularities": [doc]}
        ).singularities[0]
        inv = PlaneAnalysis(sing).invariants
        lines.append(
            f"  {doc['label']:<16} {inv.mu:>4} {inv.tau:>4} "
            f"{str(inv.qh_by_saito):>5} {str(inv.wh_in_coords):>5}"
        )
    lines.append("")
    lines.append("curve models:")
    lines.append(
        f"  {'label':<22} {'mu':>4} {'tau':>4} {'QH?':>5} "
        f"{'verdict':<20} checks"
    )
    for doc in corpus.curve_models():
        report = analyze(build_curve(doc))
        mu, tau = report.invariants.mu_total, report.invariants.tau_total
        qh = report.verdict.verdict is Verdict.DEGENERATES
        ok = report.ok() and ok
        statuses = [c.status for c in report.checks]
        summary = f"{statuses.count('pass')} pass"
        if "fail" in statuses:
            summary += f", {statuses.count('fail')} FAIL"
        if "skipped" in statuses:
            summary += f", {statuses.count('skipped')} skipped"
        lines.append(
            f"  {report.model.label:<22} {mu:>4} {tau:>4} {str(qh):>5} "
            f"{report.verdict.verdict.value:<20} {summary}"
        )
    npl = corpus.NON_LCI_EXAMPLE
    lines.append("")
    lines.append(
        f"classification note: {npl['label']} "
        f"(plane={npl['plane']}, lci={npl['lci']}): {npl['note']}"
    )
    return "\n".join(lines), ok
