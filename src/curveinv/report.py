"""Pipeline orchestration: analyze a curve document and emit reports.

``analyze`` runs every singularity through the local engines, assembles
the curve model, computes the pages and the verdict, and records each
cross-check as pass/fail/skipped.  Reports serialize deterministically:
two runs on the same document and options produce byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, List, Optional, Tuple, Union

from .branches import (
    WORKING_ORDER_CAP,
    check_milnor_formula,
    check_primitive,
    delta_one_branch,
    delta_report,
)
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
    e1_page,
    e2_page,
    global_invariants,
    hc_json,
    hc_pages,
    hc_text,
    page_json,
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
    label: str
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


# ---------------------------------------------------------------------------
# Per-singularity analysis
# ---------------------------------------------------------------------------


def _check_asserted(
    asserted: Optional[DeltaR], computed: DeltaR, label: str, checks: List[Check]
) -> None:
    """Compare asserted delta/r, when given, with the computed record."""
    if asserted is None:
        return
    agree = (asserted.delta, asserted.r) == (computed.delta, computed.r)
    checks.append(
        Check("asserted-delta-r", label, "pass" if agree else "fail",
              f"asserted delta={asserted.delta}, r={asserted.r}; "
              f"computed delta={computed.delta}, r={computed.r}")
    )


def _analyze_plane(sing: PlaneSingularity, checks: List[Check]) -> PlaneRecord:
    label = sing.label or str(sing.f)
    analysis = PlaneAnalysis(sing)
    # milnor_tjurina asserts tau <= mu, mult_by_f (which the tail map calls)
    # asserts the kernel dimension (the cokernel's is rank-nullity), and the
    # tail map re-checks every class under reshuffled witness extraction,
    # so a report that exists passed all
    mu, tau = analysis.milnor_tjurina()
    checks.append(Check("tau-le-mu", label, "pass", f"tau={tau}, mu={mu}"))
    checks.append(
        Check("kernel-cokernel-tau", label, "pass",
              f"both dimensions equal tau={tau}")
    )
    tail = analysis.tail_map_general()
    checks.append(
        Check("witness-independence", label, "pass",
              "tail matrix invariant under reshuffled witness extraction")
    )
    if analysis.effective_weights is not None:
        scalar = analysis.tail_map_wh_scalar()
        agree = scalar.matrix == tail.matrix
        checks.append(
            Check(
                "wh-scalar-agreement",
                label,
                "pass" if agree else "fail",
                "diagonal scalar formula matches the witness algorithm",
            )
        )
        if analysis.saito_test():
            checks.append(
                Check(
                    "qh-full-rank",
                    label,
                    "pass" if tail.rank == tau else "fail",
                    f"tail rank {tail.rank} vs tau {tau}",
                )
            )
    delta_r = sing.asserted
    if sing.branches:
        delta_r = delta_report(sing, mu)
        checks.append(
            Check(
                "milnor-formula",
                label,
                "pass",
                f"mu={mu} = 2*{delta_r.delta} - {delta_r.r} + 1",
            )
        )
        _check_asserted(sing.asserted, delta_r, label, checks)
    elif delta_r is not None:
        check_milnor_formula(mu, delta_r.delta, delta_r.r)
        checks.append(
            Check(
                "milnor-formula",
                label,
                "skipped",
                "delta/r asserted, not computed; asserted values satisfy "
                "mu = 2*delta - r + 1",
            )
        )
    return PlaneRecord(
        sing=sing,
        invariants=analysis.local_invariants(),
        tail=tail,
        delta_r=delta_r,
    )


def _analyze_lci(pres: LciPresentation, checks: List[Check]) -> LciRecord:
    label = pres.label or ",".join(str(f) for f in pres.equations)
    report = obstruction(pres)
    e = report.e
    checks.append(
        Check("minimal-presentation", label, "pass",
              f"all {e - 1} equations have zero linear part")
    )
    if pres.parametrization is not None:
        ok = verify_parametrization(pres)
        checks.append(
            Check(
                "parametrization-vanishes",
                label,
                "pass" if ok else "fail",
                "all equations vanish on the parametrized curve",
            )
        )
    cross = coker_mod_m_cross_check(pres)
    checks.append(
        Check(
            "obstruction-mod-m",
            label,
            "pass" if cross == e - 1 else "fail",
            f"mod-m cokernel dimension {cross}, expected {e - 1}",
        )
    )
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
    for sing in doc.singularities:
        if isinstance(sing, PlaneSingularity):
            records.append(_analyze_plane(sing, checks))
        else:
            records.append(_analyze_lci(sing, checks))
    model = CurveModel(genus=doc.genus, records=tuple(records), label=doc.label)
    invariants = global_invariants(model)
    verdict = degeneration_verdict(model, invariants)
    e1 = e1_page(model, invariants, verdict.verdict, tail_window=options.tail_window)
    e2 = e2_page(model, e1, invariants)
    hc = hc_pages(model, e1, e2, invariants, window=options.hc_window)
    scope = doc.label or "curve"
    if verdict.ledger_consistent is None:
        checks.append(
            Check("ledger-equivalence", scope, "skipped",
                  "needs all-planar singularities with delta/r data")
        )
    else:
        checks.append(
            Check(
                "ledger-equivalence",
                scope,
                "pass" if verdict.ledger_consistent else "fail",
                (
                    f"tau_total={verdict.ledger_tau_total}, "
                    f"2*delta - R = {verdict.ledger_rhs}, "
                    f"verdict {verdict.verdict.value}"
                ),
            )
        )
    # hc_pages copies the verdict, so this compares it with itself
    checks.append(
        Check(
            "hc-verdict-agreement",
            scope,
            "pass" if hc.verdict == verdict.verdict else "fail",
            "cyclic-homology pages carry the same verdict",
        )
    )
    if verdict.verdict is Verdict.DEGENERATES:
        checks.extend(_betti_checks(e2, invariants, scope))
    return Report(
        label=doc.label,
        options=options,
        model=model,
        invariants=invariants,
        verdict=verdict,
        e1=e1,
        e2=e2,
        hc=hc,
        checks=tuple(checks),
    )


def _betti_checks(e2: SSPage, gi: GlobalInvariants, scope: str) -> List[Check]:
    """Second-page totals against Betti numbers, under degeneration.

    Degree-one entries must sum to kappa + k_v (constrained to 2g + R) or
    to the exact value; the degree-two total must be exactly 1.
    """
    entries = e2.entry_map()
    out: List[Check] = []
    total1 = Dim(0)
    for pos in ((0, 1), (1, 0)):
        if pos in entries:
            total1 = total1 + entries[pos]
    b1 = gi.betti[1]
    if not total1.coeffs:
        ok = total1.const == b1
        detail = f"degree-1 total {total1.const}, b1={b1}"
    else:
        ok = total1.as_dict() == {"kappa": 1, "k_v": 1} and total1.const == 0
        detail = f"degree-1 total {total1.text}, constrained to b1={b1}"
    out.append(Check("betti-degree-1", scope, "pass" if ok else "fail", detail))
    total2 = Dim(0)
    for pos in ((1, 1), (2, 0)):
        if pos in entries:
            total2 = total2 + entries[pos]
    ok2 = total2 == Dim(1)
    out.append(
        Check(
            "betti-degree-2",
            scope,
            "pass" if ok2 else "fail",
            f"degree-2 total {total2.text}, b2=1",
        )
    )
    return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _sing_summary(record: Union[PlaneRecord, LciRecord]) -> Dict:
    if isinstance(record, PlaneRecord):
        inv = record.invariants
        summary = {
            "kind": "plane",
            "label": record.sing.label,
            "equation": str(record.sing.f),
            "mu": {"value": inv.mu, "provenance": "computed"},
            "tau": {"value": inv.tau, "provenance": "computed"},
            "qh_by_saito": inv.qh_by_saito,
            "wh_in_coords": inv.wh_in_coords,
            "tail_rank": {"value": record.tail.rank, "provenance": "computed"},
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
        summary[key] = None if dr is None else {
            "value": getattr(dr, key),
            "provenance": dr.provenance,
        }
    return summary


def _document(report: Report) -> Dict:
    """The report as ``to_json`` writes it: plain JSON values and pages."""
    gi = report.invariants
    return {
        "label": report.label,
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
        "checks": [
            {
                "name": c.name,
                "scope": c.scope,
                "status": c.status,
                "detail": c.detail,
            }
            for c in report.checks
        ],
        "pages": {
            "e1": report.e1,
            "e2": report.e2,
            "hc": report.hc,
        },
        "global_invariants": {
            "genus": {"value": gi.genus, "provenance": "asserted-input"},
            "delta_total": {"value": gi.delta_total, "provenance": "computed"},
            "tau_total": {"value": gi.tau_total, "provenance": "computed"},
            "mu_total": {"value": gi.mu_total, "provenance": "computed"},
            "R": {"value": gi.R, "provenance": "computed"},
            "p_a": {"value": gi.p_a, "provenance": "computed"},
            "betti": list(gi.betti),
        },
    }


def to_json(report: Report) -> str:
    return dump_json(_document(report))


def to_structured(report: Report) -> Dict:
    """The JSON value that ``to_json`` writes, read back from its text."""
    return json.loads(to_json(report))


def dump_json(value) -> str:
    """Write ``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` does.

    Takes dicts with string keys, lists, strings, ints, bools and None, and
    raises TypeError on any other type, except that an ``SSPage`` is written
    by ``spectral.page_json`` as the object ``render_page(page, "json-like")``
    returns, and an ``HCPages`` by ``spectral.hc_json`` as the object that
    maps each ``str(m)`` to its page.  Strings go through the stdlib's C
    escaper, so non-ASCII text comes out as \\uXXXX escapes.
    """
    return _dump(value, "\n")


def _dump(value, newline: str) -> str:
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        body = f",{inner}".join(
            [f"{_quote(key)}: {_dump(item, inner)}" for key, item in sorted(value.items())]
        )
        return f"{{{inner}{body}{newline}}}"
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = newline + "  "
        body = f",{inner}".join([_dump(item, inner) for item in value])
        return f"[{inner}{body}{newline}]"
    if isinstance(value, SSPage):
        return page_json(value, newline)
    if isinstance(value, HCPages):
        return hc_json(value, newline)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"cannot write {type(value).__name__} as JSON")


def to_text(report: Report) -> str:
    gi = report.invariants
    lines = [
        f"curve model: {report.label}",
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
    lines.append(render_page(report.e1, "text"))
    lines.append("")
    lines.append(render_page(report.e2, "text"))
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
        analysis = PlaneAnalysis(sing)
        mu, tau = analysis.milnor_tjurina()
        lines.append(
            f"  {doc['label']:<16} {mu:>4} {tau:>4} "
            f"{str(analysis.saito_test()):>5} {str(analysis.wh_in_coords()):>5}"
        )
    lines.append("")
    lines.append("curve models:")
    lines.append(
        f"  {'label':<22} {'mu':>4} {'tau':>4} {'QH?':>5} "
        f"{'verdict':<20} checks"
    )
    for doc in corpus.curve_models():
        report = analyze(build_curve(doc))
        plane = report.model.plane_records()
        mu, tau = report.invariants.mu_total, report.invariants.tau_total
        qh = all(r.invariants.qh_by_saito for r in plane) and not report.model.lci_records()
        statuses = [c.status for c in report.checks]
        summary = f"{statuses.count('pass')} pass"
        if "fail" in statuses:
            summary += f", {statuses.count('fail')} FAIL"
            ok = False
        if "skipped" in statuses:
            summary += f", {statuses.count('skipped')} skipped"
        lines.append(
            f"  {report.label:<22} {mu:>4} {tau:>4} {str(qh):>5} "
            f"{report.verdict.verdict.value:<20} {summary}"
        )
    npl = corpus.NON_LCI_EXAMPLE
    lines.append("")
    lines.append(
        f"classification note: {npl['label']} "
        f"(plane={npl['plane']}, lci={npl['lci']}): {npl['note']}"
    )
    return "\n".join(lines), ok
