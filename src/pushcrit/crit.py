"""Pushable k-colorability and k-criticality.

A graph is pushably k-critical when it has no pushable homomorphism onto
any k-vertex tournament but every proper subgraph does.  For graphs
without isolated vertices it is enough to test single-arc deletions:
every proper subgraph sits inside some g - e, so the report carries one
coloring witness per arc.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IncompatibleInputError, SelfCheckError
from .graph import Arc, OrientedGraph
from .hom import ColoringCertificate, tournament_coloring

VERDICT_CRITICAL = "critical"
VERDICT_COLORABLE = "colorable"
VERDICT_NON_MINIMAL = "non_minimal"


def is_pushably_k_colorable(g: OrientedGraph, k: int):
    """Certificate onto some k-vertex tournament, or None."""
    return tournament_coloring(g, k, k, "push_iso")


@dataclass(frozen=True)
class CriticalityReport:
    verdict: str
    k: int
    global_certificate: ColoringCertificate | None = None
    arc_witnesses: tuple[tuple[Arc, ColoringCertificate], ...] = ()
    failing_arc: Arc | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"verdict": self.verdict, "k": self.k}
        if self.global_certificate is not None:
            out["certificate"] = self.global_certificate.to_json_dict()
        if self.arc_witnesses:
            out["arc_witnesses"] = [
                {"arc": list(arc), "certificate": cert.to_json_dict()}
                for arc, cert in self.arc_witnesses
            ]
        if self.failing_arc is not None:
            out["failing_arc"] = list(self.failing_arc)
        return out


def is_pushably_k_critical(g: OrientedGraph, k: int = 3) -> CriticalityReport:
    """Full criticality decision with witnesses.

    Arcs are processed in serialization order, so reports are reproducible
    regardless of how the input graph was built.
    """
    if any(d == 0 for d in g.degrees):
        raise IncompatibleInputError(
            "criticality is undefined with isolated vertices present"
        )
    cert = is_pushably_k_colorable(g, k)
    if cert is not None:
        return CriticalityReport(VERDICT_COLORABLE, k, global_certificate=cert)
    witnesses = []
    for arc in sorted(g.arcs):
        sub_cert = is_pushably_k_colorable(g.delete_arc(arc), k)
        if sub_cert is None:
            return CriticalityReport(VERDICT_NON_MINIMAL, k, failing_arc=arc)
        witnesses.append((arc, sub_cert))
    return CriticalityReport(VERDICT_CRITICAL, k, arc_witnesses=tuple(witnesses))


def extract_critical_subgraph(g: OrientedGraph, k: int = 3):
    """Arc-minimal non-k-colorable subgraph by greedy deletion, or None.

    Deletes arcs in serialization order whenever the remainder stays
    uncolorable, then strips isolated vertices; once a later deletion
    keeps a graph colorable it stays colorable after further deletions,
    so one pass suffices and the result is pushably k-critical.
    """
    if is_pushably_k_colorable(g, k) is not None:
        return None
    current = g
    for arc in sorted(g.arcs):
        smaller = current.delete_arc(arc)
        if is_pushably_k_colorable(smaller, k) is None:
            current = smaller
    result = current.strip_isolated()
    report = is_pushably_k_critical(result, k)
    if report.verdict != VERDICT_CRITICAL:
        raise SelfCheckError(f"the extracted subgraph is {report.verdict}, not critical")
    return result
