"""Pushable k-colorability and k-criticality.

A graph is pushably k-critical when it has no pushable homomorphism onto
any k-vertex tournament but every proper subgraph does.  For graphs
without isolated vertices it is enough to test single-arc deletions:
every proper subgraph sits inside some g - e, so the report carries one
coloring witness per arc.

A 4-cycle with an odd number of forward arcs has no pushable 3-coloring.
Pushing a vertex reverses both cycle arcs at it, which keeps the parity;
and every tournament on three vertices pushes to the directed triangle,
in which a closed walk of length 4 steps forward exactly twice, since
its steps of +1 and -1 must sum to 0 mod 3.  So any graph that contains
such a cycle is not pushably 3-colorable, which lets the extraction
skip most of its searches at k = 3.
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


def _odd_four_cycle(n: int, out, inn) -> frozenset | None:
    """The arcs of a 4-cycle with an odd number of forward arcs in the
    graph whose out- and in-neighbors of v are the bitmasks ``out[v]``
    and ``inn[v]``, or None if it has none.

    A middle b of opposite corners a, c is even when the path a-b-c runs
    with both arcs or against both, and odd otherwise.  The two kinds are
    disjoint, and one of each closes an odd cycle a-b-c-d.
    """
    for a in range(n):
        for c in range(a + 1, n):
            even = (out[a] & inn[c]) | (inn[a] & out[c])
            if not even:
                continue
            odd = (out[a] & out[c]) | (inn[a] & inn[c])
            if odd:
                b = (even & -even).bit_length() - 1
                d = (odd & -odd).bit_length() - 1
                return frozenset(
                    (u, v) if out[u] >> v & 1 else (v, u)
                    for u, v in ((a, b), (b, c), (c, d), (d, a))
                )
    return None


def extract_critical_subgraph(g: OrientedGraph, k: int = 3):
    """Arc-minimal non-k-colorable subgraph by greedy deletion, or None.

    Deletes arcs in serialization order whenever the remainder stays
    uncolorable, then strips isolated vertices; once a later deletion
    keeps a graph colorable it stays colorable after further deletions,
    so one pass suffices and the result is pushably k-critical.

    At k = 3 the pass keeps a core, an odd 4-cycle of the current arcs
    (see the module docstring), and decides without a search every
    deletion that leaves a core behind: one outside the core, or a core
    arc whose remainder holds another odd 4-cycle.  Each such remainder
    is uncolorable, which is what the search would have answered, so the
    result is the plain greedy's, arcs in the same order.  Once no odd
    4-cycle is left, none comes back, and every deletion is searched.
    At any other k the lemma says nothing, and every deletion is searched.
    """
    n = g.vertex_count
    arcs = list(g.arcs)
    out, inn = [0] * n, [0] * n
    for t, h in arcs:
        out[t] |= 1 << h
        inn[h] |= 1 << t
    core = _odd_four_cycle(n, out, inn) if k == 3 else None
    if core is None and is_pushably_k_colorable(g, k) is not None:
        return None
    for arc in sorted(arcs):
        t, h = arc
        out[t] ^= 1 << h
        inn[h] ^= 1 << t
        left = core if core is None or arc not in core else _odd_four_cycle(n, out, inn)
        if left is None and is_pushably_k_colorable(
            OrientedGraph(n, tuple(a for a in arcs if a != arc)), k
        ) is not None:
            # the remainder is colorable: the arc stays, and so does the core
            out[t] |= 1 << h
            inn[h] |= 1 << t
        else:
            arcs.remove(arc)
            core = left
    result = OrientedGraph(n, tuple(arcs)).strip_isolated()
    report = is_pushably_k_critical(result, k)
    if report.verdict != VERDICT_CRITICAL:
        raise SelfCheckError(f"the extracted subgraph is {report.verdict}, not critical")
    return result
