"""Distance-constrained labelings of oriented graphs.

A labeling with parameters p >= q >= 1 must separate adjacent vertices by
at least p and the two endpoints of any directed 2-path by at least q.
The oriented variant must additionally be an oriented coloring: merging
equal labels must leave an oriented graph, i.e. no two arcs may run in
opposite directions between the same pair of label classes.  The span of
a labeling is its largest label; span search is exhaustive backtracking,
feasible for the small graphs this toolkit handles.

Its cost grows exponentially in the span, since every label 0..span is
tried at each vertex: on the 6-vertex at_c3 (oriented, p = q = 3, 4, 5,
6, spans 15 to 30) it took 0.46 / 1.54 / 2.02 / 4.96 s when each
candidate label was checked against every vertex and every pair of arcs,
and takes 0.09 / 0.26 / 0.34 / 0.70 s checking it only against the ends
labeled before it (min of 3 runs, 2-vCPU Xeon).  p = q = 8 and 10 take
4.8 and 11.4 s, and p = q = 20 (span 100) does not finish in 100 s.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, SelfCheckError
from .fixtures import fixture
from .graph import OrientedGraph

VARIANT_TWO_DIPATH = "two_dipath"
VARIANT_ORIENTED = "oriented"
SPAN_SEARCH_MAX_VERTICES = 8


@dataclass(frozen=True)
class LpqLabeling:
    p: int
    q: int
    labels: tuple[int, ...]
    variant: str

    @property
    def span(self) -> int:
        return max(self.labels, default=0)

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "variant": self.variant,
            "span": self.span,
            "labels": {str(v): l for v, l in enumerate(self.labels)},
        }


@dataclass(frozen=True)
class LabelingCheck:
    ok: bool
    violation: tuple | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"ok": self.ok}
        if self.violation is not None:
            kind, pair = self.violation
            out["violation"] = {"kind": kind, "pair": list(pair)}
        return out


def _validate_pq(p: int, q: int):
    if not (p >= q >= 1):
        raise ConfigError(f"need p >= q >= 1, got p={p}, q={q}")


def _validate_variant(variant: str):
    if variant not in (VARIANT_TWO_DIPATH, VARIANT_ORIENTED):
        raise ConfigError(f"unknown variant {variant!r}")


def two_dipath_pairs(g: OrientedGraph) -> frozenset:
    """Unordered endpoint pairs of directed 2-paths."""
    pairs = set()
    for mid in range(g.vertex_count):
        for u in g.in_neighbors[mid]:
            for v in g.out_neighbors[mid]:
                if u != v:
                    pairs.add((min(u, v), max(u, v)))
    return frozenset(pairs)


def _oriented_coloring_conflict(g: OrientedGraph, labels):
    arcs = g.arcs
    for i, (a, b) in enumerate(arcs):
        if labels[a] == labels[b]:
            return ("arc_same_label", (a, b))
        for c, d in arcs[i + 1 :]:
            if labels[a] == labels[d] and labels[b] == labels[c]:
                return ("opposite_arcs", ((a, b), (c, d)))
    return None


def check_lpq_labeling(g: OrientedGraph, labeling: LpqLabeling) -> LabelingCheck:
    """Validate the distance conditions and, if oriented, the coloring one."""
    _validate_pq(labeling.p, labeling.q)
    _validate_variant(labeling.variant)
    labels = labeling.labels
    if len(labels) != g.vertex_count:
        raise ConfigError("labeling size does not match the graph")
    if any(l < 0 for l in labels):
        raise ConfigError("labels must be nonnegative")
    for lo, hi in g.edges:
        if abs(labels[lo] - labels[hi]) < labeling.p:
            return LabelingCheck(False, ("adjacent", (lo, hi)))
    for u, v in sorted(two_dipath_pairs(g)):
        if abs(labels[u] - labels[v]) < labeling.q:
            return LabelingCheck(False, ("two_dipath", (u, v)))
    if labeling.variant == VARIANT_ORIENTED:
        conflict = _oriented_coloring_conflict(g, labels)
        if conflict is not None:
            return LabelingCheck(False, conflict)
    return LabelingCheck(True)


def _feasible(g: OrientedGraph, p: int, q: int, variant: str, span: int):
    """A labeling with all labels in 0..span, or None.

    The vertices are labeled in one fixed order, so each vertex is checked
    only against the ends labeled before it: by least distance (p for a
    neighbor, q for the other end of a 2-dipath), and in the oriented
    variant by its arcs to them against the label pairs already placed.
    """
    n = g.vertex_count
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    apart = [{} for _ in range(n)]
    for u, v in two_dipath_pairs(g):
        apart[u][v] = apart[v][u] = q
    for lo, hi in g.edges:  # p >= q
        apart[lo][hi] = apart[hi][lo] = p
    # per position: (earlier end, least distance), earlier out- and
    # in-neighbors
    before = []
    seen = set()
    for v in order:
        before.append((
            [(u, d) for u, d in apart[v].items() if u in seen],
            [h for h in g.out_neighbors[v] if h in seen],
            [t for t in g.in_neighbors[v] if t in seen],
        ))
        seen.add(v)
    oriented = variant == VARIANT_ORIENTED
    labels = [-1] * n
    # (tail label, head label) -> arcs placed with those labels
    placed: dict[tuple[int, int], int] = {}

    def dfs(i: int) -> bool:
        if i == n:
            return True
        near, outs, ins = before[i]
        banned = set()
        for u, d in near:
            banned.update(range(labels[u] - d + 1, labels[u] + d))
        out_labels = {labels[h] for h in outs}
        in_labels = {labels[t] for t in ins}
        for value in range(span + 1):
            if value in banned:
                continue
            if oriented:
                # the distances already part an arc's two labels (p >= 1)
                # and an out- from an in-neighbor's (a 2-dipath, q >= 1),
                # so only pairs placed before can be opposite to these
                pairs = [(value, l) for l in out_labels] + [(l, value) for l in in_labels]
                if any((b, a) in placed for a, b in pairs):
                    continue
                for pair in pairs:
                    placed[pair] = placed.get(pair, 0) + 1
            labels[order[i]] = value
            if dfs(i + 1):
                return True
            if oriented:
                for pair in pairs:
                    placed[pair] -= 1
                    if not placed[pair]:
                        del placed[pair]
        return False

    if dfs(0):
        return tuple(labels)
    return None


def lpq_span_search(
    g: OrientedGraph, p: int, q: int, variant: str = VARIANT_TWO_DIPATH
):
    """Minimal span over exhaustive search, or None above the cap.

    The cap 4p + 6q is generous for the graphs in scope; span feasibility
    is monotone, so the minimum is located by bisection.
    """
    _validate_pq(p, q)
    _validate_variant(variant)
    if g.vertex_count > SPAN_SEARCH_MAX_VERTICES:
        raise ConfigError(
            f"span search is exhaustive only up to {SPAN_SEARCH_MAX_VERTICES} vertices"
        )
    cap = 4 * p + 6 * q
    if _feasible(g, p, q, variant, cap) is None:
        return None
    lo, hi = 0, cap
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible(g, p, q, variant, mid) is not None:
            hi = mid
        else:
            lo = mid + 1
    return lo


def at_c3_labeling(p: int, q: int) -> LpqLabeling:
    """The explicit span-(2p+3q) oriented labeling of the doubled 3-cycle.

    Vertex order of the at_c3 fixture is the plain copy 0,1,2 followed by
    the pushed copy 0',1',2'; the labels climb 0, q, p+q, p+2q, 2p+2q,
    2p+3q along the interleaving 0, 0', 1, 1', 2, 2'.
    """
    _validate_pq(p, q)
    labels = (0, p + q, 2 * p + 2 * q, q, p + 2 * q, 2 * p + 3 * q)
    labeling = LpqLabeling(p, q, labels, VARIANT_ORIENTED)
    check = check_lpq_labeling(fixture("at_c3"), labeling)
    if not check.ok:
        raise SelfCheckError(f"builtin labeling failed: {check.violation}")
    return labeling
