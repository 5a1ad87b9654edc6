"""Distance-constrained labelings of oriented graphs.

A labeling with parameters p >= q >= 1 must separate adjacent vertices by
at least p and the two endpoints of any directed 2-path by at least q.
The oriented variant must additionally be an oriented coloring: merging
equal labels must leave an oriented graph, i.e. no two arcs may run in
opposite directions between the same pair of label classes.  The span of
a labeling is its largest label; span search is exhaustive backtracking,
feasible for the small graphs this toolkit handles.

The search tries only tight labels.  Sort a labeling's classes by label
and lower each in turn to the least value 1 above the class below it and
p or q above each lower class it is constrained against.  No label rises
and the classes keep their order, so the distance constraints and the
partition into classes, hence the oriented condition, still hold; and on
n vertices every label is now in S = {ap + bq + c : a + b + c <= n - 1}.
So span s is feasible iff it is with the labels of S up to s, and the
least span is in S.  The top of S, (n - 1)p, is always feasible (distinct
labels p apart), so the search is exact at every p, q and tries O(n^3)
labels per vertex.
"""

from __future__ import annotations

from bisect import bisect_left
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


@dataclass(frozen=True)
class LabelingCheck:
    ok: bool
    violation: tuple | None = None


def _validate_pq(p: int, q: int):
    if type(p) is not int or type(q) is not int or not (p >= q >= 1):
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
    if any(type(l) is not int or l < 0 for l in labels):
        raise ConfigError("labels must be nonnegative integers")
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


def _tight_labels(n: int, p: int, q: int) -> list[int]:
    """S of the module docstring, ascending; [0] for n = 0."""
    return sorted({
        a * p + b * q + c
        for a in range(n)
        for b in range(n - a)
        for c in range(n - a - b)
    } or {0})


def _feasible(g: OrientedGraph, p: int, q: int, variant: str, span: int):
    """A labeling with all labels in 0..span, or None.

    Only the labels of S up to span are tried (module docstring).  The
    vertices are labeled in one fixed order, so each vertex is checked
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
    values = [v for v in _tight_labels(n, p, q) if v <= span]
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
        for value in values:
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
    """Minimal span over exhaustive search.

    The least span is in S (module docstring) and feasibility is monotone
    in the span, so it is found by bisection over S less its top, which is
    always feasible: v -> v * p.  The labeling behind the answer is checked,
    and ``SelfCheckError`` raised unless it is valid with that span.
    """
    _validate_pq(p, q)
    _validate_variant(variant)
    n = g.vertex_count
    if n > SPAN_SEARCH_MAX_VERTICES:
        raise ConfigError(
            f"span search is exhaustive only up to {SPAN_SEARCH_MAX_VERTICES} vertices"
        )
    spans = _tight_labels(n, p, q)
    found = {spans[-1]: tuple(v * p for v in range(n))}

    def feasible(span: int) -> bool:
        found[span] = _feasible(g, p, q, variant, span)
        return found[span] is not None

    span = spans[bisect_left(spans, True, hi=len(spans) - 1, key=feasible)]
    labeling = LpqLabeling(p, q, found[span], variant)
    check = check_lpq_labeling(g, labeling)
    if not check.ok or labeling.span != span:
        raise SelfCheckError(
            f"labeling {labeling.labels} of span {labeling.span} does not prove"
            f" span {span}: {check.violation}"
        )
    return span


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
