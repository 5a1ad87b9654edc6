"""Chain decomposition and vertex classification.

A chain is a maximal path whose internal vertices all have degree 2 and
whose endpoints have degree >= 3; an edge between two such vertices is a
0-chain.  A vertex of degree k >= 3 then carries a descriptor listing,
per incident chain, how many 2-vertices lie inside it (written sorted
descending, so a degree-3 vertex with chains of 3, 3 and 0 internal
2-vertices reads (3, 3, 0)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import UnclassifiableGraphError
from .graph import OrientedGraph


@dataclass(frozen=True)
class Chain:
    """One chain: endpoint pair and the internal vertices from the lower end."""

    endpoints: tuple[int, int]
    internal: tuple[int, ...]

    @property
    def internal_count(self) -> int:
        return len(self.internal)


@dataclass(frozen=True)
class VertexClass:
    vertex: int
    degree: int
    chain_internal_counts: tuple[int, ...]
    total: int

    def label(self) -> str:
        counts = ",".join(str(t) for t in self.chain_internal_counts)
        return f"{self.degree}_{{{counts}}}"


@dataclass(frozen=True)
class ChainDecomposition:
    chains: tuple[Chain, ...]
    classes: tuple[VertexClass, ...]

    @cached_property
    def _by_vertex(self) -> dict[int, VertexClass]:
        return {c.vertex: c for c in self.classes}

    def class_of(self, v: int) -> VertexClass:
        return self._by_vertex[v]


def classify_vertices(g: OrientedGraph) -> ChainDecomposition:
    """Decompose g into chains and classify every 3+-vertex.

    Requires every vertex to have degree >= 2 and every 2-vertex to lie on
    a chain between two distinct 3+-vertices; a 2-regular component or a
    chain closing back on its own endpoint has no classification and is
    reported as unclassifiable.

    Each chain is walked from both ends and kept from its lower one, which
    the scan in vertex order reaches first; every kept chain fills one
    slot at each end.  The work is linear in the size of g.
    """
    n = g.vertex_count
    deg = g.degrees
    for v in range(n):
        if deg[v] < 2:
            raise UnclassifiableGraphError(
                f"vertex {v} has degree {deg[v]} < 2", (v,)
            )
    for comp in g.components:
        if all(deg[v] == 2 for v in comp):
            raise UnclassifiableGraphError(
                f"component {comp} is a cycle of 2-vertices", comp
            )
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for t, h in g.arcs:
        nbrs[t].append(h)
        nbrs[h].append(t)

    chains: list[Chain] = []
    slots: dict[int, list[int]] = {v: [] for v in range(n) if deg[v] >= 3}
    for v in slots:
        for w in sorted(nbrs[v]):
            internal = []
            prev, cur = v, w
            while deg[cur] == 2:
                internal.append(cur)
                a, b = nbrs[cur]
                prev, cur = cur, b if a == prev else a
            if cur == v:
                raise UnclassifiableGraphError(
                    f"chain at vertex {v} closes back on itself", (v,)
                )
            if v < cur:
                chains.append(Chain((v, cur), tuple(internal)))
                slots[v].append(len(internal))
                slots[cur].append(len(internal))

    classes = []
    for v, counts in slots.items():
        if len(counts) != deg[v]:
            raise UnclassifiableGraphError(
                f"vertex {v}: {len(counts)} chain slots for degree {deg[v]}", (v,)
            )
        counts.sort(reverse=True)
        classes.append(VertexClass(v, deg[v], tuple(counts), sum(counts)))
    return ChainDecomposition(tuple(chains), tuple(classes))
