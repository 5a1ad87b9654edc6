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

    def class_of(self, v: int) -> VertexClass:
        for c in self.classes:
            if c.vertex == v:
                return c
        raise KeyError(v)


def classify_vertices(g: OrientedGraph) -> ChainDecomposition:
    """Decompose g into chains and classify every 3+-vertex.

    Requires every vertex to have degree >= 2 and every 2-vertex to lie on
    a chain between two distinct 3+-vertices; a 2-regular component or a
    chain closing back on its own endpoint has no classification and is
    reported as unclassifiable.
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

    chains: list[Chain] = []
    seen_keys = set()
    for v in range(n):
        if deg[v] < 3:
            continue
        for w in g.neighbors(v):
            internal = []
            prev, cur = v, w
            while deg[cur] == 2:
                internal.append(cur)
                nxts = [u for u in g.neighbors(cur) if u != prev]
                prev, cur = cur, nxts[0]
            end = cur
            if end == v:
                raise UnclassifiableGraphError(
                    f"chain at vertex {v} closes back on itself", (v,)
                )
            if v <= end:
                key = (v, end, tuple(internal))
            else:
                key = (end, v, tuple(reversed(internal)))
            if key in seen_keys:
                continue
            seen_keys.add(key)
            chains.append(Chain((key[0], key[1]), key[2]))

    classes = []
    for v in range(n):
        if deg[v] < 3:
            continue
        counts = []
        for chain in chains:
            a, b = chain.endpoints
            if a == v:
                counts.append(chain.internal_count)
            if b == v:
                counts.append(chain.internal_count)
        counts.sort(reverse=True)
        if len(counts) != deg[v]:
            raise UnclassifiableGraphError(
                f"vertex {v}: {len(counts)} chain slots for degree {deg[v]}", (v,)
            )
        classes.append(VertexClass(v, deg[v], tuple(counts), sum(counts)))
    return ChainDecomposition(tuple(chains), tuple(classes))
