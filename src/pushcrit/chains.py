"""Chain decomposition and vertex classification.

A ``Kernel`` reads a graph as its kept vertices joined by chains, paths
through vertices of degree 2.  With the 3+-vertices kept, an edge between
two of them is a 0-chain, and a vertex of degree k >= 3 carries a
descriptor (``Kernel.descriptors``) listing, per incident chain, how many
2-vertices lie inside it (written sorted descending, so a degree-3 vertex
with chains of 3, 3 and 0 internal 2-vertices reads (3, 3, 0)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import IncompatibleInputError, UnclassifiableGraphError
from .graph import Arc, OrientedGraph, _arc_violation, _check_vertices, _pairs


@dataclass(frozen=True)
class Kernel:
    """A graph on 0..n-1 read as its ``kept`` vertices joined by chains,
    every other vertex having degree 2.  ``paths`` holds each chain as its
    vertex path, both ends included; a loop's ends are equal."""

    n: int
    kept: frozenset[int]
    paths: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, n: int, edges: Sequence[Arc], kept: Iterable[int]) -> Kernel:
        """The chains of the simple graph with ``edges``, in the order of
        each chain's first edge (u, v), walked through u and then v."""
        kept = frozenset(kept)
        _check_vertices(n, kept)
        edges = _pairs(edges, IncompatibleInputError)
        violation = _arc_violation(n, edges)
        if violation is not None:
            raise IncompatibleInputError(violation[1])
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        if any(len(nbrs[v]) != 2 for v in range(n) if v not in kept):
            raise IncompatibleInputError("every vertex that is not kept needs degree 2")

        def walk(prev: int, v: int) -> list[int]:
            # from v away from prev up to a kept vertex, within n steps
            path = [v]
            for _ in nbrs:
                if v in kept:
                    return path
                a, b = nbrs[v]
                prev, v = v, b if a == prev else a
                path.append(v)
            raise IncompatibleInputError("a cycle of the graph meets no kept vertex")

        paths, inside = [], set()
        for u, v in edges:
            if u in kept and v in kept:
                paths.append((u, v))
            elif u not in inside and v not in inside:
                path = walk(v, u)[::-1] + walk(u, v)
                inside.update(path[1:-1])
                paths.append(tuple(path))
        return cls(n, kept, tuple(paths))

    @classmethod
    def subdivided(
        cls, kernel_n: int, kernel_edges: Sequence[Arc], lengths: Sequence[int]
    ) -> Kernel:
        """The graph whose kernel edge i, (a, b), is a chain of
        ``lengths[i]`` edges from a to b, internal vertices numbered from
        kernel_n on in kernel-edge order.  It must be simple: a loop needs 3
        edges, and at most one copy of a parallel edge may have 1."""
        if len(kernel_edges) != len(lengths):
            raise IncompatibleInputError(
                f"{len(lengths)} lengths for {len(kernel_edges)} kernel edges"
            )
        kernel_edges = _pairs(kernel_edges, IncompatibleInputError)
        _check_vertices(kernel_n, (v for e in kernel_edges for v in e))
        paths, nxt = [], kernel_n
        for (a, b), length in zip(kernel_edges, lengths):
            if type(length) is not int or length < (3 if a == b else 1):
                raise IncompatibleInputError(f"a chain of {length!r} edges from {a} to {b}")
            paths.append((a, *range(nxt, nxt + length - 1), b))
            nxt += length - 1
        ones = [(min(p), max(p)) for p in paths if len(p) == 2]
        if len(set(ones)) < len(ones):
            raise IncompatibleInputError("two copies of a parallel edge have 1 edge each")
        return cls(nxt, frozenset(range(kernel_n)), tuple(paths))

    @property
    def edges(self) -> list[Arc]:
        """The (lo, hi) edges, path by path."""
        return [(min(a, b), max(a, b)) for p in self.paths for a, b in zip(p, p[1:])]

    @cached_property
    def descriptors(self) -> dict[int, tuple[int, ...]]:
        """Each kept vertex's chain descriptor: the internal-vertex counts
        of the chains at it, descending; a loop counts twice."""
        counts: dict[int, list[int]] = {v: [] for v in sorted(self.kept)}
        for p in self.paths:
            counts[p[0]].append(len(p) - 2)
            counts[p[-1]].append(len(p) - 2)
        return {v: tuple(sorted(c, reverse=True)) for v, c in counts.items()}


def classify_vertices(g: OrientedGraph) -> Kernel:
    """The ``Kernel`` of g's 3+-vertices, whose ``descriptors`` classify them.

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
    kernel = Kernel.of(n, g.arcs, (v for v in range(n) if deg[v] >= 3))
    loops = [p[0] for p in kernel.paths if p[0] == p[-1]]
    if loops:
        u = min(loops)
        raise UnclassifiableGraphError(f"chain at vertex {u} closes back on itself", (u,))
    return kernel
