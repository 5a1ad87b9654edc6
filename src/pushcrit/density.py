"""Exact maximum average degree.

mad(g) = max over nonempty subgraphs H of 2|E(H)|/|V(H)|; induced
subgraphs suffice because dropping an edge never raises the ratio.  One
route serves every size: Goldberg's max-flow test (A. V. Goldberg,
"Finding a maximum density subgraph", UCB/CSD-84-171, 1984) either proves
that no subgraph is denser than a given |E|/|V| or returns one that is,
and the density is raised to that subgraph's until the test proves it
maximal (Dinkelbach-style).  The flow is Dinic's algorithm on Python
ints, so values are exact rationals throughout and capacities cannot
overflow.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UndefinedInputError
from .graph import OrientedGraph

# perfbench/tracing.py `_mad_path` reads this to count
# `density.mad_flow.calls` (calls on graphs above 20 vertices); it goes in
# the next benchmark change.
BRUTE_FORCE_LIMIT = 20


class _FlowNetwork:
    """Integer max-flow by Dinic's algorithm.

    Arcs live in paired slots: slot ``s ^ 1`` is the residual reverse of
    slot ``s``.
    """

    def __init__(self, size: int):
        self.out = [[] for _ in range(size)]
        self.head: list[int] = []
        self.cap: list[int] = []

    def add_arc(self, u: int, v: int, capacity: int) -> None:
        self.out[u].append(len(self.head))
        self.head.append(v)
        self.cap.append(capacity)
        self.out[v].append(len(self.head))
        self.head.append(u)
        self.cap.append(0)

    def _levels(self, source: int) -> list[int]:
        """BFS distance from ``source`` in the residual network, -1 if unreachable."""
        head, cap = self.head, self.cap
        level = [-1] * len(self.out)
        level[source] = 0
        queue = [source]
        for u in queue:
            for slot in self.out[u]:
                v = head[slot]
                if cap[slot] and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level

    def _blocking_flow(self, level: list[int], source: int, sink: int) -> int:
        head, cap, out = self.head, self.cap, self.out
        cursor = [0] * len(out)
        total = 0
        path: list[int] = []
        u = source
        while True:
            if u == sink:
                push = min(cap[slot] for slot in path)
                for slot in path:
                    cap[slot] -= push
                    cap[slot ^ 1] += push
                total += push
                path.clear()
                u = source
                continue
            slots = out[u]
            i = cursor[u]
            while i < len(slots) and not (
                cap[slots[i]] and level[head[slots[i]]] == level[u] + 1
            ):
                i += 1
            cursor[u] = i
            if i < len(slots):
                path.append(slots[i])
                u = head[slots[i]]
            elif u == source:
                return total
            else:
                # dead end: retreat and never try this arc again in this phase
                u = head[path.pop() ^ 1]
                cursor[u] += 1

    def max_flow(self, source: int, sink: int) -> tuple[int, list[int]]:
        """Max-flow value and the levels of the final residual BFS.

        The nodes with a level >= 0 are those reachable from ``source``
        in the residual network: the source side of a minimum cut.
        """
        flow = 0
        while True:
            level = self._levels(source)
            if level[sink] < 0:
                return flow, level
            flow += self._blocking_flow(level, source, sink)


def _denser_subgraph(g: OrientedGraph, density: Fraction):
    """Vertex set of some subgraph strictly denser than ``density``, or None.

    Goldberg network: source -> each edge node (capacity b), edge node ->
    both endpoints (infinite), vertex -> sink (capacity a), for
    density = a/b.  A cut with vertex set S on the source side costs at
    least b(|E| - |E(S)|) + a|S|, so a max-flow below b|E| means the
    vertices reachable from the source in the residual network span a
    subgraph with b|E(S)| - a|S| > 0.
    """
    n, m = g.vertex_count, g.arc_count
    a, b = density.numerator, density.denominator
    source, sink = n + m, n + m + 1
    infinite = m * b + 1
    network = _FlowNetwork(n + m + 2)
    for i, (t, h) in enumerate(g.edges):
        network.add_arc(source, n + i, b)
        network.add_arc(n + i, t, infinite)
        network.add_arc(n + i, h, infinite)
    for v in range(n):
        network.add_arc(v, sink, a)
    flow, level = network.max_flow(source, sink)
    if flow >= m * b:
        return None
    return {v for v in range(n) if level[v] >= 0}


def mad_exact(g: OrientedGraph) -> Fraction:
    """Exact maximum average degree of the underlying graph."""
    n = g.vertex_count
    if n == 0:
        raise UndefinedInputError("mad is undefined on the empty graph")
    if g.arc_count == 0:
        return Fraction(0)
    density = Fraction(g.arc_count, n)
    # each round either proves optimality or strictly improves the density,
    # and only finitely many subgraph densities exist
    while True:
        sub = _denser_subgraph(g, density)
        if sub is None:
            return 2 * density
        inside = sum(1 for lo, hi in g.edges if lo in sub and hi in sub)
        density = Fraction(inside, len(sub))
