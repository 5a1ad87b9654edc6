"""Exact maximum average degree.

mad(g) = max over nonempty subgraphs H of 2|E(H)|/|V(H)|; induced
subgraphs suffice because dropping an edge never raises the ratio.  One
route serves every size.  The density a/b starts at the densest suffix
of a min-degree peeling (M. Charikar, "Greedy approximation algorithms
for finding dense components in a graph", APPROX 2000), a bucket queue
in O(n + m).  A max-flow test then either proves that no subgraph is
denser than a/b or returns one that is, and the density is raised to
that subgraph's until the test proves it maximal (Dinkelbach-style).
Values are exact rationals throughout, on Python ints that cannot
overflow.

The test runs on Goldberg's vertex network (A. V. Goldberg, "Finding a
maximum density subgraph", UCB/CSD-84-171, 1984), whose n + 2 nodes are
the vertices, a source and a sink.  Its source -> v -> sink paths are
saturated first, so vertex v holds ex(v) = b*deg(v) - 2a: excess when
positive, slack when negative.  What remains is to route excess to slack
along the edges, each of capacity b in either direction.  Let R be a
vertex set that no residual arc leaves.  Every edge from R to the rest
then carries b out of R, so the sum of ex(v) over R is 2b|E(R)| - 2a|R|.

* If excess remains after a maximum flow, let R be the vertices that
  cannot reach a vertex with slack.  R holds every excess and no slack,
  so 2b|E(R)| - 2a|R| > 0: R is strictly denser than a/b, and its
  density is the next one the loop tests.
* If no excess remains, then for every vertex set S,
  2b|E(S)| - 2a|S| = (sum of ex over S) + (net outflow of S)
  - b*e(S, V - S) <= 0, so no subgraph is denser than a/b.

The flow is highest-label push-relabel (A. V. Goldberg and R. E. Tarjan,
"A new approach to the maximum-flow problem", J. ACM 1988) with exact
labels: a global relabel, a breadth-first search back from the slack
vertices, runs at the start and after every n relabels.  With exact
labels the highest-label order pushes each vertex's accumulated excess
downhill once.  Weaker designs are quadratic on long paths: Dinic's
algorithm on this network took 2.0-2.3 s on a 2,000-vertex path, where
Dinic on the (m + n + 2)-node edge-node network took 0.01-0.02 s, and
augmenting from one excess vertex at a time by breadth-first search
fares the same.  Excess that cannot reach slack would climb one label
at a time up to n; when a relabel leaves its label empty (a gap), every
vertex above it goes to n at once.  On random graphs with m about 1.25n
that took a 2,459-vertex graph from 0.40 s to 0.11 s and a 20,000-vertex one
from 7.2 s to 1.8 s (process time, 2-vCPU Xeon, Python 3.11).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SelfCheckError, UndefinedInputError
from .graph import OrientedGraph

# perfbench/tracing.py `_mad_path` reads this to count
# `density.mad_flow.calls` (calls on graphs above 20 vertices); it goes in
# the next benchmark change.
BRUTE_FORCE_LIMIT = 20


def _peeling_density(out: list[list[int]], head: list[int]) -> Fraction:
    """The densest |E(S)|/|S| over the suffixes S of a min-degree peeling.

    ``out[v]`` lists the arcs leaving v and ``head[k]`` is arc k's head.
    Vertices wait in buckets by degree; an entry whose vertex has since
    lost degree or left is stale and skipped.
    """
    n = len(out)
    deg = [len(arcs) for arcs in out]
    buckets: list[list[int]] = [[] for _ in range(max(deg) + 1)]
    for v, d in enumerate(deg):
        buckets[d].append(v)
    gone = [False] * n
    edges = len(head) // 2
    best_edges, best_size = edges, n
    low = 0
    for size in range(n - 1, 0, -1):
        while True:
            while not buckets[low]:
                low += 1
            v = buckets[low].pop()
            if not gone[v] and deg[v] == low:
                break
        gone[v] = True
        edges -= low
        for k in out[v]:
            u = head[k]
            if not gone[u]:
                deg[u] -= 1
                buckets[deg[u]].append(u)
        # removing a vertex lowers the least degree by at most one
        low = max(low - 1, 0)
        if edges * best_size > best_edges * size:
            best_edges, best_size = edges, size
    return Fraction(best_edges, best_size)


def _exact_labels(out: list[list[int]], head: list[int], res: list[int], ex: list[int]) -> list[int]:
    """Each vertex's residual distance to a vertex with slack, n if none."""
    n = len(out)
    label = [n] * n
    queue = [v for v in range(n) if ex[v] < 0]
    for v in queue:
        label[v] = 0
    for w in queue:
        d = label[w] + 1
        for k in out[w]:
            u = head[k]
            # arc k ^ 1 runs from u to w
            if label[u] == n and res[k ^ 1]:
                label[u] = d
                queue.append(u)
    return label


def _denser_subgraph(out: list[list[int]], head: list[int], a: int, b: int) -> set[int] | None:
    """Vertex set of some subgraph strictly denser than a/b, or None.

    Arcs 2i and 2i + 1 are edge i's two directions, so arc ``k ^ 1`` is
    the residual reverse of arc k.
    """
    n = len(out)
    res = [b] * len(head)
    ex = [b * len(arcs) - 2 * a for arcs in out]
    # active[d] holds the vertices with excess and label d; level[d] every
    # vertex with label d, count[d] of them; an entry whose vertex has
    # since been relabelled is stale
    relabels = n
    while True:
        if relabels >= n:
            label = _exact_labels(out, head, res, ex)
            relabels, current = 0, [0] * n
            active: list[list[int]] = [[] for _ in range(n)]
            level: list[list[int]] = [[] for _ in range(n)]
            for v, d in enumerate(label):
                if d < n:
                    level[d].append(v)
                    if ex[v] > 0:
                        active[d].append(v)
            count = [len(vs) for vs in level]
            high = top = max((d for d in label if d < n), default=-1)
        while top >= 0 and not active[top]:
            top -= 1
        if top < 0:
            break
        u = active[top].pop()
        if label[u] != top:
            continue
        du, e, arcs, i = top, ex[u], out[u], current[u]
        stop = len(arcs)
        while True:
            while i < stop:
                k = arcs[i]
                r = res[k]
                if r:
                    w = head[k]
                    if label[w] == du - 1:
                        x = e if e < r else r
                        res[k] = r - x
                        res[k ^ 1] += x
                        y = ex[w]
                        if y <= 0 < y + x:
                            active[du - 1].append(w)
                            if du > top:
                                top = du - 1
                        ex[w] = y + x
                        e -= x
                        if not e:
                            break
                i += 1
            if not e:
                break
            relabels += 1
            count[du] -= 1
            if count[du]:
                du = min(n, 1 + min((label[head[k]] for k in arcs if res[k]), default=n))
            else:
                # a gap: a path to slack from above label du would pass a
                # vertex labelled du, and none is left
                for d in range(du + 1, high + 1):
                    for v in level[d]:
                        if label[v] == d:
                            label[v] = n
                    level[d].clear()
                    count[d] = 0
                high, du = du - 1, n
            label[u], i = du, 0
            if du == n:
                break
            count[du] += 1
            level[du].append(u)
            if du > high:
                high = du
        ex[u], current[u] = e, i
    if all(x <= 0 for x in ex):
        return None
    label = _exact_labels(out, head, res, ex)
    return {v for v in range(n) if label[v] == n}


def mad_exact(g: OrientedGraph) -> Fraction:
    """Exact maximum average degree of the underlying graph.

    Raises ``SelfCheckError`` when a round's witness is not denser than
    the density it refutes, a fault of the library that would otherwise
    repeat that density forever.
    """
    n = g.vertex_count
    if n == 0:
        raise UndefinedInputError("mad is undefined on the empty graph")
    if g.arc_count == 0:
        return Fraction(0)
    out: list[list[int]] = [[] for _ in range(n)]
    head: list[int] = []
    for lo, hi in g.edges:
        out[lo].append(len(head))
        head.append(hi)
        out[hi].append(len(head))
        head.append(lo)
    density = _peeling_density(out, head)
    # each round either proves optimality or strictly improves the density,
    # and only finitely many subgraph densities exist
    while True:
        sub = _denser_subgraph(out, head, density.numerator, density.denominator)
        if sub is None:
            return 2 * density
        inside = sum(1 for lo, hi in g.edges if lo in sub and hi in sub)
        denser = Fraction(inside, len(sub))
        if denser <= density:
            raise SelfCheckError(
                f"a witness of density {denser} does not refute density {density}"
            )
        density = denser
