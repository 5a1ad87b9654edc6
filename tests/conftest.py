"""Shared test oracles, deliberately independent of the library internals.

The helpers here re-decide homomorphism and push questions by the most
naive complete method available (full enumeration, plain recursion) so
that library results can be checked against an implementation that
shares no code with the search kernel.  ``extend_partial_bruteforce`` is
the one exception, and its docstring says so.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations
from typing import Sequence

import pytest

from pushcrit.enumeration import UnderlyingGraph, _min_degree
from pushcrit.errors import IncompatibleInputError, SelfCheckError
from pushcrit.graph import OrientedGraph, _components, push_vertices
from pushcrit.hom import (
    C3,
    ColoringCertificate,
    MappingSearcher,
    target_index,
)


def tiny_hom_exists(g: OrientedGraph, h: OrientedGraph) -> bool:
    """Plain recursive homomorphism decision; no masks, no ordering."""
    hset = set(h.arcs)
    n = g.vertex_count
    assign = [-1] * n

    def consistent(v, c):
        for t, hd in g.arcs:
            if t == v and assign[hd] != -1 and (c, assign[hd]) not in hset:
                return False
            if hd == v and assign[t] != -1 and (assign[t], c) not in hset:
                return False
        return True

    def rec(v):
        if v == n:
            return True
        for c in range(h.vertex_count):
            if consistent(v, c):
                assign[v] = c
                if rec(v + 1):
                    return True
                assign[v] = -1
        return False

    return rec(0)


def brute_pushable_colorable(g: OrientedGraph, h: OrientedGraph) -> bool:
    """Try every one of the 2^n push sets, then a plain homomorphism."""
    n = g.vertex_count
    for bits in range(1 << n):
        s = [v for v in range(n) if bits >> v & 1]
        if tiny_hom_exists(push_vertices(g, s), h):
            return True
    return False


def extend_partial_bruteforce(g: OrientedGraph, colors: dict):
    """Extension by direct search over every push subset of X.

    Independent of the AT(C3) reduction; both routes must agree.  Not
    independent of the search kernel: each push subset is decided by one
    ``MappingSearcher`` solve into C3.
    """
    free = tuple(v for v in range(g.vertex_count) if v not in colors)
    c3 = target_index(C3)
    for r in range(len(free) + 1):
        for pushed in combinations(free, r):
            g2 = push_vertices(g, pushed)
            doms = [
                (1 << colors[v]) if v in colors else 0b111
                for v in range(g.vertex_count)
            ]
            mapping, _ = MappingSearcher(g2, doms).solve(c3, doms)
            if mapping is not None:
                cert = ColoringCertificate(frozenset(pushed), mapping, C3)
                if not cert.verify(g):
                    raise SelfCheckError("a brute-force certificate does not verify")
                return cert
    return None


def brute_push_isomorphic(g: OrientedGraph, h: OrientedGraph) -> bool:
    """All relabelings times all pushes; usable up to ~6 vertices."""
    if g.vertex_count != h.vertex_count or g.arc_count != h.arc_count:
        return False
    n = g.vertex_count
    target_edges = h.edge_set
    for perm in permutations(range(n)):
        relabeled = g.relabel(perm)
        if relabeled.edge_set != target_edges:
            continue
        for bits in range(1 << n):
            s = [v for v in range(n) if bits >> v & 1]
            if push_vertices(relabeled, s).arc_set == h.arc_set:
                return True
    return False


def brute_mad_numerator_denominator(g: OrientedGraph):
    """Exact max of 2|E(H)|/|V(H)| by sweeping every vertex subset."""
    from fractions import Fraction

    best = Fraction(0)
    n = g.vertex_count
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            sub = set(subset)
            m = sum(1 for lo, hi in g.edges if lo in sub and hi in sub)
            best = max(best, Fraction(2 * m, size))
    return best


def attach_path(
    g: OrientedGraph, x: int, y: int, k: int, orientation: str | Sequence[int]
) -> OrientedGraph:
    """Attach a k-arc oriented path from ``x`` to ``y``.

    ``orientation`` gives one bit per arc along the x-to-y traversal,
    1 meaning the arc points toward ``y``.  The k-1 fresh internal
    vertices are appended after the existing ones.
    """
    n = g.vertex_count
    if not (0 <= x < n and 0 <= y < n):
        raise IncompatibleInputError("path endpoints must be existing vertices")
    if k < 1:
        raise IncompatibleInputError("k must be positive")
    bits = [int(b) for b in orientation]
    if len(bits) != k or any(b not in (0, 1) for b in bits):
        raise IncompatibleInputError("orientation must be k bits")
    stops = [x] + [n + i for i in range(k - 1)] + [y]
    new_arcs = [
        (stops[i], stops[i + 1]) if bits[i] else (stops[i + 1], stops[i])
        for i in range(k)
    ]
    return OrientedGraph(n + k - 1, g.arcs + tuple(new_arcs))


def oriented_is_connected(g: OrientedGraph) -> bool:
    return len(g.components) <= 1


def underlying_min_degree(under: UnderlyingGraph) -> int:
    return _min_degree(under.masks)


def underlying_is_connected(under: UnderlyingGraph) -> bool:
    return len(_components(under.masks)) <= 1


def random_oriented_graph(rng: random.Random, n: int, p: float = 0.4) -> OrientedGraph:
    arcs = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                arcs.append((a, b) if rng.random() < 0.5 else (b, a))
    return OrientedGraph(n, tuple(arcs))


def random_connected_oriented_graph(rng: random.Random, n: int, extra: float = 0.3):
    """Random spanning tree plus extra arcs; always connected."""
    arcs = []
    for v in range(1, n):
        u = rng.randrange(v)
        arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    present = {(min(t, h), max(t, h)) for t, h in arcs}
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in present and rng.random() < extra:
                arcs.append((a, b) if rng.random() < 0.5 else (b, a))
    return OrientedGraph(n, tuple(arcs))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def pytest_runtest_logreport(report):
    # guarantee one printed verdict line per acceptance criterion, even
    # when an assertion fails before the criterion's own summary print
    if report.when == "call" and "test_acceptance" in report.nodeid and report.failed:
        name = report.nodeid.split("::")[-1]
        print(f"\nACCEPTANCE {name}: FAIL")
