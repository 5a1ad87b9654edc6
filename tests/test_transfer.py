"""Chain transfer: the table against the path search, the image over kept
vertices against the image over every vertex, and colorability against
the AT(C3) search."""

from __future__ import annotations

import pytest

import pushcrit as pc
from pushcrit.enumeration import find_critical
from pushcrit.errors import IncompatibleInputError
from pushcrit.hom import path_color_sets
from pushcrit.transfer import ChainGraph, transfer_parities

PARITIES = ((0, "even"), (1, "odd"))


def test_table_matches_the_path_search():
    # a path of L arcs with forward parity p maps its far end onto the
    # colors delta whose colorings have a forward count of parity p
    for length in range(1, 6):
        for parity, name in PARITIES:
            allowed, _ = path_color_sets(length, name)
            assert allowed == {
                d for d in range(3) if parity in transfer_parities(length, d)
            }, (length, name)


def test_chain_lemma():
    for delta in range(3):
        assert transfer_parities(5, delta) == {0, 1}
        for length in range(6, 13):
            assert transfer_parities(length, delta) == {0, 1}
    # shorter chains always forbid something
    for length in range(1, 5):
        assert any(len(transfer_parities(length, d)) < 2 for d in range(3))


def _subdivide(kernel_n, kernel_edges, lengths):
    """(n, sorted edges) of the kernel with edge i a chain of lengths[i]."""
    n = kernel_n
    edges = []
    for (a, b), length in zip(kernel_edges, lengths):
        path = [a] + list(range(n, n + length - 1)) + [b]
        n += length - 1
        edges += [(min(p, q), max(p, q)) for p, q in zip(path, path[1:])]
    return n, sorted(edges)


def _random_kernel(rng, max_n=14):
    """A connected multigraph kernel with minimum degree 3, loops and
    parallel edges allowed, subdivided with random chain lengths 1..5 into
    a simple graph on at most ``max_n`` vertices."""
    while True:
        kernel_n = rng.choice((1, 2, 2, 3, 3, 4, 4))
        # a random spanning tree, then random edges up to minimum degree 3
        kernel_edges = [(rng.randrange(v), v) for v in range(1, kernel_n)]
        degree = [0] * kernel_n
        for a, b in kernel_edges:
            degree[a] += 1
            degree[b] += 1
        while min(degree) < 3:
            a = min(range(kernel_n), key=lambda v: (degree[v], rng.random()))
            b = a if rng.random() < 0.15 else rng.randrange(kernel_n)
            kernel_edges.append((min(a, b), max(a, b)))
            degree[a] += 1
            degree[b] += 1
        lengths = []
        single = set()
        for e in kernel_edges:
            # a loop needs 3 edges and parallel edges one 1-edge copy at most
            low = 3 if e[0] == e[1] else 2 if e in single else 1
            length = rng.choice([x for x in (1, 1, 2, 2, 3, 4, 5) if x >= low])
            if length == 1:
                single.add(e)
            lengths.append(length)
        n, edges = _subdivide(kernel_n, kernel_edges, lengths)
        if n <= max_n:
            return kernel_n, kernel_edges, n, edges


def _chain_edges(n, edges, kept):
    """The edge sets of the chains between ``kept`` vertices, in the order
    of their first edge: edges meeting at a vertex that is not kept share
    a chain."""
    parent = {e: e for e in edges}

    def root(e):
        while parent[e] != e:
            e = parent[e]
        return e

    for v in set(range(n)) - set(kept):
        a, b = [e for e in edges if v in e]
        parent[root(a)] = root(b)
    groups: dict = {}
    for e in edges:
        groups.setdefault(root(e), []).append(e)
    return list(groups.values())


def _assert_kept_gives_full(n, edges, kept):
    full = ChainGraph(n, edges, range(n))
    kernel = ChainGraph(n, edges, kept)
    assert kernel.image == full.image, edges
    assert kernel.critical_classes() == full.critical_classes(), edges
    groups = _chain_edges(n, edges, kept)
    assert len(kernel.chains) == len(groups)
    index = {e: t for t, e in enumerate(edges)}
    for t, group in enumerate(groups):
        mono = kernel.mono(t)
        for e in group:
            assert full.chains[index[e]][3] == kernel.chains[t][3]
            assert full.mono(index[e]) == mono, (edges, e)
    return len(kernel.critical_classes())


def test_kept_kernel_vertices_give_the_full_image(rng):
    loops = parallel = 0
    for _ in range(80):
        kernel_n, kernel_edges, n, edges = _random_kernel(rng)
        loops += any(a == b for a, b in kernel_edges)
        parallel += len(set(kernel_edges)) < len(kernel_edges)
        _assert_kept_gives_full(n, edges, range(kernel_n))
    assert loops and parallel


def test_kept_kernel_vertices_give_the_full_critical_classes():
    graphs = [pc.fixture(name) for name in ("e1", "e2", "e3", "c_minus4")]
    graphs += [pc.OrientedGraph(r.n, r.arcs) for r in find_critical(7)]
    critical = 0
    for g in graphs:
        kept = [v for v, d in enumerate(g.degrees) if d >= 3] or [0]
        critical += _assert_kept_gives_full(g.vertex_count, list(g.edges), kept) > 0
    assert critical == len(graphs)


def test_loops_are_chains_with_equal_ends():
    # a bouquet: one kept vertex with three loops of lengths 3..5
    for lengths in ((3, 3, 3), (3, 4, 5), (4, 4, 5), (5, 5, 5)):
        n, edges = _subdivide(1, [(0, 0)] * 3, lengths)
        _assert_kept_gives_full(n, edges, [0])


def _random_orientations(rng, g, count):
    yield g
    for _ in range(count):
        yield pc.OrientedGraph(
            g.vertex_count,
            tuple((a, b) if rng.random() < 0.5 else (b, a) for a, b in g.edges),
        )


def _subdivided(g, lengths):
    """g with arc i replaced by a directed path of lengths[i] arcs."""
    n = g.vertex_count
    arcs = []
    for (t, h), length in zip(g.arcs, lengths):
        path = [t] + list(range(n, n + length - 1)) + [h]
        n += length - 1
        arcs += zip(path, path[1:])
    return pc.OrientedGraph(n, tuple(arcs))


def test_colorability_matches_the_search(rng):
    graphs = [pc.fixture(name) for name in ("e1", "e2", "e3", "f", "c_minus4")]
    c4 = pc.fixture("c_minus4")
    for lengths in ((1, 1, 1, 2), (1, 2, 2, 2), (2, 2, 2, 2), (1, 1, 3, 3), (5, 1, 1, 1)):
        graphs.append(_subdivided(c4, lengths))
    for _ in range(30):
        _, _, n, edges = _random_kernel(rng)
        graphs.append(pc.OrientedGraph(n, tuple(edges)))
    seen = {True: 0, False: 0}
    for g in graphs:
        degrees = g.degrees
        kept = [v for v, d in enumerate(degrees) if d >= 3] or [0]
        chains = ChainGraph(g.vertex_count, g.edges, kept)
        for h in _random_orientations(rng, g, 8):
            want = pc.is_pushably_k_colorable(h, 3) is not None
            assert chains.colorable(h.arc_set) == want, h.arcs
            seen[want] += 1
    # the exceptions themselves are not colorable
    assert seen[True] and seen[False] >= 4


def test_inputs_outside_the_chain_shape_are_rejected():
    g = pc.fixture("e1")
    with pytest.raises(IncompatibleInputError):
        ChainGraph(g.vertex_count, g.edges, [])
    leaf = [v for v, d in enumerate(g.degrees) if d >= 3][:-1]
    with pytest.raises(IncompatibleInputError):
        ChainGraph(g.vertex_count, g.edges, leaf)
    # two triangles: the second would be a cycle that meets no kept vertex
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    for kept in ([0], range(6)):
        with pytest.raises(IncompatibleInputError, match="connected"):
            ChainGraph(6, edges, kept)
