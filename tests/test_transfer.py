"""Chain transfer: the table against the path search, the image and every
Mono against a sweep over all maps, the image over kept vertices against
the image over every vertex, and colorability against the AT(C3) search."""

from __future__ import annotations

from itertools import product

import pytest

import pushcrit as pc
from pushcrit import transfer
from pushcrit.chains import Kernel
from pushcrit.enumeration import find_critical
from pushcrit.errors import IncompatibleInputError
from pushcrit.hom import path_color_sets
from pushcrit.orient import class_coordinates
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
    # but from two edges on, no chain bans a color difference: on the image
    # walk only one-edge chains ban (the tail-Mono lemma)
    for length in range(2, 5):
        assert all(transfer_parities(length, d) for d in range(3))


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
    a simple graph on at most ``max_n`` vertices; the lengths come last."""
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
            return kernel_n, kernel_edges, n, edges, lengths


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
    full = ChainGraph(Kernel.of(n, edges, range(n)))
    kernel = ChainGraph(Kernel.of(n, edges, kept))
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
        kernel_n, kernel_edges, n, edges, _ = _random_kernel(rng)
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


def test_subdivided_kernels_walk_back_to_their_chains(rng):
    loops = parallel = 0
    for _ in range(200):
        kernel_n, kernel_edges, n, edges, lengths = _random_kernel(rng)
        loops += any(a == b for a, b in kernel_edges)
        parallel += len(set(kernel_edges)) < len(kernel_edges)
        kernel = Kernel.subdivided(kernel_n, kernel_edges, lengths)
        assert (kernel.n, sorted(kernel.edges)) == (n, edges)
        for path, edge, length in zip(kernel.paths, kernel_edges, lengths):
            assert (path[0], path[-1], len(path) - 1) == (*edge, length)
        # with its edges in path order, each chain's first edge leaves the
        # kernel edge's first end
        assert Kernel.of(n, kernel.edges, range(kernel_n)) == kernel
        walked = Kernel.of(n, edges, range(kernel_n))
        assert sorted(min(p, p[::-1]) for p in walked.paths) == sorted(
            min(p, p[::-1]) for p in kernel.paths
        )
    assert loops and parallel


def test_subdivisions_that_are_not_simple_are_rejected():
    for kernel_edges, lengths, match in (
        ([(0, 1), (0, 1), (0, 1)], [2, 0, 3], "chain of 0 edges from 0 to 1"),
        ([(0, 1), (0, 1), (1, 0)], [2, 3, -1], "chain of -1 edges from 1 to 0"),
        ([(0, 0), (0, 1), (0, 1)], [2, 1, 2], "chain of 2 edges from 0 to 0"),
        ([(1, 1), (0, 1), (0, 1)], [1, 1, 2], "chain of 1 edges from 1 to 1"),
        ([(0, 1), (0, 1), (1, 0)], [1, 2, 1], "two copies of a parallel edge"),
    ):
        with pytest.raises(IncompatibleInputError, match=match):
            Kernel.subdivided(2, kernel_edges, lengths)
    # one copy of length 1 and loops of 3 edges are fine
    kernel = Kernel.subdivided(2, [(0, 1), (1, 0), (0, 0)], [1, 2, 3])
    assert kernel.paths == ((0, 1), (1, 2, 0), (0, 3, 4, 0))


def test_subdivided_kernels_give_the_image_of_their_walk(rng):
    # the kernel entry point: a subdivided kernel, its kernel edges turned
    # at random, against the chain walk over its edges; a one-edge chain
    # whose path runs (hi, lo) still reads (lo, hi)
    turned = 0
    for _ in range(60):
        kernel_n, kernel_edges, _, _, lengths = _random_kernel(rng)
        kernel_edges = [e[::-1] if rng.random() < 0.5 else e for e in kernel_edges]
        turned += any(a > b and length == 1 for (a, b), length in zip(kernel_edges, lengths))
        kernel = Kernel.subdivided(kernel_n, kernel_edges, lengths)
        built = ChainGraph(kernel)
        walked = ChainGraph(Kernel.of(kernel.n, kernel.edges, kernel.kept))
        assert built.image == walked.image, kernel
        assert built.critical_classes() == walked.critical_classes(), kernel
        for t, (u, w, length, z, _) in enumerate(built.chains):
            assert length > 1 or u < w
            assert z == walked.chains[t][3]
            assert built.mono(t) == walked.mono(t), kernel
    assert turned
    # an edge written (hi, lo) is the same edge
    lo_hi = ChainGraph(Kernel.of(3, [(0, 1), (1, 2), (0, 2)], range(3)))
    hi_lo = ChainGraph(Kernel.of(3, [(1, 0), (1, 2), (0, 2)], range(3)))
    assert hi_lo.image == lo_hi.image and hi_lo.chains == lo_hi.chains


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
        _, _, n, edges, _ = _random_kernel(rng)
        graphs.append(pc.OrientedGraph(n, tuple(edges)))
    seen = {True: 0, False: 0}
    for g in graphs:
        degrees = g.degrees
        kept = [v for v, d in enumerate(degrees) if d >= 3] or [0]
        chains = ChainGraph(Kernel.of(g.vertex_count, g.edges, kept))
        for h in _random_orientations(rng, g, 8):
            want = pc.is_pushably_k_colorable(h, 3) is not None
            assert (chains.coords.class_of(h.arc_set) in chains.image) == want, h.arcs
            seen[want] += 1
    # the exceptions themselves are not colorable
    assert seen[True] and seen[False] >= 4


def test_inputs_outside_the_chain_shape_are_rejected():
    g = pc.fixture("e1")
    leaf = [v for v, d in enumerate(g.degrees) if d >= 3][:-1]
    for kept in ([], leaf):
        with pytest.raises(IncompatibleInputError, match="needs degree 2"):
            Kernel.of(g.vertex_count, g.edges, kept)
    # two triangles: a chain walk from 0 ends on the second one, a cycle
    # that meets no kept vertex, and with every vertex kept the graph is
    # still not connected
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    with pytest.raises(IncompatibleInputError, match="meets no kept vertex"):
        Kernel.of(6, edges, [0])
    with pytest.raises(IncompatibleInputError, match="connected"):
        ChainGraph(Kernel.of(6, edges, range(6)))
    # a plain cycle and no kept vertex: a chain walk along it would not end
    cycle = [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    with pytest.raises(IncompatibleInputError, match="meets no kept vertex"):
        Kernel.of(5, cycle, [])
    # the chain walk itself stops on such a cycle, whatever checks run first
    with pytest.raises(IncompatibleInputError, match="meets no kept vertex"):
        Kernel.of(3, [(0, 1), (0, 2), (1, 2)], set())


def test_malformed_inputs_are_rejected():
    triangle = [(0, 1), (0, 2), (1, 2)]
    for edges in (
        [(0, 1), (0, 2), (1, 2), (1, 1)],  # a loop
        [(0, 1), (0, 2), (1, 2), (0, 1)],  # a repeated edge
        [(0, 1), (0, 2), (1, 2), (2, 3)],  # a vertex outside 0..n-1
        [(-1, 0), (0, 1), (0, 2), (1, 2)],  # a negative vertex
        [(0, 1.0), (1, 2), (0, 2)],  # a vertex that is no int
        [(0, True), (1, 2), (0, 2)],
    ):
        with pytest.raises(IncompatibleInputError):
            Kernel.of(3, edges, range(3))
    # as many kept vertices as vertices, but not all of them
    for kept in ([0, 1, 2, 99], [-1, 0, 1, 2], [0, 1, 2, 3, 99], [0, 1, 2, 3.0]):
        with pytest.raises(IncompatibleInputError):
            Kernel.of(4, triangle + [(2, 3)], kept)
    # the kernels check their vertices themselves; -1 must not read vertex
    # 2 through negative indexing
    for edges, kept, match in (
        ([(0, 5)], [0], "vertex 5 outside 0..2"),
        ([(0, -1)], [0], "vertex -1 outside 0..2"),
        (triangle, [0, 7], "vertex 7 outside 0..2"),
        (triangle, [-1], "vertex -1 outside 0..2"),
    ):
        with pytest.raises(IncompatibleInputError, match=match):
            Kernel.of(3, edges, kept)
    # the graph must be simple: no loop edge, no edge twice in either direction
    for n, edges, kept, match in (
        (1, [(0, 0)], [0], "loop at vertex 0"),
        (2, [(0, 1), (0, 1)], [0, 1], "parallel arc"),
        (3, [(0, 1), (1, 0), (1, 2), (2, 0)], [0, 1], "digon"),
    ):
        with pytest.raises(IncompatibleInputError, match=match):
            Kernel.of(n, edges, kept)
    for kernel_edges, lengths, match in (
        ([(0, 5)], [2], "vertex 5 outside 0..1"),
        ([(-1, 0)], [2], "vertex -1 outside 0..1"),
        ([(0, 1)], [2, 3], "2 lengths for 1 kernel edges"),
        ([(0, 1), (0, 1)], [2], "1 lengths for 2 kernel edges"),
        ([(0, 1)] * 3, [1, 2.0, 3], "a chain of 2.0 edges"),
        ([(0, 1)] * 3, [True, 2, 3], "a chain of True edges"),
        ([(0, 1.0)], [2], "vertex 1.0 outside 0..1"),
    ):
        with pytest.raises(IncompatibleInputError, match=match):
            Kernel.subdivided(2, kernel_edges, lengths)
    # and the vertex count is a non-negative int
    for n in (2.0, True, -1):
        with pytest.raises(IncompatibleInputError, match=f"a graph on {n!r} vertices"):
            Kernel.subdivided(n, [(0, 1)], [2])
        with pytest.raises(IncompatibleInputError, match=f"a graph on {n!r} vertices"):
            Kernel.of(n, [], [])
    # and edges are pairs
    with pytest.raises(IncompatibleInputError, match="arcs must be pairs"):
        Kernel.subdivided(3, [(0, 1, 2)], [2])
    with pytest.raises(IncompatibleInputError, match="arcs must be pairs"):
        Kernel.of(3, [(0, 1, 2)], [0, 1, 2])
    # the triangle has one free edge; both directed triangles map onto C3,
    # and every orientation is push equivalent to one of them
    graph = ChainGraph(Kernel.of(3, triangle, range(3)))
    assert graph.width == 1
    assert graph.image == {0, 1}
    for bits in range(8):
        g = pc.OrientedGraph(3, tuple(e if bits >> i & 1 else e[::-1] for i, e in enumerate(triangle)))
        colorable = graph.coords.class_of(g.arc_set) in graph.image
        assert colorable == (pc.is_pushably_k_colorable(g, 3) is not None)


def _random_connected(rng, n):
    """Sorted edges of a random connected simple graph on n vertices."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4}
    return sorted(edges)


def _sweep(n, edges, coords):
    """Im and Mono_e of every edge e, by trying every map c with c(0) = 0:
    the classes of a(c) over the proper maps, and over the maps proper but
    on e with e's direction either way."""
    image = set()
    mono = {e: set() for e in edges}
    for rest in product(range(3), repeat=n - 1):
        c = (0,) + rest
        flat = [(a, b) for a, b in edges if c[a] == c[b]]
        if len(flat) > 1:
            continue
        arcs = {(a, b) if c[b] == (c[a] + 1) % 3 else (b, a) for a, b in edges if c[a] != c[b]}
        if not flat:
            image.add(coords.class_of(arcs))
        else:
            e = flat[0]
            mono[e] |= {coords.class_of(arcs | {e}), coords.class_of(arcs | {e[::-1]})}
    return image, mono


def _assert_sweep_agrees(n, edges, kept):
    graph = ChainGraph(Kernel.of(n, edges, kept))
    image, mono = _sweep(n, edges, graph.coords)
    assert graph.image == image, edges
    flip = 0
    for _, _, length, z, _ in graph.chains:
        if length % 2:
            flip ^= z
    assert {k ^ flip for k in image} == image
    tails = 0
    for t, group in enumerate(_chain_edges(n, edges, kept)):
        u, w, length, z, _ = graph.chains[t]
        found = graph.mono(t)
        for e in group:
            assert found == mono[e], (edges, kept, e)
        assert {k ^ flip for k in found} == found
        tails += length == 1 and max(graph.pos[u], graph.pos[w]) >= graph.size - 2
    return tails, len(graph.chains) - tails


def test_one_pass_walk_matches_the_class_coordinates(rng):
    # the walk takes its order, z and start from one BFS and one subtree
    # pass, with every vertex kept or only the kernel vertices; they must
    # equal the forest order, masks and base of class_coordinates
    cases = []
    for _ in range(120):
        n = rng.randint(1, 9)
        cases.append((n, _random_connected(rng, n), range(n)))
    for _ in range(80):
        kernel_n, _, n, edges, _ = _random_kernel(rng)
        cases.append((n, edges, range(kernel_n)))
    subsets = 0
    for trial, (n, edges, kept) in enumerate(cases):
        if trial % 2:
            rng.shuffle(edges)  # the free bits still follow (lo, hi) order
        graph = ChainGraph(Kernel.of(n, edges, kept))
        # nothing so far has read the class coordinates
        assert "coords" not in vars(graph)
        coords = class_coordinates(n, edges, range(n))
        # each chain's z is that of its first edge, and of all its edges
        groups = _chain_edges(n, edges, kept)
        assert [{coords.masks[e] for e in group} for group in groups] == [
            {z} for _, _, _, z, _ in graph.chains
        ], edges
        order = [v for v in [0] + [c for _, c in coords.forest] if v in kept]
        assert graph.pos == [order.index(v) if v in order else -1 for v in range(n)]
        assert graph._base == coords.base
        assert graph.width == len(coords.free)
        if len(kept) == n:
            assert graph.chains == [(lo, hi, 1, coords.masks[lo, hi], 0) for lo, hi in edges]
        subsets += len(kept) < n
        assert graph.coords == coords
    assert subsets > 40


def test_image_and_mono_match_the_sweep(rng):
    tails = others = 0
    for _ in range(40):
        n = rng.randint(2, 7)
        edges = _random_connected(rng, n)
        a, b = _assert_sweep_agrees(n, edges, range(n))
        tails, others = tails + a, others + b
    kernels = 0
    while kernels < 40:
        kernel_n, _, n, edges, _ = _random_kernel(rng, max_n=10)
        if kernel_n < n:
            a, b = _assert_sweep_agrees(n, edges, range(kernel_n))
            tails, others = tails + a, others + b
            kernels += 1
    # Monos from the image walk and from walks of their own
    assert tails and others


def test_the_scan_walks_once_per_candidate(monkeypatch):
    walks = {"image": 0, "mono": 0}
    phase = ["image"]
    walk = transfer._coloring_image
    mono = ChainGraph.mono
    coordinates = []

    def counting_coordinates(*args):
        coordinates.append(args)
        return class_coordinates(*args)

    def counting_walk(*args):
        walks[phase[0]] += 1
        return walk(*args)

    def separate_mono(self, t):
        phase[0] = "mono"
        try:
            return mono(self, t)
        finally:
            phase[0] = "image"

    monkeypatch.setattr(transfer, "_coloring_image", counting_walk)
    monkeypatch.setattr(ChainGraph, "mono", separate_mono)
    monkeypatch.setattr(transfer, "class_coordinates", counting_coordinates)
    assert len(find_critical(8)) == 16
    # one image walk per candidate; Monos of chains off the last two
    # positions walk on their own, when a candidate class needs them
    assert walks == {"image": 3663, "mono": 163}
    # the class coordinates are built only to name the arcs of a critical
    # class: for the 13 candidates that have one
    assert len(coordinates) == 13
