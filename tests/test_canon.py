"""Canonical forms: equality must mean exactly push-isomorphism."""

from __future__ import annotations

import gc
import itertools
import random
import time

import pytest

import pushcrit as pc
from pushcrit import canon
from pushcrit.canon import (
    CanonicalLabeling,
    _refine,
    _refinements,
    canonical_data,
    closure,
    orbit_of,
    oriented_canonical_form,
)
from pushcrit.errors import IncompatibleInputError
from pushcrit.orient import (
    class_coordinates,
    normalizing_pushes,
    push_class_representatives,
)

from conftest import brute_push_isomorphic, random_oriented_graph


def test_triangle_orientations_share_form():
    c3 = pc.directed_cycle(3)
    transitive = pc.OrientedGraph(3, ((0, 1), (0, 2), (1, 2)))
    assert pc.canonical_form(c3) == pc.canonical_form(transitive)


def test_four_cycle_parity_classes_differ():
    assert pc.canonical_form(pc.directed_cycle(4)) != pc.canonical_form(
        pc.fixture("c_minus4")
    )


def test_invariance_under_relabel_and_push(rng):
    for _ in range(25):
        n = rng.randint(2, 8)
        g = random_oriented_graph(rng, n, p=0.5)
        perm = list(range(n))
        rng.shuffle(perm)
        s = {v for v in range(n) if rng.random() < 0.5}
        twisted = pc.push_vertices(g, s).relabel(perm)
        assert pc.canonical_form(g) == pc.canonical_form(twisted)


def test_form_partition_matches_brute_force_on_4_vertices():
    # orientations of 4-vertex underlying graphs at every edge count: the
    # canonical form partition must equal the brute push-iso partition
    graphs = []
    edges_all = list(itertools.combinations(range(4), 2))
    for edge_bits in range(1 << 6):
        edges = [e for i, e in enumerate(edges_all) if edge_bits >> i & 1]
        for dir_bits in range(1 << len(edges)):
            arcs = tuple(
                (lo, hi) if dir_bits >> i & 1 else (hi, lo)
                for i, (lo, hi) in enumerate(edges)
            )
            graphs.append(pc.OrientedGraph(4, arcs))
    rng = random.Random(7)
    for g in rng.sample(graphs, 60):
        h = rng.choice(graphs)
        same_form = pc.canonical_form(g) == pc.canonical_form(h)
        assert same_form == brute_push_isomorphic(g, h)
    # positive pairs: twisted copies must always collide
    for g in rng.sample(graphs, 30):
        perm = list(range(4))
        rng.shuffle(perm)
        s = {v for v in range(4) if rng.random() < 0.5}
        twisted = pc.push_vertices(g, s).relabel(perm)
        assert pc.canonical_form(g) == pc.canonical_form(twisted)


def test_automorphism_group_sizes(rng):
    def brute_aut_count(adj):
        n = len(adj)
        count = 0
        for p in itertools.permutations(range(n)):
            ok = True
            for v in range(n):
                image = 0
                m = adj[v]
                while m:
                    b = m & -m
                    m ^= b
                    image |= 1 << p[b.bit_length() - 1]
                if image != adj[p[v]]:
                    ok = False
                    break
            if ok:
                count += 1
        return count

    for _ in range(12):
        g = random_oriented_graph(rng, rng.randint(1, 6), p=0.5)
        _, _, gens = canonical_data(g.adjacency_masks)
        assert len(closure(g.vertex_count, gens)) == brute_aut_count(
            g.adjacency_masks
        )


def test_oriented_form_distinguishes_non_isomorphic():
    c3 = pc.directed_cycle(3)
    transitive = pc.OrientedGraph(3, ((0, 1), (0, 2), (1, 2)))
    assert oriented_canonical_form(c3) != oriented_canonical_form(transitive)
    relabeled = transitive.relabel([2, 0, 1])
    assert oriented_canonical_form(transitive) == oriented_canonical_form(relabeled)


def test_exceptional_fixtures_pairwise_distinct():
    forms = {name: pc.canonical_form(pc.fixture(name)) for name in ("e1", "e2", "e3")}
    assert len(set(forms.values())) == 3


def test_underlying_cert_ignores_orientation(rng):
    for _ in range(10):
        g = random_oriented_graph(rng, rng.randint(2, 7), p=0.5)
        flipped = pc.OrientedGraph(
            g.vertex_count, tuple((h, t) for t, h in g.arcs)
        )
        assert pc.underlying_cert(g) == pc.underlying_cert(flipped)


def _masks(n, edges):
    out = [0] * n
    for a, b in edges:
        out[a] |= 1 << b
        out[b] |= 1 << a
    return tuple(out)


def _shaped_and_random(rng):
    """Adjacency masks of shaped graphs (vertex-transitive, complete, empty,
    disconnected) and of 80 random ones on 1..10 vertices."""
    cycle7 = [(i, (i + 1) % 7) for i in range(7)]
    petersen = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
    )
    cube = [(a, a ^ 1 << i) for a in range(8) for i in range(3) if a < a ^ 1 << i]
    shaped = [
        _masks(7, cycle7),
        _masks(10, petersen),
        _masks(8, cube),
        _masks(5, itertools.combinations(range(5), 2)),
        _masks(6, ()),
        # disconnected: a triangle, a star and an isolated vertex
        _masks(9, [(0, 1), (1, 2), (0, 2), (3, 4), (3, 5), (3, 6), (3, 7)]),
    ]
    randoms = [
        random_oriented_graph(rng, rng.randint(1, 10), p=rng.random()).adjacency_masks
        for _ in range(80)
    ]
    return shaped + randoms


def test_a_labeling_leaves_no_cyclic_garbage(rng):
    # generation labels up to millions of children per level; state kept
    # alive by a reference cycle would wait for the cyclic collector
    gc.collect()
    gc.disable()
    try:
        for adj in _shaped_and_random(rng)[:20]:
            canonical_data(adj)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_last_canonical_position_has_maximum_degree(rng):
    # generation's max-degree pretest rests on this: refinement splits the
    # unit cell by degree first, ascending, and never reorders cells
    for adj in _shaped_and_random(rng):
        n = len(adj)
        _, labeling, _ = canonical_data(adj)
        degrees = [m.bit_count() for m in adj]
        assert degrees[labeling.index(n - 1)] == max(degrees), adj


def test_last_canonical_position_lies_in_the_last_root_cell(rng):
    # generation's root-cell lemma: leaves refine the root partition
    # without reordering it, and root cells are unions of orbits
    for adj in _shaped_and_random(rng):
        n = len(adj)
        _, labeling, gens = canonical_data(adj)
        last = set(_refine(adj, [list(range(n))])[-1])
        orbit = orbit_of(labeling.index(n - 1), gens, lambda g, v: g[v])
        assert orbit <= last, adj


def _plain_refine(adj, cells):
    """Refinement as first written: every pass starts at the first target
    and rebuilds every cell."""
    changed = True
    while changed:
        changed = False
        for target in cells:
            tmask = sum(1 << v for v in target)
            newcells = []
            for cell in cells:
                groups = {}
                for v in cell:
                    groups.setdefault((adj[v] & tmask).bit_count(), []).append(v)
                changed |= len(groups) > 1
                newcells += (groups[key] for key in sorted(groups))
            if changed:
                cells = newcells
                break
    return cells


def test_refinement_matches_plain_restarts(rng):
    # the skipped targets must be exactly those that split nothing, so
    # the cells come out in the same order
    for _ in range(300):
        n = rng.randint(1, 14)
        g = random_oriented_graph(rng, n, p=rng.choice((0.15, 0.3, 0.5, 0.8)))
        order = list(range(n))
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(3, n - 1))))
        cells = [order[a:b] for a, b in zip([0] + cuts, cuts + [n])]
        adj = g.adjacency_masks
        assert _refine(adj, [c[:] for c in cells]) == _plain_refine(adj, cells)


def test_labeling_resumes_from_every_partition_on_the_way(rng):
    # the resume lemma: refining again from any partition that the root
    # refinement passed through makes the same splits, so the root
    # partition and everything below it are the same
    graphs = _shaped_and_random(rng) + [
        random_oriented_graph(
            rng, rng.randint(1, 14), p=rng.choice((0.15, 0.3, 0.5, 0.8))
        ).adjacency_masks
        for _ in range(300)
    ]
    for adj in graphs:
        unit = [list(range(len(adj)))]
        root = _refine(adj, unit)
        scratch = canonical_data(adj)
        for cells in [unit, *_refinements(adj, unit)]:
            assert _refine(adj, cells) == root, adj
            assert canonical_data(adj, cells) == scratch, adj


def _closure_form(g, quotient_push):
    """The form as first computed: normalize and encode the orientation
    under every canonical labeling, labeling . sigma for each sigma in the
    closed automorphism group, and keep the least bits."""
    n = g.vertex_count
    _, labeling, gens = canonical_data(g.adjacency_masks)
    canon_edges = sorted(
        (min(labeling[a], labeling[b]), max(labeling[a], labeling[b]))
        for a, b in g.edges
    )
    forest = class_coordinates(n, canon_edges, range(n)).forest
    tree_edges = {(p, v) if p < v else (v, p) for p, v in forest}
    enc_edges = [e for e in canon_edges if e not in tree_edges or not quotient_push]
    best = None
    for sigma in closure(n, gens):
        pi = [labeling[sigma[v]] for v in range(n)]
        arcs = {(pi[t], pi[h]) for t, h in g.arcs}
        x = normalizing_pushes(n, forest, arcs) if quotient_push else [0] * n
        bits = 0
        for lo, hi in enc_edges:
            bits = bits << 1 | (((lo, hi) in arcs) ^ x[lo] ^ x[hi])
        if best is None or bits < best:
            best = bits
    out = bytearray(b"P1" if quotient_push else b"O1")
    out += n.to_bytes(2, "big") + len(canon_edges).to_bytes(3, "big")
    for lo, hi in canon_edges:
        out += lo.to_bytes(2, "big") + hi.to_bytes(2, "big")
    return bytes(out) + best.to_bytes((len(enc_edges) + 7) // 8 or 1, "big")


def _assert_matches_closure_form(g):
    assert pc.canonical_form(g) == _closure_form(g, True)
    assert oriented_canonical_form(g) == _closure_form(g, False)


def test_orbit_forms_match_closure_oracle_on_random_graphs():
    rng = random.Random(20261018)
    for _ in range(300):
        n = rng.randint(0, 9)
        _assert_matches_closure_form(random_oriented_graph(rng, n, p=rng.uniform(0.3, 0.7)))


def test_orbit_forms_match_closure_oracle_on_fixtures():
    for g in pc.builtin_graphs().values():
        _assert_matches_closure_form(g)


def test_shared_labeling_matches_closure_oracle_on_every_orientation():
    # one object serves every orientation of its labeled graph, in both
    # modes and in any order; at most 8 edges keeps the 2^m orientations
    # that the fixed-vertex walk yields few, and |Aut| <= 64 the oracle's
    # closures small
    rng = random.Random(1418)
    tried = 0
    while tried < 40:
        n = rng.randint(1, 9)
        pairs = list(itertools.combinations(range(n), 2))
        edges = sorted(rng.sample(pairs, rng.randint(0, min(len(pairs), 8))))
        adj = _masks(n, edges)
        try:
            closure(n, canonical_data(adj)[2], limit=64)
        except IncompatibleInputError:
            continue
        tried += 1
        labeling = CanonicalLabeling(adj)
        for movable in (range(n), ()):
            for arcs in push_class_representatives(n, edges, movable):
                g = pc.OrientedGraph(n, arcs)
                assert labeling.form(g, quotient_push=True) == _closure_form(g, True)
                assert labeling.form(g, quotient_push=False) == _closure_form(g, False)
                # a class held as an int encodes to the same push form
                assert labeling.encode(labeling.class_of(arcs)) == _closure_form(g, True)
        # an orientation of any other labeled graph is refused
        others = [p for p in pairs if p not in edges]
        if others:
            extra = pc.OrientedGraph(n, g.arcs + (rng.choice(others),))
            with pytest.raises(IncompatibleInputError):
                labeling.form(extra)
        if edges:
            fewer = pc.OrientedGraph(n, g.arcs[1:])
            with pytest.raises(IncompatibleInputError):
                labeling.form(fewer, quotient_push=False)


def _oriented(rng, n, edges):
    """A random orientation of the graph on ``edges`` under a random labeling."""
    perm = list(range(n))
    rng.shuffle(perm)
    return pc.OrientedGraph(
        n,
        tuple(
            (perm[a], perm[b]) if rng.random() < 0.5 else (perm[b], perm[a])
            for a, b in edges
        ),
    )


def _cycle(length):
    return length, [(i, (i + 1) % length) for i in range(length)]


def _hypercube(dim):
    return 1 << dim, [
        (v, v | 1 << b) for v in range(1 << dim) for b in range(dim) if not v >> b & 1
    ]


def _spider(legs, length):
    return legs * length + 1, [
        (0 if i == 0 else leg * length + i, leg * length + i + 1)
        for leg in range(legs)
        for i in range(length)
    ]


def _copies(count, shape):
    n, edges = shape
    return count * n, [(c * n + a, c * n + b) for c in range(count) for a, b in edges]


# the symmetric shapes of the benchmark's query stream, |Aut| from 200 to 31,104
SYMMETRIC_SHAPES = {
    "2xC5": _copies(2, _cycle(5)),
    "3xC5": _copies(3, _cycle(5)),
    "3xC6": _copies(3, _cycle(6)),
    "4xC3": _copies(4, _cycle(3)),
    "spider7x3": _spider(7, 3),
    "2xQ3": _copies(2, _hypercube(3)),
    "2xK3,3": _copies(2, (6, [(a, b) for a in range(3) for b in range(3, 6)])),
    "Q4": _hypercube(4),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC_SHAPES))
def test_orbit_forms_match_closure_oracle_on_symmetric_shapes(name):
    _assert_matches_closure_form(_oriented(random.Random(name), *SYMMETRIC_SHAPES[name]))


# groups the closure could not afford: 10!, 10! and 6^5 * 5!
LARGE_GROUPS = {
    "K1,10": (11, [(0, leaf) for leaf in range(1, 11)]),
    "10 isolated": (10, []),
    "5xC3": _copies(5, _cycle(3)),
}


def _timed(form, g):
    start = time.process_time()
    code = form(g)
    assert time.process_time() - start < 2.0
    return code


@pytest.mark.parametrize("name", sorted(LARGE_GROUPS))
def test_large_groups_are_fast_and_invariant(name):
    rng = random.Random(name)
    n, edges = LARGE_GROUPS[name]
    g = _oriented(rng, n, edges)
    perm = list(range(n))
    rng.shuffle(perm)
    pushed = pc.push_vertices(g, {v for v in range(n) if rng.random() < 0.5})
    assert _timed(pc.canonical_form, g) == _timed(pc.canonical_form, pushed.relabel(perm))
    assert _timed(oriented_canonical_form, g) == _timed(
        oriented_canonical_form, g.relabel(perm)
    )


def test_five_triangles_and_five_four_cycles():
    rng = random.Random(5)
    n, edges = LARGE_GROUPS["5xC3"]
    cyclic = pc.OrientedGraph(n, tuple(edges))
    # reflecting one triangle flips its one co-forest bit, so every
    # orientation of 5xC3 is one push class up to isomorphism ...
    assert _timed(pc.canonical_form, _oriented(rng, n, edges)) == _timed(
        pc.canonical_form, cyclic
    )
    # ... but a transitive triangle is no directed one
    transitive = pc.OrientedGraph(n, ((1, 0),) + tuple(edges[1:]))
    assert _timed(oriented_canonical_form, transitive) != _timed(
        oriented_canonical_form, cyclic
    )
    # on even cycles the forward parity is a push invariant that reflection
    # keeps, so reversing one arc of 5xC4 (|Aut| = 8^5 * 5!) changes the class
    n, edges = _copies(5, _cycle(4))
    directed = pc.OrientedGraph(n, tuple(edges))
    one_reversed = pc.OrientedGraph(n, ((1, 0),) + tuple(edges[1:]))
    assert _timed(pc.canonical_form, directed) != _timed(pc.canonical_form, one_reversed)


def test_forms_never_close_the_group(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("closure called")

    monkeypatch.setattr(canon, "closure", refuse)
    n, edges = _copies(4, _cycle(3))
    g = _oriented(random.Random(4), n, edges)
    pc.canonical_form(g)
    oriented_canonical_form(g)
