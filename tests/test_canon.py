"""Canonical forms: equality must mean exactly push-isomorphism."""

from __future__ import annotations

import itertools
import random

import pushcrit as pc
from pushcrit.canon import canonical_data, closure, oriented_canonical_form

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


def test_last_canonical_position_has_maximum_degree(rng):
    # generation's max-degree pretest rests on this: refinement splits the
    # unit cell by degree first, ascending, and never reorders cells
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
    for adj in shaped + randoms:
        n = len(adj)
        _, labeling, _ = canonical_data(adj)
        degrees = [m.bit_count() for m in adj]
        assert degrees[labeling.index(n - 1)] == max(degrees), adj
