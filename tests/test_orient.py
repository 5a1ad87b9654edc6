"""Push classes over GF(2): the spanning forest, the normalizer and the
class walk, against direct oracles."""

from __future__ import annotations

import pushcrit as pc
from pushcrit.canon import canonical_data
from pushcrit.orient import (
    AffineMap,
    bfs_forest,
    class_coordinates,
    co_forest,
    normalizing_pushes,
    push_class_count,
    push_class_representatives,
    subtree_masks,
)

from conftest import oriented_is_connected


def _random_edges(rng, n, p):
    return [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]


def _masks(n, edges):
    masks = [0] * n
    for a, b in edges:
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return masks


def test_class_count_is_the_length_of_the_walk(rng):
    for _ in range(200):
        n = rng.randint(1, 7)
        edges = _random_edges(rng, n, rng.uniform(0.2, 0.7))
        movable = {v for v in range(n) if rng.random() < 0.7}
        walk = list(push_class_representatives(n, edges, movable))
        assert push_class_count(n, edges, movable) == len(walk)


def test_forest_is_the_star_on_complete_graphs():
    for k in range(1, 7):
        edges = [(a, b) for a in range(k) for b in range(a + 1, k)]
        forest = class_coordinates(k, edges, range(k)).forest
        assert forest == tuple((0, v) for v in range(1, k))


def test_forest_roots_and_normalization(rng):
    for _ in range(60):
        n = rng.randint(1, 9)
        edges = _random_edges(rng, n, 0.3)
        masks = _masks(n, edges)
        movable = {v for v in range(n) if rng.random() < 0.7}
        for mov in (range(n), movable):
            forest = class_coordinates(n, edges, mov).forest
            children = [v for _, v in forest]
            assert len(set(children)) == len(children)
            roots = [v for v in range(n) if v not in children]
            assert set(range(n)).difference(mov) <= set(roots)
            # every forest arc is an edge, and its parent is reached first
            reached = set(roots)
            for p, v in forest:
                assert masks[p] >> v & 1 and p in reached
                reached.add(v)
            assert reached == set(range(n))
        g = pc.OrientedGraph(
            n, tuple((a, b) if rng.random() < 0.5 else (b, a) for a, b in edges)
        )
        forest = class_coordinates(n, edges, range(n)).forest
        x = normalizing_pushes(n, forest, g.arc_set)
        pushed = pc.push_vertices(g, {v for v in range(n) if x[v]})
        assert all(arc in pushed.arc_set for arc in forest)
        assert not any(x[v] for v in range(n) if v not in {c for _, c in forest})


def test_class_coordinates_name_the_normalized_class(rng):
    # an orientation's class is the base xor the masks of its lo -> hi
    # edges: the co-forest bits that normalizing pushes leave
    for _ in range(80):
        n = rng.randint(2, 8)
        edges = _random_edges(rng, n, 0.5)
        movable = {v for v in range(n) if rng.random() < 0.7}
        coords = class_coordinates(n, edges, movable)
        classes = [coords.arcs(bits) for bits in range(1 << len(coords.free))]
        assert list(push_class_representatives(n, edges, movable)) == classes
        assert sorted(coords.masks) == edges
        for _ in range(4):
            g = pc.OrientedGraph(
                n, tuple(e if rng.random() < 0.5 else e[::-1] for e in edges)
            )
            x = normalizing_pushes(n, coords.forest, g.arc_set)
            pushed = pc.push_vertices(g, {v for v in range(n) if x[v]})
            bits = sum(1 << i for i, e in enumerate(coords.free) if e in pushed.arc_set)
            assert pushed.arc_set == frozenset(coords.arcs(bits))
            k = coords.base
            for e in edges:
                if e in g.arc_set:
                    k ^= coords.masks[e]
            assert k == bits
            assert coords.class_of(g.arc_set) == bits


def _reference_coordinates(n, edges, movable):
    """(forest, free, z masks, base) as class_coordinates and
    ClassCoordinates.masks/base computed them before they shared
    bfs_forest and subtree_masks: a BFS over a queue per component, the
    co-forest by set difference, and the subtree-xor pass over the forest
    arcs."""
    masks = _masks(n, edges)
    queue = sorted(set(range(n)).difference(movable))
    seen = sum(1 << v for v in queue)
    forest = []
    while True:
        for u in queue:
            new = masks[u] & ~seen
            seen |= new
            while new:
                w = (new & -new).bit_length() - 1
                new &= new - 1
                forest.append((u, w))
                queue.append(w)
        unseen = ((1 << n) - 1) & ~seen
        if not unseen:
            break
        anchor = unseen & -unseen
        seen |= anchor
        queue = [anchor.bit_length() - 1]
    tree = {(min(a), max(a)) for a in forest}
    free = sorted(set(edges).difference(tree))
    z = {}
    below = [0] * n
    for i, e in enumerate(free):
        z[e] = 1 << i
        below[e[0]] ^= 1 << i
        below[e[1]] ^= 1 << i
    for p, c in reversed(forest):
        z[min(p, c), max(p, c)] = below[c]
        below[p] ^= below[c]
    base = 0
    for p, c in forest:
        if p < c:
            base ^= z[p, c]
    return forest, free, z, base


def test_one_pass_coordinates_match_the_reference(rng):
    disconnected = 0
    for trial in range(200):
        n = rng.randint(1, 10)
        edges = _random_edges(rng, n, rng.choice((0.15, 0.3, 0.6)))
        movable = set(range(n)) if trial % 3 == 0 else {
            v for v in range(n) if rng.random() < 0.7
        }
        forest, free, z, base = _reference_coordinates(n, edges, movable)
        order, parent = bfs_forest(_masks(n, edges), set(range(n)).difference(movable))
        assert sorted(order) == list(range(n))
        assert [(parent[v], v) for v in order if parent[v] >= 0] == forest
        assert co_forest(edges, parent) == free
        zs, got_base = subtree_masks([c for _, c in forest], parent, free)
        assert got_base == base
        assert {(min(p, c), max(p, c)): zs[c] for p, c in forest} == {
            e: m for e, m in z.items() if e not in free
        }
        coords = class_coordinates(n, edges, movable)
        assert (list(coords.forest), list(coords.free)) == (forest, free)
        assert coords.masks == z and coords.base == base
        disconnected += not oriented_is_connected(pc.OrientedGraph(n, edges))
    assert disconnected >= 50


def test_affine_map_tables_match_plain_xor(rng):
    for width in (0, 1, 7, 8, 9, 17, 30):
        images = [rng.getrandbits(width + 3) for _ in range(width)]
        const = rng.getrandbits(width + 3)
        f = AffineMap(const, images)
        for _ in range(20):
            x = rng.getrandbits(width)
            plain = const
            for i, image in enumerate(images):
                if x >> i & 1:
                    plain ^= image
            assert f(x) == plain


def test_relabel_map_carries_classes(rng):
    # for an automorphism perm, class k goes to the class of the relabeled
    # normalized orientation of k, whether every vertex or none is movable
    for _ in range(60):
        n = rng.randint(2, 8)
        edges = _random_edges(rng, n, rng.choice((0.3, 0.5, 0.8)))
        _, _, gens = canonical_data(tuple(_masks(n, edges)))
        for movable in (range(n), ()):
            coords = class_coordinates(n, edges, movable)
            for perm in gens:
                image = coords.relabel_map(perm)
                for _ in range(4):
                    k = rng.getrandbits(len(coords.free))
                    moved = {(perm[t], perm[h]) for t, h in coords.arcs(k)}
                    assert image(k) == coords.class_of(moved)
