"""Push classes over GF(2): the spanning forest, the normalizer and the
parity-constrained class enumeration, against direct oracles."""

from __future__ import annotations

from collections import deque

import pytest

import pushcrit as pc
from pushcrit.errors import IncompatibleInputError
from pushcrit.graph import forward_parity
from pushcrit.orient import (
    class_coordinates,
    normalizing_pushes,
    push_class_count,
    push_class_representatives,
    spanning_forest,
)


def _random_edges(rng, n, p):
    return [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]


def _masks(n, edges):
    masks = [0] * n
    for a, b in edges:
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return masks


def _random_cycle(rng, masks, edges):
    """A cycle through a random edge (a, b): b to a by BFS without the
    edge, closed by a -> b; rotated and reversed at random.  None on a
    bridge."""
    a, b = rng.choice(edges)
    if rng.random() < 0.5:
        a, b = b, a
    parent = {b: None}
    queue = deque([b])
    while queue and a not in parent:
        u = queue.popleft()
        for w in range(len(masks)):
            if masks[u] >> w & 1 and w not in parent and (u, w) != (b, a):
                parent[w] = u
                queue.append(w)
    if a not in parent:
        return None
    cycle = [a]
    while cycle[-1] != b:
        cycle.append(parent[cycle[-1]])
    cycle.reverse()  # b ... a, closed by a -> b
    turn = rng.randrange(len(cycle))
    cycle = cycle[turn:] + cycle[:turn]
    return tuple(cycle[::-1] if rng.random() < 0.5 else cycle)


def test_constrained_classes_equal_the_filtered_enumeration(rng):
    proper = contradictory = counted = 0
    for trial in range(400):
        n = rng.randint(3, 7)
        edges = _random_edges(rng, n, rng.uniform(0.4, 0.7))
        if not edges:
            continue
        masks = _masks(n, edges)
        movable = {v for v in range(n) if rng.random() < 0.7}
        fixed = [
            (a, b) if rng.random() < 0.5 else (b, a)
            for a, b in edges
            if a not in movable and b not in movable and rng.random() < 0.5
        ]
        cycles = [_random_cycle(rng, masks, edges) for _ in range(rng.randint(0, 4))]
        walks = [c for c in cycles if c is not None]
        if walks:
            # redundant: a repeat, and the sum of two closed walks from one
            # vertex beside both
            first = walks[0]
            other = _random_cycle(rng, masks, edges)
            if other is not None and first[0] in other:
                i = other.index(first[0])
                other = other[i:] + other[:i]
                walks += [first, other, first + other]
            else:
                walks.append(first)
        if trial % 5 == 0:
            # crossing one edge there and back has odd forward parity in
            # every orientation
            a, b = rng.choice(edges)
            walks.insert(rng.randint(0, len(walks)), (a, b))
        got = list(
            push_class_representatives(n, edges, movable, fixed, even_cycles=walks)
        )
        every = list(push_class_representatives(n, edges, movable, fixed))
        expected = [
            arcs
            for arcs in every
            if all(forward_parity(pc.OrientedGraph(n, arcs), w) == 0 for w in walks)
        ]
        assert got == expected, (n, edges, movable, fixed, walks)
        if not fixed:
            assert push_class_count(n, edges, movable) == len(every)
            counted += 1
        if trial % 5 == 0:
            assert got == []
            contradictory += 1
        proper += 0 < len(got) < len(every)
    assert contradictory >= 60 and proper >= 50 and counted >= 100, counted


def test_constraint_off_the_graph_is_rejected():
    with pytest.raises(IncompatibleInputError):
        list(push_class_representatives(3, [(0, 1), (1, 2)], range(3),
                                        even_cycles=[(0, 1, 2)]))


def test_forest_is_the_star_on_complete_graphs():
    for k in range(1, 7):
        edges = [(a, b) for a in range(k) for b in range(a + 1, k)]
        assert spanning_forest(k, edges, range(k)) == [(0, v) for v in range(1, k)]


def test_forest_roots_and_normalization(rng):
    for _ in range(60):
        n = rng.randint(1, 9)
        edges = _random_edges(rng, n, 0.3)
        masks = _masks(n, edges)
        movable = {v for v in range(n) if rng.random() < 0.7}
        for mov in (range(n), movable):
            forest = spanning_forest(n, edges, mov)
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
        forest = spanning_forest(n, edges, range(n))
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
        fixed = [
            (a, b) if rng.random() < 0.5 else (b, a)
            for a, b in edges
            if a not in movable and b not in movable and rng.random() < 0.5
        ]
        coords = class_coordinates(n, edges, movable, fixed)
        classes = [coords.arcs(bits) for bits in range(1 << len(coords.free))]
        assert list(push_class_representatives(n, edges, movable, fixed)) == classes
        loose = [e for e in edges if e not in {(min(a), max(a)) for a in fixed}]
        assert sorted(coords.masks) == sorted(loose)
        for _ in range(4):
            g = pc.OrientedGraph(n, tuple(fixed) + tuple(
                e if rng.random() < 0.5 else e[::-1] for e in loose
            ))
            x = normalizing_pushes(n, coords.forest, g.arc_set)
            pushed = pc.push_vertices(g, {v for v in range(n) if x[v]})
            bits = sum(1 << i for i, e in enumerate(coords.free) if e in pushed.arc_set)
            assert pushed.arc_set == frozenset(coords.arcs(bits))
            k = coords.base
            for e in loose:
                if e in g.arc_set:
                    k ^= coords.masks[e]
            assert k == bits
