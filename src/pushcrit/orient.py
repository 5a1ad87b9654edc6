"""Push classes of orientations, decided over GF(2).

Pushing a set S reverses exactly the arcs crossing S, so pushes act
linearly on direction bits.  Every push-class question is answered here
from one spanning forest: BFS from all non-movable vertices at once, then
from the lowest unvisited vertex of each remaining component, neighbors
in ascending order (on K_k, the star at 0).  Forcing each forest arc to
point from parent to child fixes the pushes child by child, up to pushing
whole all-movable components, which changes nothing; so each class holds
one normalized orientation, named by its co-forest direction bits.
Normalizing is linear too: reversing an edge e changes the class by a
fixed vector z_e, so the class of any orientation is one base vector
xor the z_e of its edges that point lo -> hi (``ClassCoordinates``).

Each closed walk a caller requires to have even forward parity (a push
invariant) is one GF(2) equation over the co-forest bits.  Gaussian
elimination brings them to fully reduced rows with the pivot at each
row's lowest bit, so a pivot bit depends only on higher, free bits, and
between two solutions the highest differing bit is free.  Counting
through the free bits in ascending order therefore yields the classes in
ascending order of their bit vectors, the order of the unconstrained walk
with the violating classes left out.  A contradictory system has no
classes; otherwise there are 2^(free - rank).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable, Sequence

from .errors import IncompatibleInputError
from .graph import Arc, OrientedGraph, push_vertices


def spanning_forest(n: int, edges: Iterable[Arc], movable: Iterable[int]):
    """Forest arcs (parent, child) of the graph on ``edges``, in BFS order
    from the non-movable vertices, then from each remaining component's
    lowest vertex."""
    masks = [0] * n
    for a, b in edges:
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    roots = sorted(set(range(n)).difference(movable))
    seen = sum(1 << v for v in roots)
    queue = deque(roots)
    forest: list[Arc] = []
    for anchor in range(n + 1):
        while queue:
            u = queue.popleft()
            new = masks[u] & ~seen
            seen |= new
            while new:
                w = (new & -new).bit_length() - 1
                new &= new - 1
                forest.append((u, w))
                queue.append(w)
        if anchor < n and not seen >> anchor & 1:
            seen |= 1 << anchor
            queue.append(anchor)
    return forest


def normalizing_pushes(n: int, forest: Sequence[Arc], arcs: Collection[Arc]):
    """Push indicators x (x[v] = 1: push v) under which every forest arc of
    the orientation ``arcs`` points from parent to child; roots stay put."""
    x = [0] * n
    for p, v in forest:
        x[v] = x[p] ^ ((p, v) not in arcs)
    return x


def is_push_equivalent(g: OrientedGraph, h: OrientedGraph):
    """Return a push set carrying ``g`` onto ``h``, or None.

    Requires identical labeled underlying graphs.  Both are normalized on
    one forest; they are push equivalent exactly when the normal forms
    agree, and then the two push sets together carry ``g`` onto ``h``.
    """
    if g.vertex_count != h.vertex_count or g.edge_set != h.edge_set:
        raise IncompatibleInputError("graphs must share vertices and underlying edges")
    n = g.vertex_count
    forest = spanning_forest(n, g.edges, range(n))
    xg = normalizing_pushes(n, forest, g.arc_set)
    xh = normalizing_pushes(n, forest, h.arc_set)
    s = frozenset(v for v in range(n) if xg[v] != xh[v])
    return s if push_vertices(g, s).arc_set == h.arc_set else None


@dataclass(frozen=True)
class ClassCoordinates:
    """The coordinates of one labeled graph's push classes.

    A class is a bit vector over ``free``, the co-forest edges (lo, hi) in
    ascending order: bit i is 1 when free[i] points lo -> hi in the class's
    normalized orientation, in which every ``forest`` arc points from
    parent to child and every fixed arc is as given.
    """

    forest: tuple[Arc, ...]
    determined: tuple[Arc, ...]  # fixed arcs, then forest arcs, by edge
    free: tuple[Arc, ...]

    def arcs(self, bits: int) -> tuple[Arc, ...]:
        """The normalized orientation of class ``bits``."""
        return self.determined + tuple(
            e if bits >> i & 1 else e[::-1] for i, e in enumerate(self.free)
        )

    @cached_property
    def masks(self) -> dict[Arc, int]:
        """z_e for each non-fixed edge e = (lo, hi): the class change caused
        by reversing e.  Bit i is set iff e is free[i] itself or a forest
        edge on exactly one of the paths from free[i]'s ends to their roots
        (on a tree, free[i]'s fundamental cycle)."""
        up = {c: (p, (p, c) if p < c else (c, p)) for p, c in self.forest}
        masks = dict.fromkeys((e for _, e in up.values()), 0)
        for i, (lo, hi) in enumerate(self.free):
            masks[lo, hi] = 1 << i
            for v in (lo, hi):
                while v in up:
                    v, e = up[v]
                    masks[e] ^= 1 << i
        return masks

    @cached_property
    def base(self) -> int:
        """The class of the orientation with every non-fixed edge hi -> lo.
        An orientation's class is ``base`` xor the masks of its non-fixed
        edges that point lo -> hi."""
        base = 0
        for p, c in self.forest:
            if p < c:
                base ^= self.masks[p, c]
        return base


def class_coordinates(
    n: int, edges: Sequence[Arc], movable: Iterable[int], fixed_arcs: Sequence[Arc] = ()
) -> ClassCoordinates:
    """The class coordinates of the graph on underlying (lo, hi) ``edges``
    under pushing ``movable``; ``fixed_arcs`` predetermine the direction of
    some edges and must not touch movable vertices."""
    movable = set(movable)
    if any(v in movable for arc in fixed_arcs for v in arc):
        raise IncompatibleInputError("predetermined arcs must avoid movable vertices")
    fixed = {(min(t, h), max(t, h)): (t, h) for t, h in fixed_arcs}
    forest = spanning_forest(n, [e for e in edges if e not in fixed], movable)
    pivots = {(min(p, c), max(p, c)): (p, c) for p, c in forest}
    edge_set = {(min(t, h), max(t, h)) for t, h in edges}
    free = sorted(edge_set - fixed.keys() - pivots.keys())
    determined = [fixed[e] for e in sorted(fixed)] + [pivots[e] for e in sorted(pivots)]
    return ClassCoordinates(tuple(forest), tuple(determined), tuple(free))


def _class_space(n, edges, movable, fixed_arcs, even_cycles):
    """(coordinates, start, columns), or None when the constraints
    contradict.  The classes are ``start`` xor each subset of ``columns``."""
    coords = class_coordinates(n, edges, movable, fixed_arcs)
    index = {e: i for i, e in enumerate(coords.free)}
    known = {(min(t, h), max(t, h)): (t, h) for t, h in coords.determined}
    rows: dict[int, tuple[int, int]] = {}  # pivot -> (mask, parity), fully reduced
    for walk in even_cycles:
        mask = parity = 0
        for u, v in zip(walk, walk[1:] + walk[:1]):
            e = (min(u, v), max(u, v))
            if e in index:  # forward when the bit says lo -> hi and u is lo
                mask ^= 1 << index[e]
                parity ^= u > v
            elif e in known:
                parity ^= known[e] == (u, v)
            else:
                raise IncompatibleInputError(f"({u},{v}) is not an edge")
        for p, (m, c) in rows.items():
            if mask >> p & 1:
                mask, parity = mask ^ m, parity ^ c
        if not mask:
            if parity:
                return None
            continue
        pivot = (mask & -mask).bit_length() - 1
        for p, (m, c) in rows.items():
            if m >> pivot & 1:
                rows[p] = (m ^ mask, c ^ parity)
        rows[pivot] = (mask, parity)
    start = sum(c << p for p, (_, c) in rows.items())
    # setting free bit i flips it and every pivot whose row holds it
    columns = [
        (1 << i) | sum(1 << p for p, (m, _) in rows.items() if m >> i & 1)
        for i in range(len(coords.free))
        if i not in rows
    ]
    return coords, start, columns


def push_class_representatives(
    n: int,
    edges: Sequence[Arc],
    movable: Iterable[int],
    fixed_arcs: Sequence[Arc] = (),
    even_cycles: Iterable[Sequence[int]] = (),
):
    """Yield one arc tuple per orientation class under pushing ``movable``,
    each the normalized orientation ``ClassCoordinates.arcs`` gives, in
    ascending order of the class bits.

    ``edges`` are underlying (lo, hi) pairs; ``fixed_arcs`` predetermine
    the direction of some of them and must not touch movable vertices.
    Only classes in which every closed walk of ``even_cycles`` has even
    forward parity are yielded.
    """
    space = _class_space(n, edges, movable, fixed_arcs, even_cycles)
    if space is None:
        return
    coords, start, columns = space
    for t in range(1 << len(columns)):
        bits = start
        for j, column in enumerate(columns):
            if t >> j & 1:
                bits ^= column
        yield coords.arcs(bits)


def push_class_count(n: int, edges: Sequence[Arc], movable: Iterable[int]) -> int:
    """How many arc tuples ``push_class_representatives`` yields without
    fixed arcs or constraints: 2^(free edges)."""
    return 1 << len(class_coordinates(n, edges, movable).free)
