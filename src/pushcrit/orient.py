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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable, Sequence

from .errors import IncompatibleInputError
from .graph import Arc, OrientedGraph, adjacency, push_vertices


def bfs_forest(adj: Sequence[int], roots: Iterable[int] = ()) -> tuple[list[int], list[int]]:
    """(order, parent): the spanning forest of the graph on adjacency masks
    ``adj``, by BFS from the ``roots`` at once, then from each remaining
    component's lowest vertex, neighbors in ascending order.  ``order``
    lists the vertices as they are reached; ``parent[v]`` is -1 on a root."""
    n = len(adj)
    parent = [-1] * n
    queue = sorted(roots)
    seen = sum(1 << v for v in queue)
    everyone = (1 << n) - 1
    order: list[int] = []
    while True:
        for u in queue:  # the queue grows while it is walked
            new = adj[u] & ~seen
            seen |= new
            while new:
                low = new & -new
                new ^= low
                w = low.bit_length() - 1
                parent[w] = u
                queue.append(w)
        order += queue
        unseen = everyone & ~seen
        if not unseen:
            return order, parent
        anchor = unseen & -unseen
        seen |= anchor
        queue = [anchor.bit_length() - 1]


def co_forest(edges: Iterable[Arc], parent: Sequence[int]) -> list[Arc]:
    """The (lo, hi) ``edges`` off the forest that ``parent`` names, ascending."""
    return sorted(e for e in edges if parent[e[1]] != e[0] and parent[e[0]] != e[1])


def subtree_masks(
    children: Sequence[int], parent: Sequence[int], free: Sequence[Arc]
) -> tuple[list[int], int]:
    """(z, base) of a forest and its co-forest edges ``free``, free[i] on
    class bit i; ``children`` are the forest's non-root vertices in BFS
    order.

    Reversing an edge e changes the class by z_e.  A free edge's z is its
    own bit.  A forest edge's z holds bit i iff exactly one end of free[i]
    lies below it (on a tree, free[i]'s fundamental cycle): the xor, over
    the subtree below it, of the free bits at each vertex, so one pass
    from the leaves up gives ``z[c]``, the z of the forest edge above c.
    ``base`` is the class of the orientation with every edge hi -> lo:
    the xor of z over the forest edges whose parent is the lower end.
    """
    z = [0] * len(parent)
    bit = 1
    for lo, hi in free:
        z[lo] ^= bit
        z[hi] ^= bit
        bit <<= 1
    base = 0
    for c in reversed(children):
        p = parent[c]
        zc = z[c]
        z[p] ^= zc
        if p < c:
            base ^= zc
    return z, base


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

    No library path calls it: it is the paper's push-equivalence relation
    as a public query, and the tests call it.
    """
    if g.vertex_count != h.vertex_count or g.edge_set != h.edge_set:
        raise IncompatibleInputError("graphs must share vertices and underlying edges")
    n = g.vertex_count
    forest = class_coordinates(n, g.edges, range(n)).forest
    xg = normalizing_pushes(n, forest, g.arc_set)
    xh = normalizing_pushes(n, forest, h.arc_set)
    s = frozenset(v for v in range(n) if xg[v] != xh[v])
    return s if push_vertices(g, s).arc_set == h.arc_set else None


class AffineMap:
    """x -> const ^ L(x) over GF(2), where L sends bit i to images[i].
    L is applied one byte of x at a time, through per-byte lookup tables."""

    __slots__ = ("const", "tables")

    def __init__(self, const: int, images: Sequence[int]):
        self.const = const
        tables = []
        for start in range(0, len(images), 8):
            table = [0]
            for image in images[start : start + 8]:
                table += [t ^ image for t in table]
            tables.append(table)
        self.tables = tuple(tables)

    def __call__(self, x: int) -> int:
        out = self.const
        for table in self.tables:
            out ^= table[x & 255]
            x >>= 8
        return out


@dataclass(frozen=True)
class ClassCoordinates:
    """The coordinates of one labeled graph's push classes.

    A class is a bit vector over ``free``, the co-forest edges (lo, hi) in
    ascending order: bit i is 1 when free[i] points lo -> hi in the class's
    normalized orientation, in which every ``forest`` arc points from
    parent to child.  The graph's vertices are 0..n-1.
    """

    n: int
    forest: tuple[Arc, ...]
    free: tuple[Arc, ...]

    @cached_property
    def determined(self) -> tuple[Arc, ...]:
        """The forest arcs in the order of their edges."""
        return tuple(sorted(self.forest, key=lambda a: (min(a), max(a))))

    def arcs(self, bits: int) -> tuple[Arc, ...]:
        """The normalized orientation of class ``bits``."""
        return self.determined + tuple(
            e if bits >> i & 1 else e[::-1] for i, e in enumerate(self.free)
        )

    @cached_property
    def _subtree(self) -> tuple[list[int], int]:
        parent = [-1] * self.n
        for p, c in self.forest:
            parent[c] = p
        return subtree_masks([c for _, c in self.forest], parent, self.free)

    @cached_property
    def masks(self) -> dict[Arc, int]:
        """z_e for each edge e = (lo, hi): the class change caused by
        reversing e (``subtree_masks``)."""
        z = self._subtree[0]
        masks = {e: 1 << i for i, e in enumerate(self.free)}
        for p, c in self.forest:
            masks[(p, c) if p < c else (c, p)] = z[c]
        return masks

    @property
    def base(self) -> int:
        """The class of the orientation with every edge hi -> lo.  An
        orientation's class is ``base`` xor the masks of its edges that
        point lo -> hi."""
        return self._subtree[1]

    def class_of(self, arcs: Collection[Arc]) -> int:
        """The class of the orientation ``arcs``: its free bits once pushed
        as ``normalizing_pushes`` says."""
        x = normalizing_pushes(self.n, self.forest, arcs)
        bits = 0
        for i, (lo, hi) in enumerate(self.free):
            bits |= (((lo, hi) in arcs) ^ x[lo] ^ x[hi]) << i
        return bits

    def relabel_map(self, perm: Sequence[int]) -> AffineMap:
        """The action on classes of relabeling v -> perm[v], an automorphism
        of the underlying graph that maps the movable vertices onto
        themselves.  Relabeling commutes with pushing, so it carries whole
        classes; flipping bit i reverses the image of free[i], which adds
        that edge's z_e."""
        const = self.class_of({(perm[t], perm[h]) for t, h in self.arcs(0)})
        masks = self.masks
        images = [masks[min(perm[a], perm[b]), max(perm[a], perm[b])] for a, b in self.free]
        return AffineMap(const, images)


def class_coordinates(n: int, edges: Sequence[Arc], movable: Iterable[int]) -> ClassCoordinates:
    """The class coordinates of the graph on underlying (lo, hi) ``edges``
    under pushing ``movable``."""
    order, parent = bfs_forest(adjacency(n, edges), set(range(n)).difference(movable))
    forest = tuple((parent[v], v) for v in order if parent[v] >= 0)
    return ClassCoordinates(n, forest, tuple(co_forest(edges, parent)))


def push_class_representatives(n: int, edges: Sequence[Arc], movable: Iterable[int]):
    """Yield one arc tuple per orientation class under pushing ``movable``,
    each the normalized orientation ``ClassCoordinates.arcs`` gives, in
    ascending order of the class bits.  ``edges`` are underlying (lo, hi)
    pairs."""
    coords = class_coordinates(n, edges, movable)
    for bits in range(1 << len(coords.free)):
        yield coords.arcs(bits)


def push_class_count(n: int, edges: Sequence[Arc], movable: Iterable[int]) -> int:
    """How many arc tuples ``push_class_representatives`` yields: 2^(free
    edges)."""
    return 1 << len(class_coordinates(n, edges, movable).free)
