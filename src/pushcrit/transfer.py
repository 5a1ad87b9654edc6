"""Chain transfer: the pushable 3-coloring image of a graph from colorings
of a few kept vertices.

A pushable 3-coloring is a homomorphism to AT(C3) = K_{2,2,2}.  Projected,
it is a proper coloring c: V -> Z3 together with a push set that carries
the orientation onto a(c), where u -> v iff c(v) = c(u) + 1.  So an
orientation is colorable exactly when its class lies in the image Im of
the classes of a(c) over the proper c (``orient.ClassCoordinates``; every
vertex movable).  Shifting every color leaves a(c) as it is, so the first
kept vertex takes color 0.

The caller passes a ``chains.Kernel``: the graph as its kept vertices
joined by chains, paths through vertices of degree 2, a loop when both
ends are equal.  Pushing an internal vertex of a chain reverses its two
edges, so every edge of a chain changes the class by the same vector
z_chain.

Transfer lemma.  Take a chain of L edges from u to w, and let
Delta = c(w) - c(u).  Each edge of a proper coloring steps the color by
+1 (the edge points towards w in a(c)) or by +2, so the number f of such
forward edges has f = 2L - Delta (mod 3), 0 <= f <= L, and every such f
occurs.  Relative to the chain oriented u -> w, a(c) adds
((L - f) mod 2) * z_chain to the class.  So Im is the union, over the
colorings of the kept vertices, of the sumset of each chain's allowed
parities of f (``transfer_parities``).  At L >= 5 both f = r and r + 3 fit
for every residue r, so both parities occur for every Delta: the chain
lemma.

Mono lemma.  Deleting the arc on edge e leaves a graph whose colorings
project to maps proper on G - e.  Those monochromatic on e give Mono_e,
the classes of a(c) with e's bit taking both values.  On a chain, the
other L - 1 edges are proper with f' = 2(L - 1) - Delta (mod 3),
0 <= f' <= L - 1 forward edges, and e's free bit makes both parities
occur.  So Mono_e is the same for every edge of a chain: the image with
that chain allowing both parities when some such f' exists
(``transfer_parities(L - 1, Delta)`` is not empty), and banning Delta
otherwise.

Criticality.  A class k is critical when it is not colorable but each arc
deletion is.  A coloring of the deletion on edge e is either proper on G,
so k or k xor z_e is in Im, or monochromatic on e alone, so k lies in
Mono_e.  So k is critical iff k is not in Im and, for every chain, k xor
z_chain is in Im or k is in Mono_chain.  The candidate classes are those
the first chain asked admits; each later Mono is enumerated only when
some remaining candidate needs it.

Negation lemma.  c -> -c keeps a map proper (and a Mono map a Mono map of
the same chain) and keeps c(0) = 0.  It reverses every edge of a(c), which
adds every edge's z: F, the xor of z_chain over the chains of odd length.
So Im and every Mono are closed under xor F.  Among the maps whose first
nonzero position is i, those with c(i) = 2 are the negations of those with
c(i) = 1; so along the all-zero prefix a position that may take 1 (and
then also 2) takes only 1, and the result is closed under F afterwards.

Tail-Mono lemma.  A chain's table enters the walk only at its later end,
and a Mono map of a chain of one edge colors both ends alike: exactly the
color that the chain's own table bans.  So that table puts the chain's
free bit on the color it bans.  On the last two positions the walk also
takes a color that one chain alone bans, unless the option already
carries such a bit; the option then carries the chain's bit, and every
leaf below it (the last position takes every chain's own table) is a
Mono leaf of that chain with its bit free.  A longer chain bans no color
on its own table (``transfer_parities`` is never empty for L >= 2), so
one walk gives Im and the Mono of every one-edge chain that ends on the
last two positions.  The Mono of a longer chain, or of a chain ending
earlier, takes a walk of its own, and the criticality test asks the tail
chains first.

One depth-first walk computes every image.  It colors the kept vertices
in the order of the class forest's BFS.  Each chain is a table over the
earlier end's color: the colors it bans at the later end and what each
color there adds, a fixed z or the chain's free bit (a chain of one edge
bans the earlier end's color, adds z to one option, as a plain edge does,
and its free bit to the banned one).  A walk state is then a coset, the
accumulated class together with a set of free chains, packed into one int
above the class bits, and the cosets are expanded at the end.
"""

from __future__ import annotations

from functools import cached_property

from .chains import Kernel
from .errors import IncompatibleInputError
from .orient import ClassCoordinates, bfs_forest, class_coordinates, co_forest, subtree_masks

_UNBANNED = tuple(tuple(x for x in range(3) if not banned >> x & 1) for banned in range(8))


def transfer_parities(length: int, delta: int) -> frozenset[int]:
    """The parities of the forward-edge count f of the proper colorings of
    a path of ``length`` edges whose far end's color is the near end's
    plus ``delta``: f = 2 length - delta (mod 3), 0 <= f <= length."""
    return frozenset(
        f % 2 for f in range(length + 1) if (2 * length - delta - f) % 3 == 0
    )


# transfer_parities(L, delta) for L = 0..5; from L = 5 on, both parities
# occur for every delta (the chain lemma)
_PARITIES = tuple(tuple(transfer_parities(L, d) for d in range(3)) for L in range(6))


def _coloring_image(lists, start: int, flip: int, marks: int = 0) -> set[int]:
    """The packed cosets of a(c) over the maps c: positions -> Z3 with
    c(0) = 0 that satisfy every listed table, closed under xor ``flip``
    (the negation lemma).

    ``lists[i]`` holds (j, table) for each chain between position i and an
    earlier position j: ``table[c(j)]`` is (the colors i may not take, then
    what each color of i adds).  The walk starts from ``start``.

    ``marks`` holds the free bits of the tail chains, each on the color its
    chain bans: on the last two positions a color that one chain alone
    bans is taken too, once per leaf (the tail-Mono lemma).
    """
    size = len(lists)
    last = size - 1
    if last == 0:
        return {start}
    tail_from = size - 2 if marks else size
    colors = [0] * size
    stack = []
    # the pre-walk along the all-zero prefix, halved by negation
    acc = start
    stop = max(1, min(tail_from, last))
    for i in range(1, stop):
        banned = 0
        o0 = o1 = acc
        for _, table in lists[i]:
            ban, a0, a1, _ = table[0]
            banned |= ban
            o0 ^= a0
            o1 ^= a1
        if not banned & 2:
            stack.append((i, 1, o1))
        if banned & 1:
            break
        acc = o0
    else:
        stack.append((stop - 1, 0, acc))
    found = set()
    while stack:
        i, color, acc = stack.pop()
        colors[i] = color
        i += 1
        o0 = o1 = o2 = acc
        banned = twice = 0
        for j, table in lists[i]:
            ban, a0, a1, a2 = table[colors[j]]
            twice |= banned & ban
            banned |= ban
            o0 ^= a0
            o1 ^= a1
            o2 ^= a2
        if i >= tail_from and not acc & marks:
            banned = twice
        opts = (o0, o1, o2)
        if i == last:
            for x in _UNBANNED[banned]:
                found.add(opts[x])
        else:
            for x in _UNBANNED[banned]:
                stack.append((i, x, opts[x]))
    return found | {v ^ flip for v in found}


class ChainGraph:
    """The connected graph of a ``chains.Kernel``, whose checks are the
    only ones on its input: the caller passes a checked kernel
    (``Kernel.of``, ``Kernel.subdivided``).

    ``coords`` names the push classes (every vertex movable), ``image``
    holds the colorable ones and ``critical_classes`` the critical ones.
    Each chain is (u, w, L, z, s), in the order of the kernel's paths:
    walked from u to w it has L edges, and a coloring adds z to the class
    when its forward-edge count has parity 1 ^ s.  A chain of one edge is
    (lo, hi, 1, z_e, 0), whichever way its path runs.

    The orientation ``arcs`` is colorable exactly when
    ``coords.class_of(arcs) in image``.  ``coords`` is built only when it
    is read, to name a class or a class's arcs.  The walk takes its order
    (the BFS order, restricted to the kept vertices), every edge's z and
    the base from one BFS over the adjacency masks and one subtree pass
    (``orient.bfs_forest``, ``orient.subtree_masks``): the same forest and
    the same class bits as ``coords``.
    """

    def __init__(self, kernel: Kernel):
        self.n = n = kernel.n
        # the (lo, hi) edges, path by path: the coordinates may read them later
        self.edges = edges = []
        adj = [0] * n
        for path in kernel.paths:
            if len(path) == 2:
                a, b = path
                edges.append(path if a < b else (b, a))
            else:
                edges += [(a, b) if a < b else (b, a) for a, b in zip(path, path[1:])]
        for lo, hi in edges:
            adj[lo] |= 1 << hi
            adj[hi] |= 1 << lo
        order, parent = bfs_forest(adj)
        if parent.count(-1) != 1:
            raise IncompatibleInputError("the graph must be connected")
        free = co_forest(edges, parent)
        z, self._base = subtree_masks(order[1:], parent, free)
        self.width = len(free)
        bits = {e: 1 << i for i, e in enumerate(free)}
        self.chains = chains = []
        for path in kernel.paths:
            u, w = path[0], path[-1]
            lo, hi = (u, path[1]) if u < path[1] else (path[1], u)
            # every edge of a chain has its first edge's z; a forest
            # edge's z sits on its child end
            z_e = z[hi] if parent[hi] == lo else z[lo] if parent[lo] == hi else bits[lo, hi]
            if len(path) == 2:
                chains.append((lo, hi, 1, z_e, 0))
            else:
                backward = sum(a > b for a, b in zip(path, path[1:])) % 2
                chains.append((u, w, len(path) - 1, z_e, backward))
        # a vertex that is not kept lies inside a chain of two or more edges
        self.long = len(kernel.kept) < n
        if self.long:
            order = [v for v in order if v in kernel.kept]
        self.size = len(order)
        self.pos = pos = [-1] * n
        for i, v in enumerate(order):
            pos[v] = i
        walk = self._walk_lists()
        # the free bits of the tail chains, and tail chain t -> the leaves
        # of its Mono, both from the image walk
        self._marks = 0
        self._tails: dict[int, set[int]] = {}
        image = set()
        if walk is not None:
            self._marks = marks = walk[3]
            width = self.width
            for v in _coloring_image(*walk):
                mark = v & marks
                if mark:
                    self._tails.setdefault(mark.bit_length() - 1 - width, set()).add(v)
                else:
                    image.add(v)
        self.image = self._expand(image) if self.long else image

    @cached_property
    def coords(self) -> ClassCoordinates:
        return class_coordinates(self.n, self.edges, range(self.n))

    def _table(self, t: int, mono: bool):
        """Per color of chain t's earlier end: (banned colors, then what
        each color of its later end adds), for a longer chain or, with
        ``mono``, any chain.  With ``mono``, the Mono table of the other
        L - 1 edges, whose allowed cases set the free bit."""
        u, w, length, z, s = self.chains[t]
        free = 1 << (self.width + t)
        forward = self.pos[u] <= self.pos[w]
        if length == 1:
            # a Mono map colors both ends alike, its bit free
            return ((6, free, 0, 0), (5, 0, free, 0), (3, 0, 0, free))
        out = []
        for cj in range(3):
            ban = 0
            adds = []
            for x in range(3):
                delta = (x - cj) % 3 if forward else (cj - x) % 3
                parities = _PARITIES[min(length - mono, 5)][delta]
                if not parities:
                    ban |= 1 << x
                    adds.append(0)
                elif mono or len(parities) == 2:
                    adds.append(free)
                else:
                    adds.append(0 if s in parities else z)
            out.append((ban, *adds))
        return tuple(out)

    def _walk_lists(self, mono_chain: int = -1):
        """(lists, start, flip, marks) for ``_coloring_image``, with chain
        ``mono_chain`` on its Mono table; None when a loop admits no
        coloring."""
        pos = self.pos
        tail_from = self.size - 2
        first_free = 1 << self.width
        lists = [[] for _ in range(self.size)]
        start = self._base
        flip = marks = 0
        for t, (u, w, length, z, _) in enumerate(self.chains):
            i, j = pos[u], pos[w]
            free = first_free << t
            if length & 1:
                flip ^= z
            if length == 1 and t != mono_chain:
                # the edge (lo, hi) points lo -> hi when c(hi) = c(lo) + 1;
                # its free bit sits on the color it bans
                if i < j:
                    table = ((1, free, z, 0), (2, 0, free, z), (4, z, 0, free))
                else:
                    table = ((1, free, 0, z), (2, z, free, 0), (4, 0, z, free))
            else:
                table = self._table(t, t == mono_chain)
                if i == j:
                    # a loop: Delta = 0 whatever the colors
                    ban, add, _, _ = table[0]
                    if ban & 1:
                        return None
                    start ^= add
                    continue
            if i < j:
                i, j = j, i
            lists[i].append((j, table))
            if length == 1 and i >= tail_from:
                marks |= free
        return lists, start, flip, marks

    def _expand(self, packed: set[int]) -> set[int]:
        """The classes of the packed cosets."""
        width = self.width
        low = (1 << width) - 1
        spans: dict[int, list[int]] = {}
        out = set()
        for v in packed:
            free = v >> width
            span = spans.get(free)
            if span is None:
                span = [0]
                for t, chain in enumerate(self.chains):
                    if free >> t & 1:
                        span += [k ^ chain[3] for k in span]
                spans[free] = span
            acc = v & low
            out.update(acc ^ k for k in span)
        return out

    def mono(self, t: int) -> set[int]:
        """Mono of chain t, its bit taking both values.  The maps proper
        on all of G are left out: they add only classes whose z-reversal
        is in Im, which the criticality test looks at first."""
        if self._marks >> (self.width + t) & 1:
            found = self._tails.get(t, set())
        else:
            walk = self._walk_lists(t)
            found = set() if walk is None else _coloring_image(*walk[:3])
        if self.long:
            return self._expand(found)
        # every leaf carries chain t's free bit, which takes both values
        z = self.chains[t][3]
        low = (1 << self.width) - 1
        found = {v & low for v in found}
        return found | {k ^ z for k in found}

    def critical_classes(self) -> list[int]:
        """The pushably 3-critical classes, ascending."""
        image = self.image
        if len(image) == 1 << self.width:
            return []
        marks = self._marks >> self.width
        first, *rest = sorted(range(len(self.chains)), key=lambda t: not marks >> t & 1)
        z = self.chains[first][3]
        candidates = ({k ^ z for k in image} | self.mono(first)) - image
        for t in rest:
            if not candidates:
                break
            z = self.chains[t][3]
            pending = {k for k in candidates if k ^ z not in image}
            if pending:
                candidates -= pending - self.mono(t)
        return sorted(candidates)

