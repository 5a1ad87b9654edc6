"""Chain transfer: the pushable 3-coloring image of a graph from colorings
of a few kept vertices.

A pushable 3-coloring is a homomorphism to AT(C3) = K_{2,2,2}.  Projected,
it is a proper coloring c: V -> Z3 together with a push set that carries
the orientation onto a(c), where u -> v iff c(v) = c(u) + 1.  So an
orientation is colorable exactly when its class lies in the image Im of
the classes of a(c) over the proper c (``orient.ClassCoordinates``; every
vertex movable).  Shifting every color leaves a(c) as it is, so the first
kept vertex takes color 0.

The caller names the kept vertices; every other vertex has degree 2.
The graph is then its kept vertices joined by chains: paths through
non-kept vertices, a loop when both ends are the same kept vertex.
Pushing an internal vertex of a chain reverses its two edges, so every
edge of a chain changes the class by the same vector z_chain.

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
the first chain admits; each later Mono is enumerated only when some
remaining candidate needs it.

One depth-first walk computes every image.  It colors the kept vertices
in the order of the class forest's BFS.  A chain of one edge bans the
earlier end's color and adds z to one option, as a plain edge does.  A
longer chain may ban colors, add a fixed z, or set the chain's free bit:
each walk state is then a coset, the accumulated class together with a
set of free chains, packed into one int above the class bits, and the
cosets are expanded at the end.
"""

from __future__ import annotations

from typing import Collection, Iterable, Sequence

from .errors import IncompatibleInputError
from .graph import Arc
from .orient import class_coordinates

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


def _coloring_image(earlier, chained, start: int, equal=None) -> set[int]:
    """The packed cosets of a(c) over the maps c: positions -> Z3 with
    c(0) = 0 that satisfy every listed entry.

    ``earlier[i]`` lists (j, d, z) for each one-edge chain from position i
    back to a position j < i: i may not take j's color, and taking color
    c(j) + d points that edge lo -> hi, which adds z to the class.
    ``chained[i]`` lists (j, effects) for each longer chain between i and
    j < i: ``effects[c(j)]`` is (banned colors, the int each color of i
    adds).  The walk starts from ``start``.  ``equal = (i, j)`` also forces
    position i to take j's color; the edge between them is left out of the
    lists.
    """
    last = len(earlier) - 1
    if last == 0:
        return {start}
    eq_i, eq_j = equal or (-1, -1)
    image = set()
    colors = [0] * len(earlier)
    stack = [(0, 0, start)]
    while stack:
        i, color, acc = stack.pop()
        colors[i] = color
        i += 1
        opts = [acc, acc, acc]
        banned = 0
        for j, d, z in earlier[i]:
            cj = colors[j]
            banned |= 1 << cj
            opts[(cj + d) % 3] ^= z
        if chained is not None:
            for j, effects in chained[i]:
                ban, adds = effects[colors[j]]
                banned |= ban
                opts[0] ^= adds[0]
                opts[1] ^= adds[1]
                opts[2] ^= adds[2]
        if i == eq_i:
            banned |= 7 ^ 1 << colors[eq_j]
        for x in _UNBANNED[banned]:
            if i == last:
                image.add(opts[x])
            else:
                stack.append((i, x, opts[x]))
    return image


class ChainGraph:
    """A connected graph on vertices 0..n-1 and underlying (lo, hi)
    ``edges``, seen as its ``kept`` vertices joined by chains.  Every
    vertex outside ``kept`` must have degree 2; as the graph is connected,
    every walk through such vertices then ends at a kept one.

    ``coords`` names the push classes (every vertex movable), ``image``
    holds the colorable ones and ``critical_classes`` the critical ones.
    Each chain is (u, w, L, z, s), in the order of its first edge in
    ``edges``: walked from u to w it has L edges, and a coloring adds z to
    the class when its forward-edge count has parity 1 ^ s.  A chain of
    one edge is (lo, hi, 1, z_e, 0).
    """

    def __init__(self, n: int, edges: Sequence[Arc], kept: Iterable[int]):
        self.coords = coords = class_coordinates(n, edges, range(n))
        if len(coords.forest) != n - 1:
            raise IncompatibleInputError("the graph must be connected")
        self.width = len(coords.free)
        masks = coords.masks
        order = [0] + [c for _, c in coords.forest]
        kept = set(kept)
        if len(kept) == n:
            # every edge is its own chain
            self.chains = [(lo, hi, 1, masks[lo, hi], 0) for lo, hi in edges]
            self.long = False
        else:
            order = [v for v in order if v in kept]
            if not order:
                raise IncompatibleInputError("no vertex is kept")
            self.chains = _chains(n, edges, kept, masks)
            self.long = any(chain[2] > 1 for chain in self.chains)
        self.size = len(order)
        self.pos = pos = [-1] * n
        for i, v in enumerate(order):
            pos[v] = i
        self._lists = lists = self._walk_lists()
        if lists is None:
            self.image = set()
        else:
            image = _coloring_image(*lists)
            self.image = self._expand(image) if self.long else image

    def _effects(self, t: int, mono: bool):
        """Per color of chain t's earlier end: (banned colors, what each
        color of its later end adds).  With ``mono``, the Mono table of
        the other L - 1 edges, whose allowed cases set the free bit."""
        u, w, length, z, s = self.chains[t]
        free = 1 << (self.width + t)
        forward = self.pos[u] <= self.pos[w]
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
            out.append((ban, tuple(adds)))
        return out

    def _walk_lists(self, mono_chain: int = -1):
        """(earlier, chained, start) for ``_coloring_image``, with chain
        ``mono_chain`` on its Mono table; None when a loop admits no
        coloring.  ``chained`` is None when every chain is one edge."""
        pos = self.pos
        earlier = [[] for _ in range(self.size)]
        chained = [[] for _ in range(self.size)] if self.long else None
        start = self.coords.base
        for t, (u, w, length, z, _) in enumerate(self.chains):
            i, j = pos[u], pos[w]
            if length == 1:
                # u = lo and w = hi; the edge points lo -> hi when
                # c(hi) = c(lo) + 1
                if i < j:
                    earlier[j].append((i, 1, z))
                else:
                    earlier[i].append((j, 2, z))
            elif i == j:
                # a loop: Delta = 0 whatever the colors
                ban, adds = self._effects(t, t == mono_chain)[0]
                if ban & 1:
                    return None
                start ^= adds[0]
            else:
                chained[max(i, j)].append((min(i, j), self._effects(t, t == mono_chain)))
        return earlier, chained, start

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
        u, w, length, z, _ = self.chains[t]
        if length > 1:
            lists = self._walk_lists(t)
            return set() if lists is None else self._expand(_coloring_image(*lists))
        if self._lists is None:
            return set()
        earlier, chained, start = self._lists
        i, j = self.pos[u], self.pos[w]
        if i < j:
            i, j = j, i
        lists = list(earlier)
        lists[i] = [entry for entry in earlier[i] if entry[0] != j]
        found = _coloring_image(lists, chained, start, (i, j))
        if self.long:
            found = self._expand(found)
        return found | {k ^ z for k in found}

    def colorable(self, arcs: Collection[Arc]) -> bool:
        """Whether the orientation ``arcs`` is pushably 3-colorable."""
        return self.coords.class_of(arcs) in self.image

    def critical_classes(self) -> list[int]:
        """The pushably 3-critical classes, ascending."""
        image = self.image
        if len(image) == 1 << self.width:
            return []
        z = self.chains[0][3]
        candidates = ({k ^ z for k in image} | self.mono(0)) - image
        for t in range(1, len(self.chains)):
            if not candidates:
                break
            z = self.chains[t][3]
            pending = {k for k in candidates if k ^ z not in image}
            if pending:
                candidates -= pending - self.mono(t)
        return sorted(candidates)


def _walk(prev: int, v: int, kept, nbrs) -> list[int]:
    """The vertices from v onwards, away from prev, up to a kept vertex;
    every vertex on the way has degree 2."""
    path = [v]
    while v not in kept:
        a, b = nbrs[v]
        prev, v = v, b if a == prev else a
        path.append(v)
    return path


def _chains(n: int, edges, kept, masks) -> list[tuple[int, int, int, int, int]]:
    """The chains between the ``kept`` vertices, in the order of their
    first edge; ``masks`` are the edges' z."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for lo, hi in edges:
        nbrs[lo].append(hi)
        nbrs[hi].append(lo)
    if any(len(nbrs[v]) != 2 for v in range(n) if v not in kept):
        raise IncompatibleInputError("every vertex that is not kept needs degree 2")
    chains = []
    seen = set()
    for lo, hi in edges:
        if lo in kept and hi in kept:
            chains.append((lo, hi, 1, masks[lo, hi], 0))
        elif (lo, hi) not in seen:
            path = _walk(hi, lo, kept, nbrs)[::-1] + _walk(lo, hi, kept, nbrs)
            steps = list(zip(path, path[1:]))
            seen.update((min(a, b), max(a, b)) for a, b in steps)
            length = len(steps)
            lo_hi = sum(a < b for a, b in steps)
            z = masks[min(path[:2]), max(path[:2])]
            chains.append((path[0], path[-1], length, z, (length + lo_hi) % 2))
    return chains
