"""Canonical forms under isomorphism and under isomorphism x push.

The underlying simple graph is canonically labeled by equitable-partition
refinement with individualization backtracking; leaves of the search are
complete labelings, the lexicographically least adjacency bitstring wins,
and pairs of leaves with equal certificates yield automorphism generators
(used to prune the search, and then to move the orientation).

The oriented canonical form then minimizes an encoding of the orientation
over every canonical labeling.  For the push-quotiented form the encoding
is the class of ``orient``: the BFS forest of the canonical graph is
forced to point from parent to child by pushing (which is always possible
and unique up to pushing whole components, an identity), and only the
co-forest direction bits remain.  Equal byte strings therefore mean
exactly "isomorphic after pushing some set".  The canonical labelings are
one labeling composed with the automorphisms of the canonical graph, and
relabeling commutes with pushing, so the encodings to minimize over are
the orbit of one class under the conjugated generators, each applied as an
affine map over GF(2).  The cost follows that orbit, at most
min(|Aut|, 2^bits), and never the order of the group.

The labeling depends only on the underlying graph, so the form is split
in two stages: a ``CanonicalLabeling`` holds everything that does not see
the orientation (the labeling, the canonical edges, and per mode the class
coordinates and the generators as class maps), and its ``form`` turns one
orientation into bytes: ``class_of`` names its class in canonical
coordinates and ``encode`` walks that class's orbit.  ``canonical_form``
and ``oriented_canonical_form`` build one for a single graph; a caller
with many orientations of one labeled graph builds it once.
"""

from __future__ import annotations

from collections import deque
from operator import getitem

from .errors import IncompatibleInputError
from .graph import OrientedGraph, masks_to_edges
from .orient import AffineMap, class_coordinates

_FORM_MAGIC_PUSH = b"P1"
_FORM_MAGIC_ISO = b"O1"


def _refinements(adj: tuple[int, ...], cells: list[list[int]]):
    """Equitable refinement, one split at a time: take the target cells in
    order, split every cell by its degree into the target, and after each
    target that splits something yield the new partition and start over
    from the first target.

    Starting over skips the targets that cannot split anything: once the
    partition is equitable to a target, every finer partition is too, so
    a cell is done from its first use as a target until it is split.
    Every split replaces a cell by its fragments in place, so cells never
    reorder.  The yielded lists are never changed afterwards."""
    done = [False] * len(cells)
    while True:
        wide = [i for i, cell in enumerate(cells) if len(cell) > 1]
        if not wide:
            return
        for t, target in enumerate(cells):
            if done[t]:
                continue
            done[t] = True
            tmask = 0
            for v in target:
                tmask |= 1 << v
            splits = {}
            for i in wide:
                degrees = [(adj[v] & tmask).bit_count() for v in cells[i]]
                if degrees.count(degrees[0]) != len(degrees):
                    splits[i] = degrees
            if splits:
                break
        else:
            return
        newcells = []
        newdone = []
        for i, cell in enumerate(cells):
            if i not in splits:
                newcells.append(cell)
                newdone.append(done[i])
                continue
            groups: dict[int, list[int]] = {}
            for v, d in zip(cell, splits[i]):
                groups.setdefault(d, []).append(v)
            newcells += (groups[d] for d in sorted(groups))
            newdone += [False] * len(groups)
        cells, done = newcells, newdone
        yield cells


def _refine(adj: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    """The equitable refinement of ``cells``: the last partition of
    ``_refinements``, or ``cells`` itself when nothing splits."""
    for cells in _refinements(adj, cells):
        pass
    return cells


def _leaf_cert(adj: tuple[int, ...], inv: list[int]) -> int:
    """Upper-triangle adjacency bits of the relabeled graph, as one int."""
    n = len(adj)
    bits = 0
    for p in range(n):
        row = adj[inv[p]]
        for q in range(p + 1, n):
            bits = bits << 1 | (row >> inv[q] & 1)
    return bits


def canonical_data(adj: tuple[int, ...], cells: list[list[int]] | None = None):
    """Canonically label the graph given as adjacency bitmasks.

    Returns (cert, labeling, generators): ``cert`` is the minimized
    upper-triangle bitstring as an int, ``labeling`` maps vertex -> canonical
    position, and ``generators`` generate the full automorphism group.

    The search starts from the root partition, the equitable refinement of
    the unit cell.  ``cells``, if given, must be a partition that
    ``_refinements`` yielded on its way there from the unit cell; the
    search then resumes from it, with the same result.  Resume lemma: a
    yielded partition is equitable to every target that the run had marked
    done, and so is every finer partition.  Refining it again, with no
    target marked, only rechecks those targets as well, and they split
    nothing; so each time it picks the run's next splitting target, and it
    makes the run's remaining splits in the same order.  The root partition
    is the same, and so are the search below it, the cert, the labeling
    and the generator list, in order.
    """
    n = len(adj)
    if n == 0:
        return 0, (), []
    best: dict = {"cert": None, "perm": None}
    first: dict = {"cert": None, "perm": None}
    gens: list[tuple[int, ...]] = []

    def recurse(cells: list[list[int]], prefix: list[int]):
        cells = _refine(adj, cells)
        target_idx = -1
        target_size = None
        for i, c in enumerate(cells):
            if len(c) > 1 and (target_size is None or len(c) < target_size):
                target_idx, target_size = i, len(c)
        if target_idx == -1:
            inv = [c[0] for c in cells]
            cert = _leaf_cert(adj, inv)
            if first["cert"] is None:
                first["cert"] = cert
                first["perm"] = inv[:]
            # two labelings with the same image graph give an automorphism;
            # harvesting against both the first and the best leaf is what
            # makes the generator set complete
            for ref in (first, best):
                if ref["cert"] == cert and ref["perm"] is not None:
                    perm_new = [0] * n
                    for pos, v in enumerate(inv):
                        perm_new[v] = pos
                    sigma = tuple(ref["perm"][perm_new[v]] for v in range(n))
                    if sigma != tuple(range(n)) and sigma not in gens:
                        gens.append(sigma)
                    break
            if best["cert"] is None or cert < best["cert"]:
                best["cert"] = cert
                best["perm"] = inv[:]
            return
        cell = cells[target_idx]
        # skip the vertices of an orbit already tried, under the generators
        # found so far that fix the prefix pointwise (a subgroup of the true
        # stabilizer, so pruning with it is conservative)
        tried: list[int] = []
        seen: set[int] = set()
        for v in sorted(cell):
            if v in seen:
                continue
            tried.append(v)
            newcells = (
                cells[:target_idx]
                + [[v], [u for u in cell if u != v]]
                + cells[target_idx + 1 :]
            )
            recurse(newcells, prefix + [v])
            stab = [g for g in gens if all(g[p] == p for p in prefix)]
            seen = set().union(*(orbit_of(u, stab, getitem) for u in tried))

    recurse([list(range(n))] if cells is None else cells, [])
    # ``recurse`` refers to itself through its closure; dropping the name
    # frees the search state now instead of at the next cyclic collection
    del recurse
    inv = best["perm"]
    labeling = [0] * n
    for pos, v in enumerate(inv):
        labeling[v] = pos
    return best["cert"], tuple(labeling), gens


def closure(n: int, gens: list[tuple[int, ...]], limit: int = 2_000_000):
    """All elements generated by ``gens`` (BFS closure): the oracle for
    the order of an automorphism group.  No canonical form calls it."""
    ident = tuple(range(n))
    group = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                comp = tuple(s[g[v]] for v in range(n))
                if comp not in group:
                    group.add(comp)
                    nxt.append(comp)
                    if len(group) > limit:
                        raise IncompatibleInputError("automorphism group too large")
        frontier = nxt
    return sorted(group)


def orbit_of(seed, gens, apply):
    """Orbit of ``seed`` under the generators, via ``apply(gen, item)``."""
    seen = {seed}
    queue = deque([seed])
    while queue:
        item = queue.popleft()
        for g in gens:
            image = apply(g, item)
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return seen


def _reversed_bits(bits: int, width: int) -> int:
    return int(f"{bits:0{width}b}"[::-1], 2) if width else 0


class CanonicalLabeling:
    """The orientation-free half of the canonical forms of one labeled
    underlying graph, given as adjacency bitmasks: its canonical labeling,
    canonical edges and automorphism generators (``gens``, permutations of
    the labeled graph's vertices, as ``canonical_data`` returns them), and
    per mode (P1 may push every vertex, O1 none)
    the class coordinates of the canonical graph and the generators acting
    on its classes.  ``form`` then costs one class and one orbit per
    orientation, so one object serves every orientation of the graph."""

    __slots__ = ("adj", "labeling", "edges", "gens", "_header", "_modes")

    def __init__(self, adj: tuple[int, ...]):
        n = len(adj)
        if n > 0xFFFF:
            raise IncompatibleInputError("graph too large for canonical encoding")
        _, labeling, gens = canonical_data(adj)
        self.adj = adj
        self.labeling = labeling
        edges = [(labeling[a], labeling[b]) for a, b in masks_to_edges(adj)]
        self.edges = tuple(sorted((p, q) if p < q else (q, p) for p, q in edges))
        self.gens = gens
        header = bytearray(n.to_bytes(2, "big") + len(self.edges).to_bytes(3, "big"))
        for lo, hi in self.edges:
            header += lo.to_bytes(2, "big") + hi.to_bytes(2, "big")
        self._header = bytes(header)
        self._modes: dict = {}

    def _mode(self, quotient_push: bool):
        """(class coordinates, generator maps) of one mode, built once."""
        mode = self._modes.get(quotient_push)
        if mode is None:
            n, labeling = len(self.adj), self.labeling
            # either way the encoded bits are the class bits over
            # coords.free, the form's first edge the highest
            coords = class_coordinates(n, self.edges, range(n) if quotient_push else ())
            # the generator s becomes labeling . s . labeling^-1 on the
            # canonical graph
            unlabel = [0] * n
            for v, p in enumerate(labeling):
                unlabel[p] = v
            maps = [
                coords.relabel_map([labeling[s[v]] for v in unlabel]) for s in self.gens
            ]
            mode = self._modes[quotient_push] = (coords, maps)
        return mode

    def form(self, g: OrientedGraph, quotient_push: bool = True) -> bytes:
        """The canonical form of ``g``, an orientation of this graph: the
        push form (P1) or, without ``quotient_push``, the digraph form (O1)."""
        if g.adjacency_masks != self.adj:
            raise IncompatibleInputError("the graph is no orientation of this labeling")
        return self.encode(self.class_of(g.arcs, quotient_push), quotient_push)

    def class_of(self, arcs, quotient_push: bool = True) -> int:
        """The class, in canonical coordinates, of the orientation ``arcs``
        of this graph (not checked)."""
        labeling = self.labeling
        return self._mode(quotient_push)[0].class_of(
            {(labeling[t], labeling[h]) for t, h in arcs}
        )

    def encode(self, seed: int, quotient_push: bool = True) -> bytes:
        """The form of the class ``seed`` in canonical coordinates: the
        least encoding over its orbit under the automorphisms."""
        coords, maps = self._mode(quotient_push)
        width = len(coords.free)
        orbit = orbit_of(seed, maps, AffineMap.__call__)
        best = min(_reversed_bits(bits, width) for bits in orbit)
        magic = _FORM_MAGIC_PUSH if quotient_push else _FORM_MAGIC_ISO
        return magic + self._header + best.to_bytes((width + 7) // 8 or 1, "big")


def canonical_form(g: OrientedGraph) -> bytes:
    """Byte string equal for two graphs iff they are pushably isomorphic."""
    return CanonicalLabeling(g.adjacency_masks).form(g, quotient_push=True)


def oriented_canonical_form(g: OrientedGraph) -> bytes:
    """Byte string equal for two graphs iff they are isomorphic digraphs.

    No library path calls it: the tests do, and perfbench/tracing.py
    wraps it by name.
    """
    return CanonicalLabeling(g.adjacency_masks).form(g, quotient_push=False)


def underlying_cert(g: OrientedGraph) -> bytes:
    """Canonical certificate of the underlying simple graph.

    No library path calls it: the tests do, and perfbench/tracing.py wraps
    it by name.
    """
    cert, _, _ = canonical_data(g.adjacency_masks)
    n = g.vertex_count
    nbits = n * (n - 1) // 2
    return b"U1" + n.to_bytes(2, "big") + cert.to_bytes((nbits + 7) // 8 or 1, "big")

