"""Oriented-graph value type and the push algebra.

An oriented graph is a loop-free digraph with no parallel arcs and no pair
of opposite arcs, so its underlying simple graph determines the arc *set*
up to one direction bit per edge.  Pushing a vertex set S reverses exactly
the arcs with one endpoint in S.  Two orientations of the same labeled
graph are push equivalent when some S carries one onto the other; the
forward-arc parity of every cycle of the underlying graph is a complete
invariant for this.  Deciding it, and enumerating the classes, is the
job of ``orient``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    GraphParseError,
    IncompatibleInputError,
    InvalidPushSetError,
    StructuralViolationError,
)

Arc = tuple[int, int]

POTENTIAL_VERTEX_WEIGHT = 15
POTENTIAL_ARC_WEIGHT = 13


def _check_vertices(n: int, vertices: Iterable[int], error=IncompatibleInputError) -> None:
    if type(n) is not int or n < 0:
        raise error(f"a graph on {n!r} vertices")
    for v in vertices:
        if type(v) is not int or not 0 <= v < n:
            raise error(f"vertex {v!r} outside 0..{n - 1}")


def _arc_violation(n: int, arcs: Sequence[Arc]) -> tuple[int | None, str] | None:
    """The first reason the pairs ``arcs`` are not an oriented graph on
    ``0 .. n-1``, whose vertices are ints, not bools.

    Returns ``(index of the offending arc, message)``, with index None when
    the vertex count itself is invalid, or None when the graph is valid.
    """
    if type(n) is not int or n < 0:
        return None, f"a graph on {n!r} vertices"
    seen_edges = set()
    seen_arcs = set()
    for i, (tail, head) in enumerate(arcs):
        if not (type(tail) is int and type(head) is int and 0 <= tail < n > head >= 0):
            bad = head if type(tail) is int and 0 <= tail < n else tail
            return i, f"vertex {bad!r} outside 0..{n - 1}"
        if tail == head:
            return i, f"loop at vertex {tail}"
        if (tail, head) in seen_arcs:
            return i, f"parallel arc ({tail},{head})"
        edge = (tail, head) if tail < head else (head, tail)
        if edge in seen_edges:
            return i, f"digon on edge {edge}"
        seen_arcs.add((tail, head))
        seen_edges.add(edge)
    return None


def _pairs(arcs: Iterable[Arc], error) -> tuple[Arc, ...]:
    try:
        return tuple((t, h) for t, h in arcs)
    except (TypeError, ValueError):
        raise error("arcs must be pairs") from None


def adjacency(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """One bitmask of underlying neighbors per vertex 0..n-1 of the graph
    on ``pairs``, edges or arcs."""
    masks = [0] * n
    for a, b in pairs:
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return masks


def masks_to_edges(masks) -> tuple[tuple[int, int], ...]:
    """The (lo, hi) edges of the adjacency ``masks``, ascending."""
    edges = []
    for lo, m in enumerate(masks):
        m &= -2 << lo  # the neighbors above lo
        while m:
            low = m & -m
            m ^= low
            edges.append((lo, low.bit_length() - 1))
    return tuple(edges)


def _components(masks: Sequence[int]) -> list[int]:
    """The vertex sets of the components of the graph on adjacency
    ``masks``, as bitmasks, by least vertex."""
    comps = []
    rest = (1 << len(masks)) - 1
    while rest:
        seen = frontier = rest & -rest
        while frontier:
            nxt = 0
            m = frontier
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                nxt |= masks[v]
            frontier = nxt & ~seen
            seen |= nxt
        comps.append(seen)
        rest &= ~seen
    return comps


@dataclass(frozen=True)
class OrientedGraph:
    """Immutable oriented graph on vertices ``0 .. vertex_count-1``."""

    vertex_count: int
    arcs: tuple[Arc, ...]
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "arcs", _pairs(self.arcs, StructuralViolationError))
        violation = _arc_violation(self.vertex_count, self.arcs)
        if violation is not None:
            raise StructuralViolationError(violation[1])

    # equal graphs have equal arc sets; the arc order is kept as given,
    # because searches visit vertices and arcs in that order
    def __eq__(self, other):
        if not isinstance(other, OrientedGraph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.arc_set == other.arc_set

    def __hash__(self):
        return hash((self.vertex_count, self.arc_set))

    # -- derived structure ------------------------------------------------

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    @cached_property
    def arc_set(self) -> frozenset:
        return frozenset(self.arcs)

    @cached_property
    def edges(self) -> tuple[Arc, ...]:
        """Underlying edges, each as (lo, hi), sorted."""
        return tuple(sorted((min(t, h), max(t, h)) for t, h in self.arcs))

    @cached_property
    def edge_set(self) -> frozenset:
        return frozenset(self.edges)

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Underlying adjacency as one bitmask per vertex."""
        return tuple(adjacency(self.vertex_count, self.arcs))

    @cached_property
    def out_neighbors(self) -> tuple[tuple[int, ...], ...]:
        out = [[] for _ in range(self.vertex_count)]
        for t, h in self.arcs:
            out[t].append(h)
        return tuple(tuple(sorted(v)) for v in out)

    @cached_property
    def in_neighbors(self) -> tuple[tuple[int, ...], ...]:
        inn = [[] for _ in range(self.vertex_count)]
        for t, h in self.arcs:
            inn[h].append(t)
        return tuple(tuple(sorted(v)) for v in inn)

    def _mask(self, v: int) -> int:
        _check_vertices(self.vertex_count, (v,))
        return self.adjacency_masks[v]

    def degree(self, v: int) -> int:
        return bin(self._mask(v)).count("1")

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(bin(m).count("1") for m in self.adjacency_masks)

    def neighbors(self, v: int) -> tuple[int, ...]:
        m = self._mask(v)
        return tuple(u for u in range(self.vertex_count) if m >> u & 1)

    # -- simple editing helpers -------------------------------------------

    def with_name(self, name: str) -> "OrientedGraph":
        return OrientedGraph(self.vertex_count, self.arcs, name)

    def delete_arc(self, arc: Arc) -> "OrientedGraph":
        (arc,) = _pairs((arc,), IncompatibleInputError)
        _check_vertices(self.vertex_count, arc)
        if arc not in self.arc_set:
            raise IncompatibleInputError(f"arc {arc} not present")
        return OrientedGraph(self.vertex_count, tuple(a for a in self.arcs if a != arc))

    def induced_subgraph(self, vertices: Iterable[int]) -> "OrientedGraph":
        """Subgraph induced on ``vertices``, relabeled densely in sorted order."""
        keep = set(vertices)
        _check_vertices(self.vertex_count, keep)
        index = {v: i for i, v in enumerate(sorted(keep))}
        arcs = tuple(
            (index[t], index[h]) for t, h in self.arcs if t in index and h in index
        )
        return OrientedGraph(len(keep), arcs)

    def relabel(self, perm: Sequence[int]) -> "OrientedGraph":
        """Relabel vertex v to perm[v]."""
        _check_vertices(self.vertex_count, perm)
        if sorted(perm) != list(range(self.vertex_count)):
            raise IncompatibleInputError("perm is not a permutation of the vertices")
        return OrientedGraph(
            self.vertex_count, tuple((perm[t], perm[h]) for t, h in self.arcs)
        )

    def strip_isolated(self) -> "OrientedGraph":
        return self.induced_subgraph(
            v for v in range(self.vertex_count) if self.adjacency_masks[v]
        )

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """The vertex sets of the components, each sorted, by least vertex."""
        comps = []
        for mask in _components(self.adjacency_masks):
            comp = []
            while mask:
                low = mask & -mask
                comp.append(low.bit_length() - 1)
                mask ^= low
            comps.append(tuple(comp))
        return tuple(comps)


# -- JSON -----------------------------------------------------------------


def json_fields(value):
    """``value`` as JSON data: a dataclass as the dict of its fields and a
    tuple or list as a list, each recursively; anything else as it is.
    It is the ``to_json_dict`` of every result whose JSON is its fields."""
    if is_dataclass(value):
        return {f.name: json_fields(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [json_fields(item) for item in value]
    return value


# -- push algebra ----------------------------------------------------------


def push_vertices(g: OrientedGraph, s: Iterable[int]) -> OrientedGraph:
    """Reverse every arc with exactly one endpoint in ``s``."""
    s = frozenset(s)
    _check_vertices(g.vertex_count, s, InvalidPushSetError)
    arcs = tuple(
        (h, t) if (t in s) != (h in s) else (t, h) for t, h in g.arcs
    )
    return OrientedGraph(g.vertex_count, arcs, g.name)


def anti_twin(g: OrientedGraph) -> OrientedGraph:
    """Double ``g`` so each vertex gains a pushed twin at index ``v + n``.

    Every arc (u, v) contributes (u, v), (u', v'), (v', u), (v, u'); the
    result has 2n vertices and 4m arcs and homomorphisms into it encode
    pushable homomorphisms into ``g``.
    """
    n = g.vertex_count
    arcs = []
    for t, h in g.arcs:
        arcs += [(t, h), (n + t, n + h), (n + h, t), (h, n + t)]
    return OrientedGraph(2 * n, tuple(arcs))


def potential(g: OrientedGraph) -> int:
    """Sparseness potential 15|V| - 13|A|."""
    return POTENTIAL_VERTEX_WEIGHT * g.vertex_count - POTENTIAL_ARC_WEIGHT * g.arc_count


def girth(g: OrientedGraph):
    """Length of a shortest cycle of the underlying graph, or None.

    BFS from each vertex; a non-tree edge closing at depths d(u), d(w)
    witnesses a cycle of length d(u) + d(w) + 1 through the root.
    """
    n = g.vertex_count
    best = None
    for root in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            if best is not None and dist[v] * 2 >= best:
                break
            m = g.adjacency_masks[v]
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                if dist[u] == -1:
                    dist[u] = dist[v] + 1
                    parent[u] = v
                    queue.append(u)
                elif u != parent[v]:
                    cycle = dist[v] + dist[u] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


def forward_parity(g: OrientedGraph, cycle: Sequence[int]) -> int:
    """Parity of forward arcs along the closed walk ``cycle``; push invariant."""
    fwd = 0
    for i, v in enumerate(cycle):
        u = cycle[(i + 1) % len(cycle)]
        if (v, u) in g.arc_set:
            fwd ^= 1
        elif (u, v) not in g.arc_set:
            raise IncompatibleInputError(f"({v},{u}) is not an edge")
    return fwd


# -- text format  -----------------------------------------------------------
#
# Optional header "p og <n> <m>"; one arc per line "<tail> <head>"; "#"
# starts a comment; blank lines ignored.  Serialization emits the header
# and arcs sorted by (tail, head).


def serialize_graph(g: OrientedGraph) -> str:
    lines = []
    if g.name:
        lines.append(f"# {g.name}")
    lines.append(f"p og {g.vertex_count} {g.arc_count}")
    lines += [f"{t} {h}" for t, h in sorted(g.arcs)]
    return "\n".join(lines) + "\n"


def parse_graph(text: str, name: str | None = None) -> OrientedGraph:
    header = header_line = None
    arcs = []
    arc_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("p "):
            if header is not None:
                raise GraphParseError("duplicate header", lineno)
            if arcs:
                raise GraphParseError("header must precede arcs", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "og":
                raise GraphParseError("header must be 'p og <n> <m>'", lineno)
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise GraphParseError("header counts must be integers", lineno)
            header_line = lineno
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"expected '<tail> <head>', got {line!r}", lineno)
        try:
            arcs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphParseError(f"non-integer endpoint in {line!r}", lineno)
        arc_lines.append(lineno)
    if header is not None:
        n, m = header
        if m != len(arcs):
            raise GraphParseError(
                f"header promises {m} arcs, found {len(arcs)}", header_line
            )
    else:
        n = 1 + max((max(t, h) for t, h in arcs), default=-1)
    violation = _arc_violation(n, arcs)
    if violation is not None:
        index, message = violation
        line = header_line if index is None else arc_lines[index]
        raise GraphParseError(message, line)
    return OrientedGraph(n, tuple(arcs), name)


# -- tiny constructors used throughout --------------------------------------


def directed_cycle(n: int) -> OrientedGraph:
    return OrientedGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def directed_path(n: int) -> OrientedGraph:
    return OrientedGraph(n, tuple((i, i + 1) for i in range(n - 1)))
