"""Homomorphism and pushable-homomorphism search.

The kernel is a backtracking search for an arc-preserving vertex map with
bitmask domains over the target, forward checking, and a static variable
order (maximum degree first among the unplaced vertices adjacent to the
already-placed ones, ties by index).  It is exhaustive, hence a decision
procedure; optional node budgets and a cancellation callback make long
searches cooperative.  The order depends on the source graph only, so
one ``MappingSearcher`` serves every target: ``tournament_coloring``, the
one walk over k-tournaments behind pushable k-colorability and both
chromatic numbers, sets up one searcher per source graph.

A search without pinned domains starts each component of the source on
fewer values.  The target's start mask holds the vertices a that no
endomorphism of the target maps below a, and the first vertex of each
component in the order ranges over the mask only.  The first mapping
found does not change.  Composing with an endomorphism e turns a map of
a component C into another one, so the values of C's first vertex u
under the maps of C form a set closed under every e.  The search tries
values in ascending order and the components share no arcs, so it gives
u the least value of that set, and no e maps that value below itself:
it lies in the mask.  Any endomorphism serves here, bijective or not,
so the mask needs no automorphism group: plain searches of the target
into itself decide it.  Where every endomorphism is a bijection (a
tournament, or AT(t) of a tournament t on two or more vertices) it is
the set of least members of the automorphism orbits.  The argument
needs every vertex of C to range over the whole target, so pinned
domains (``extend_partial``, the configuration sweep, any call that
passes ``domains``) keep them all.  The mask comes from one search of
the target into itself per vertex a, for a map that sends a below a; a
search that takes more than ``START_TEST_NODES`` nodes keeps a, which
only weakens the mask, so a large target cannot make it exponential.
It never draws on a caller's budget or cancellation callback, and the
index caches it.  Node counts can only fall: every node the masked
search visits, the unmasked one visits before its first mapping too.

Pushable homomorphisms reduce to plain ones: g has a pushable
homomorphism to h exactly when g maps into the anti-twin doubling of h,
and a map into the second (pushed) copy of h marks the source vertex as
pushed.  Partial-coloring extension restricts the same reduction: a
colored vertex keeps its color as a singleton domain in the first copy,
so it can never be pushed, while uncolored vertices range over all of
AT(C3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .errors import ConfigError, IncompatibleInputError, ResourceBudgetError
from .graph import OrientedGraph, anti_twin, directed_cycle, push_vertices
from .orient import class_coordinates, normalizing_pushes, spanning_forest

C3 = directed_cycle(3).with_name("c3")
AT_C3 = anti_twin(C3).with_name("at_c3")

class TargetIndex:
    """Per-target bitmask tables for the search kernel."""

    __slots__ = ("graph", "size", "out_masks", "in_masks", "full_mask", "_start_mask")

    def __init__(self, graph: OrientedGraph):
        if graph.vertex_count > 60:
            raise ConfigError("search targets are limited to 60 vertices")
        self.graph = graph
        self.size = graph.vertex_count
        out = [0] * self.size
        inn = [0] * self.size
        for t, h in graph.arcs:
            out[t] |= 1 << h
            inn[h] |= 1 << t
        self.out_masks = tuple(out)
        self.in_masks = tuple(inn)
        self.full_mask = (1 << self.size) - 1
        self._start_mask = None

    @property
    def start_mask(self) -> int:
        """The values a component's first vertex needs: see the module docstring."""
        if self._start_mask is None:
            self._start_mask = _start_mask(self)
        return self._start_mask


@lru_cache(maxsize=512)
def _target_index(key) -> TargetIndex:
    n, arcs = key
    return TargetIndex(OrientedGraph(n, arcs))


def target_index(h: OrientedGraph) -> TargetIndex:
    return _target_index((h.vertex_count, tuple(sorted(h.arcs))))


# nodes each self-test of ``_start_mask`` may take before it keeps its vertex
START_TEST_NODES = 1000


def _start_mask(target: TargetIndex) -> int:
    """The vertices a of the target that no endomorphism maps below a.

    One search per vertex a for an endomorphism f with f(a) < a.  Every f
    found also rules out each v with f(v) < v.  A search that takes more
    than ``START_TEST_NODES`` nodes keeps a, which only weakens the mask.
    """
    g = target.graph
    n, full = target.size, target.full_mask
    tout, tin = target.out_masks, target.in_masks
    below = 0
    for a in range(1, n):
        if below >> a & 1:
            continue
        pin = [0] * n
        pin[a] = 1 << a  # a template pin puts a first in the order
        order, _ = _static_order(g, pin)
        doms = [full] * n
        doms[a] = (1 << a) - 1
        try:
            f, _ = _dfs(order, _later_neighbors(g, order), doms, tout, tin, START_TEST_NODES)
        except ResourceBudgetError:
            continue
        if f is not None:
            for v, image in enumerate(f):
                if image < v:
                    below |= 1 << v
    return full & ~below


def _static_order(g: OrientedGraph, doms: Sequence[int]) -> tuple[list[int], list[int]]:
    """The search order, and the vertices in it that start a component.

    The vertices ``doms`` pins to one value come first, by index.  Then
    each step takes the first vertex in (-degree, index) rank that touches
    the placed ones, or the first in rank when none does; such a vertex
    shares a component with no placed vertex.
    """
    n = g.vertex_count
    degs = g.degrees
    rank = sorted(range(n), key=lambda v: (-degs[v], v))
    at = [0] * n
    for i, v in enumerate(rank):
        at[v] = i
    # adjacency, the frontier and the unplaced vertices as masks over rank positions
    near = [0] * n
    for t, h in g.arcs:
        near[t] |= 1 << at[h]
        near[h] |= 1 << at[t]
    order = [v for v in range(n) if doms[v].bit_count() == 1]
    unplaced = (1 << n) - 1
    frontier = 0
    for v in order:
        unplaced ^= 1 << at[v]
        frontier |= near[v]
    starts = []
    while unplaced:
        touching = frontier & unplaced
        pick = touching or unplaced
        low = pick & -pick
        v = rank[low.bit_length() - 1]
        if not touching:
            starts.append(v)
        order.append(v)
        unplaced ^= low
        frontier |= near[v]
    return order, starts


def _later_neighbors(g: OrientedGraph, order: Sequence[int]):
    """Per vertex, its neighbors later in ``order``, each with the arc's direction."""
    pos = [0] * g.vertex_count
    for i, v in enumerate(order):
        pos[v] = i
    later: list[list[tuple[int, bool]]] = [[] for _ in range(g.vertex_count)]
    for t, h in g.arcs:
        if pos[t] < pos[h]:
            later[t].append((h, True))
        else:
            later[h].append((t, False))
    return later


def _propagate(doms: list[int], arcs, tout, tin) -> bool:
    """Arc-consistency passes until stable; False if a domain empties."""
    changed = True
    while changed:
        changed = False
        for t, h in arcs:
            dt, dh = doms[t], doms[h]
            new = 0
            m = dt
            while m:
                b = m & -m
                m ^= b
                if tout[b.bit_length() - 1] & dh:
                    new |= b
            if new != dt:
                if not new:
                    return False
                doms[t] = new
                dt = new
                changed = True
            new = 0
            m = dh
            while m:
                b = m & -m
                m ^= b
                if tin[b.bit_length() - 1] & dt:
                    new |= b
            if new != dh:
                if not new:
                    return False
                doms[h] = new
                changed = True
    return True


class MappingSearcher:
    """Reusable search state for one source graph, into any target.

    The static variable order (vertices the optional template pins to one
    value first), its component starts and the direction-split neighbor
    tables are computed once; ``solve`` can then be called with many
    targets and domain vectors.
    """

    def __init__(self, g: OrientedGraph, domains_template: Sequence[int] | None = None):
        self.g = g
        self.order, self.starts = _static_order(g, domains_template or [0] * g.vertex_count)
        self.later = _later_neighbors(g, self.order)

    def solve(
        self,
        target: TargetIndex,
        domains: Sequence[int] | None = None,
        budget: int | None = None,
        cancel: Callable[[], bool] | None = None,
    ):
        """Returns (mapping, nodes); mapping is None when no map exists.

        Without ``domains`` each component's first vertex ranges over the
        target's start mask only, which leaves the mapping unchanged.
        """
        g = self.g
        n = g.vertex_count
        full = target.full_mask
        doms = list(domains) if domains is not None else [full] * n
        if any(d == 0 for d in doms):
            return None, 0
        tout, tin = target.out_masks, target.in_masks
        if any(d != full for d in doms):
            if not _propagate(doms, g.arcs, tout, tin):
                return None, 0
        elif domains is None and self.starts:
            start = target.start_mask
            for v in self.starts:
                doms[v] = start
        return _dfs(self.order, self.later, doms, tout, tin, budget, cancel)


def _dfs(
    order: Sequence[int],
    later,
    doms: list[int],
    tout,
    tin,
    budget: int | None = None,
    cancel: Callable[[], bool] | None = None,
):
    """Depth-first search over ``order`` with forward checking on ``doms``.

    Values are tried in ascending order, so the mapping returned is the
    least complete one in the order of ``order``.  Returns (mapping, nodes).
    """
    n = len(order)
    if not n:
        return (), 0
    assign = [-1] * n
    nodes = 0
    # depth-first over ``order`` without recursion: ``stack`` holds, for
    # each depth above the current one, its untried candidates and the
    # trail of domain narrowings made by its current candidate
    stack = []
    i = 0
    v = order[0]
    cand, fwd = doms[v], later[v]
    while True:
        while cand:
            bit = cand & -cand
            cand ^= bit
            a = bit.bit_length() - 1
            nodes += 1
            if budget is not None and nodes > budget:
                raise ResourceBudgetError("node budget exhausted", nodes=nodes)
            if cancel is not None and cancel():
                raise ResourceBudgetError("search cancelled", nodes=nodes)
            assign[v] = a
            trail = []
            for w, outgoing in fwd:
                old = doms[w]
                new = old & (tout[a] if outgoing else tin[a])
                if new != old:
                    trail.append((w, old))
                    doms[w] = new
                    if not new:
                        break
            else:
                i += 1
                if i == n:
                    return tuple(assign), nodes
                stack.append((cand, trail))
                v = order[i]
                cand, fwd = doms[v], later[v]
                continue
            for w, old in trail:
                doms[w] = old
        if not stack:
            return None, nodes
        cand, trail = stack.pop()
        for w, old in trail:
            doms[w] = old
        i -= 1
        v = order[i]
        fwd = later[v]


def solve_mapping(
    g: OrientedGraph,
    target: TargetIndex,
    domains: Sequence[int] | None = None,
    budget: int | None = None,
    cancel: Callable[[], bool] | None = None,
):
    """One-shot search for a map of g into the target respecting all arcs."""
    return MappingSearcher(g, domains).solve(target, domains, budget, cancel)


def find_homomorphism(
    g: OrientedGraph,
    h: OrientedGraph,
    budget: int | None = None,
    cancel: Callable[[], bool] | None = None,
    stats: dict | None = None,
):
    """Arc-preserving vertex map g -> h, or None if none exists."""
    mapping, nodes = solve_mapping(g, target_index(h), budget=budget, cancel=cancel)
    if stats is not None:
        stats["nodes"] = nodes
    return mapping


# -- certificates ------------------------------------------------------------


@dataclass(frozen=True)
class ColoringCertificate:
    """A push set and vertex map witnessing a pushable homomorphism."""

    push_set: frozenset
    mapping: tuple[int, ...]
    target: OrientedGraph
    target_name: str | None = field(default=None, compare=False)

    def verify(self, g: OrientedGraph) -> bool:
        """One-pass arc check of the certificate against its source graph."""
        if len(self.mapping) != g.vertex_count:
            return False
        if any(not 0 <= v < g.vertex_count for v in self.push_set):
            return False
        tgt = self.target.arc_set
        s = self.push_set
        for t, h in g.arcs:
            if (t in s) != (h in s):
                t, h = h, t
            if (self.mapping[t], self.mapping[h]) not in tgt:
                return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "pushed": sorted(self.push_set),
            "map": {str(v): c for v, c in enumerate(self.mapping)},
        }


def retarget_certificate(
    g: OrientedGraph, cert: ColoringCertificate, target_push: Iterable[int]
) -> ColoringCertificate:
    """Rebase a certificate onto a push-equivalent copy of its target.

    If f maps push(g, S) into h, then f also maps push(g, S xor f^-1(T))
    into push(h, T): an arc flips on the source side exactly when its
    image flips on the target side.
    """
    t_set = frozenset(target_push)
    new_target = push_vertices(cert.target, t_set)
    s = set(cert.push_set)
    for v, image in enumerate(cert.mapping):
        if image in t_set:
            s.symmetric_difference_update([v])
    out = ColoringCertificate(frozenset(s), cert.mapping, new_target)
    assert out.verify(g)
    return out


def _decode_certificate(g: OrientedGraph, h: OrientedGraph, mapping):
    """The certificate of a map of g into anti_twin(h), or into h itself.

    A source vertex landing in the second copy (index >= |V(h)|) is
    pushed and its color is reduced mod |V(h)|; a map into h pushes none.
    """
    k = h.vertex_count
    cert = ColoringCertificate(
        push_set=frozenset(v for v, img in enumerate(mapping) if img >= k),
        mapping=tuple(img % k for img in mapping),
        target=h,
        target_name=h.name,
    )
    assert cert.verify(g)
    return cert


def find_pushable_homomorphism(
    g: OrientedGraph,
    h: OrientedGraph,
    budget: int | None = None,
    cancel: Callable[[], bool] | None = None,
    stats: dict | None = None,
):
    """Certificate for a pushable homomorphism g -> h, or None.

    Searches g -> anti_twin(h).
    """
    at = anti_twin(h)
    mapping, nodes = solve_mapping(g, target_index(at), budget=budget, cancel=cancel)
    if stats is not None:
        stats["nodes"] = nodes
    return None if mapping is None else _decode_certificate(g, h, mapping)


# -- tournaments and chromatic numbers ---------------------------------------

MAX_CHROMATIC_K = 6


@lru_cache(maxsize=32)
def tournaments(k: int, up_to: str = "push_iso") -> tuple[OrientedGraph, ...]:
    """All k-vertex tournaments, one per class under the chosen relation.

    ``up_to`` is "push_iso" (isomorphism after pushing) or "iso".  The
    orientation space of K_k is walked with orbit marking under the
    symmetric group (and push normalization for the quotiented variant).
    """
    if up_to not in ("push_iso", "iso"):
        raise ConfigError(f"unknown dedup relation {up_to!r}")
    if k < 1:
        raise ConfigError("k must be positive")
    edges = list(combinations(range(k), 2))
    m = len(edges)
    if k == 1:
        return (OrientedGraph(1, (), name="t1.0"),)
    perm_gens = [tuple([1, 0] + list(range(2, k)))]
    if k > 2:
        perm_gens.append(tuple(list(range(1, k)) + [0]))
    # with nothing movable every edge is a free bit, in the order of edges,
    # and a relabeling acts on the vector as a signed permutation
    coords = class_coordinates(k, edges, ())
    perm_maps = [coords.relabel_map(perm) for perm in perm_gens]

    # the star edges (0, c) are the k - 1 lowest bits, and the pushes that
    # normalize a vector read only them
    star = spanning_forest(k, edges, range(k))
    star_bits = (1 << (k - 1)) - 1
    flips = [0] * (star_bits + 1)
    if up_to == "push_iso":
        for low in range(star_bits + 1):
            arcs = {(p, c) if low >> (c - 1) & 1 else (c, p) for p, c in star}
            x = normalizing_pushes(k, star, arcs)
            for idx, (lo, hi) in enumerate(edges):
                flips[low] ^= (x[lo] ^ x[hi]) << idx

    reps = []
    seen = set()
    for vec in range(1 << m):
        key = vec ^ flips[vec & star_bits]
        if key in seen:
            continue
        reps.append(key)
        seen.add(key)
        stack = [key]
        while stack:
            cur = stack.pop()
            for image in perm_maps:
                img = image(cur)
                img ^= flips[img & star_bits]
                if img not in seen:
                    seen.add(img)
                    stack.append(img)
    graphs = []
    for i, vec in enumerate(reps):
        arcs = tuple(
            (lo, hi) if vec >> idx & 1 else (hi, lo)
            for idx, (lo, hi) in enumerate(edges)
        )
        graphs.append(OrientedGraph(k, arcs, name=f"t{k}.{i}"))
    return tuple(graphs)


@lru_cache(maxsize=32)
def _tournament_targets(k: int, up_to: str):
    """tournaments(k, up_to), each with its search target: AT(t) for push_iso."""
    return tuple(
        (t, target_index(anti_twin(t) if up_to == "push_iso" else t))
        for t in tournaments(k, up_to)
    )


def tournament_coloring(
    g: OrientedGraph,
    k_min: int,
    k_max: int,
    up_to: str,
    budget: int | None = None,
    cancel: Callable[[], bool] | None = None,
):
    """Certificate onto the first tournament g maps onto, or None.

    Tries k = k_min..k_max and, for each k, ``tournaments(k, up_to)`` in
    order, all through one searcher for g.  Under "push_iso" the map is a
    pushable homomorphism (a search into AT(t)); under "iso" it is a plain
    one and the push set is empty.  The budget bounds each search.
    """
    for k in (k_min, k_max):
        if not 1 <= k <= MAX_CHROMATIC_K:
            raise ConfigError(f"k must be within 1..{MAX_CHROMATIC_K}, got {k}")
    if k_min == 1:
        # only an arcless graph maps onto the one-vertex tournament
        if g.arc_count == 0:
            return _decode_certificate(g, tournaments(1)[0], (0,) * g.vertex_count)
        k_min = 2
    searcher = MappingSearcher(g)
    for k in range(k_min, k_max + 1):
        for t, target in _tournament_targets(k, up_to):
            mapping, _ = searcher.solve(target, budget=budget, cancel=cancel)
            if mapping is not None:
                return _decode_certificate(g, t, mapping)
    return None


def pushable_chromatic_number(g: OrientedGraph, k_max: int = MAX_CHROMATIC_K):
    """Least k <= k_max with a pushable homomorphism onto a k-tournament."""
    cert = tournament_coloring(g, 1, k_max, "push_iso")
    return None if cert is None else cert.target.vertex_count


def oriented_chromatic_number(g: OrientedGraph, k_max: int = MAX_CHROMATIC_K):
    """Least k <= k_max with a plain homomorphism onto a k-tournament."""
    cert = tournament_coloring(g, 1, k_max, "iso")
    return None if cert is None else cert.target.vertex_count


# -- partial colorings and extension -----------------------------------------


@dataclass(frozen=True)
class PartialColoring:
    """Colors (C3 vertices 0,1,2) on a subset of vertices; the rest is X."""

    colored: tuple[tuple[int, int], ...]

    @staticmethod
    def of(assignment: dict) -> "PartialColoring":
        return PartialColoring(tuple(sorted(assignment.items())))

    def as_dict(self) -> dict:
        return dict(self.colored)

    def uncolored(self, g: OrientedGraph) -> tuple[int, ...]:
        dom = {v for v, _ in self.colored}
        return tuple(v for v in range(g.vertex_count) if v not in dom)

    def validate(self, g: OrientedGraph):
        seen = set()
        for v, c in self.colored:
            if not 0 <= v < g.vertex_count:
                raise IncompatibleInputError(f"colored vertex {v} out of range")
            if c not in (0, 1, 2):
                raise IncompatibleInputError(f"color {c} outside 0..2")
            if v in seen:
                raise IncompatibleInputError(f"vertex {v} colored twice")
            seen.add(v)


def extend_partial(
    g: OrientedGraph,
    pc: PartialColoring,
    budget: int | None = None,
    cancel: Callable[[], bool] | None = None,
    searcher: MappingSearcher | None = None,
):
    """Extend a partial coloring by pushing only uncolored vertices.

    Colored vertices are pinned to their color in the unpushed copy of
    AT(C3); a returned certificate therefore has push_set inside X.  An
    arc between two colored vertices that no push of X can fix simply
    makes the coloring non-extendable (None), not an error.
    """
    pc.validate(g)
    colors = pc.as_dict()
    doms = [
        (1 << colors[v]) if v in colors else 0b111111
        for v in range(g.vertex_count)
    ]
    if searcher is None:
        searcher = MappingSearcher(g, doms)
    mapping, _ = searcher.solve(target_index(AT_C3), doms, budget, cancel)
    if mapping is None:
        return None
    cert = _decode_certificate(g, C3, mapping)
    assert cert.push_set.isdisjoint(colors)
    return cert


def extend_partial_bruteforce(g: OrientedGraph, pc: PartialColoring):
    """Extension by direct search over every push subset of X.

    Independent of the AT reduction; both routes must agree.
    """
    pc.validate(g)
    colors = pc.as_dict()
    free = pc.uncolored(g)
    c3 = target_index(C3)
    for r in range(len(free) + 1):
        for pushed in combinations(free, r):
            g2 = push_vertices(g, pushed)
            doms = [
                (1 << colors[v]) if v in colors else 0b111
                for v in range(g.vertex_count)
            ]
            mapping, _ = solve_mapping(g2, c3, doms)
            if mapping is not None:
                cert = ColoringCertificate(frozenset(pushed), mapping, C3, "c3")
                assert cert.verify(g)
                return cert
    return None


# -- path color propagation ---------------------------------------------------


def oriented_path(k: int, parity: str) -> OrientedGraph:
    """A path with k arcs whose forward-arc count has the given parity."""
    if parity not in ("even", "odd"):
        raise ConfigError("parity must be 'even' or 'odd'")
    want = 0 if parity == "even" else 1
    bits = [1] * k
    if k % 2 != want:
        bits[-1] = 0
    arcs = tuple(
        (i, i + 1) if bits[i] else (i + 1, i) for i in range(k)
    )
    return OrientedGraph(k + 1, arcs)


def path_color_sets(k: int, parity: str):
    """Colors at the far end of a k-arc path that a fixed start color allows.

    Computed from scratch: color the start 0, try each color c at the far
    end, and ask whether some push of the internal vertices extends the
    coloring.  Returned as (allowed, forbidden) offsets of the start
    color; rotating the start color rotates both sets.
    """
    if not 1 <= k <= 5:
        raise ConfigError("path length k must be within 1..5")
    path = oriented_path(k, parity)
    allowed = set()
    for c in range(3):
        pc = PartialColoring.of({0: 0, k: c})
        if extend_partial(path, pc) is not None:
            allowed.add(c)
    return frozenset(allowed), frozenset({0, 1, 2} - allowed)
