"""Homomorphism and pushable-homomorphism search.

The kernel is a backtracking search for an arc-preserving vertex map with
bitmask domains over the target, forward checking, and a static variable
order (maximum degree first among the unplaced vertices adjacent to the
already-placed ones, ties by index).  It is exhaustive, hence a decision
procedure; optional node budgets and a cancellation callback make long
searches cooperative.

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
from .orient import normalizing_pushes, spanning_forest

C3 = directed_cycle(3).with_name("c3")
AT_C3 = anti_twin(C3).with_name("at_c3")

class TargetIndex:
    """Per-target bitmask tables for the search kernel."""

    __slots__ = ("graph", "size", "out_masks", "in_masks", "full_mask")

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


@lru_cache(maxsize=512)
def _target_index(key) -> TargetIndex:
    n, arcs = key
    return TargetIndex(OrientedGraph(n, arcs))


def target_index(h: OrientedGraph) -> TargetIndex:
    return _target_index((h.vertex_count, tuple(sorted(h.arcs))))


def _static_order(g: OrientedGraph, doms: Sequence[int]) -> list[int]:
    n = g.vertex_count
    degs = g.degrees
    placed = [v for v in range(n) if doms[v].bit_count() == 1]
    placed_set = set(placed)
    adj = g.adjacency_masks
    frontier = 0
    for v in placed:
        frontier |= adj[v]
    while len(placed) < n:
        best = None
        for v in range(n):
            if v in placed_set:
                continue
            touches = bool(frontier >> v & 1)
            key = (touches, degs[v], -v)
            if best is None or key > best[0]:
                best = (key, v)
        v = best[1]
        placed.append(v)
        placed_set.add(v)
        frontier |= adj[v]
    return placed


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
    """Reusable search state for one source graph and one target.

    The static variable order and direction-split neighbor tables are
    computed once; ``solve`` can then be called with many different
    domain vectors (the hot path of the configuration verifier).
    """

    def __init__(
        self,
        g: OrientedGraph,
        target: TargetIndex,
        domains_template: Sequence[int] | None = None,
    ):
        self.g = g
        self.target = target
        n = g.vertex_count
        template = (
            list(domains_template)
            if domains_template is not None
            else [target.full_mask] * n
        )
        self.order = _static_order(g, template)
        pos = {v: i for i, v in enumerate(self.order)}
        later: list[list[tuple[int, bool]]] = [[] for _ in range(n)]
        for t, h in g.arcs:
            if pos[t] < pos[h]:
                later[t].append((h, True))
            else:
                later[h].append((t, False))
        self.later = later

    def solve(
        self,
        domains: Sequence[int] | None = None,
        budget: int | None = None,
        cancel: Callable[[], bool] | None = None,
    ):
        """Returns (mapping, nodes); mapping is None when no map exists."""
        g, target = self.g, self.target
        n = g.vertex_count
        full = target.full_mask
        doms = list(domains) if domains is not None else [full] * n
        if any(d == 0 for d in doms):
            return None, 0
        tout, tin = target.out_masks, target.in_masks
        if any(d != full for d in doms):
            if not _propagate(doms, g.arcs, tout, tin):
                return None, 0
        if not n:
            return (), 0
        order, later = self.order, self.later
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
    searcher = MappingSearcher(g, target, domains)
    return searcher.solve(domains, budget, cancel)


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


def find_pushable_homomorphism(
    g: OrientedGraph,
    h: OrientedGraph,
    budget: int | None = None,
    cancel: Callable[[], bool] | None = None,
    stats: dict | None = None,
):
    """Certificate for a pushable homomorphism g -> h, or None.

    Searches g -> anti_twin(h); a source vertex landing in the second
    copy (index >= |V(h)|) is pushed and its color is reduced mod |V(h)|.
    """
    at = anti_twin(h)
    mapping, nodes = solve_mapping(g, target_index(at), budget=budget, cancel=cancel)
    if stats is not None:
        stats["nodes"] = nodes
    if mapping is None:
        return None
    k = h.vertex_count
    cert = ColoringCertificate(
        push_set=frozenset(v for v, img in enumerate(mapping) if img >= k),
        mapping=tuple(img % k for img in mapping),
        target=h,
        target_name=h.name,
    )
    assert cert.verify(g)
    return cert


# -- tournaments and chromatic numbers ---------------------------------------

MAX_CHROMATIC_K = 6


def _apply_perm_to_orientation(perm, edges, edge_pos, vec: int) -> int:
    out = 0
    for idx, (lo, hi) in enumerate(edges):
        d = vec >> idx & 1
        a, b = perm[lo], perm[hi]
        if a > b:
            a, b = b, a
            d ^= 1
        out |= d << edge_pos[(a, b)]
    return out


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
    edge_pos = {e: i for i, e in enumerate(edges)}
    m = len(edges)
    if k == 1:
        return (OrientedGraph(1, (), name="t1.0"),)
    perm_gens = [tuple([1, 0] + list(range(2, k)))]
    if k > 2:
        perm_gens.append(tuple(list(range(1, k)) + [0]))

    star = spanning_forest(k, edges, range(k))

    def normalize(vec: int) -> int:
        if up_to == "push_iso":
            # the pushes read only the star's arcs, each (0, c) with 0 < c
            arcs = {(p, c) if vec >> edge_pos[(p, c)] & 1 else (c, p) for p, c in star}
            x = normalizing_pushes(k, star, arcs)
            for idx, (lo, hi) in enumerate(edges):
                vec ^= (x[lo] ^ x[hi]) << idx
        return vec

    reps = []
    seen = set()
    for vec in range(1 << m):
        key = normalize(vec)
        if key in seen:
            continue
        reps.append(key)
        seen.add(key)
        stack = [key]
        while stack:
            cur = stack.pop()
            for perm in perm_gens:
                img = normalize(_apply_perm_to_orientation(perm, edges, edge_pos, cur))
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


def _check_k_range(k: int):
    if not 1 <= k <= MAX_CHROMATIC_K:
        raise ConfigError(f"k must be within 1..{MAX_CHROMATIC_K}, got {k}")


def pushable_chromatic_number(g: OrientedGraph, k_max: int = MAX_CHROMATIC_K):
    """Least k <= k_max with a pushable homomorphism onto a k-tournament."""
    _check_k_range(k_max)
    for k in range(1, k_max + 1):
        if k == 1:
            if g.arc_count == 0:
                return 1
            continue
        for t in tournaments(k, "push_iso"):
            if find_pushable_homomorphism(g, t) is not None:
                return k
    return None


def oriented_chromatic_number(g: OrientedGraph, k_max: int = MAX_CHROMATIC_K):
    """Least k <= k_max with a plain homomorphism onto a k-tournament."""
    _check_k_range(k_max)
    for k in range(1, k_max + 1):
        if k == 1:
            if g.arc_count == 0:
                return 1
            continue
        for t in tournaments(k, "iso"):
            if find_homomorphism(g, t) is not None:
                return k
    return None


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
        searcher = MappingSearcher(g, target_index(AT_C3), doms)
    mapping, _ = searcher.solve(doms, budget, cancel)
    if mapping is None:
        return None
    cert = ColoringCertificate(
        push_set=frozenset(v for v, img in enumerate(mapping) if img >= 3),
        mapping=tuple(img % 3 for img in mapping),
        target=C3,
        target_name="c3",
    )
    assert cert.verify(g) and cert.push_set.isdisjoint(colors)
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
