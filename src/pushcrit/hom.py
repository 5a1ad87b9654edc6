"""Homomorphism and pushable-homomorphism search.

The kernel is a backtracking search for an arc-preserving vertex map with
bitmask domains over the target, forward checking, and a static variable
order (maximum degree first among the unplaced vertices adjacent to the
already-placed ones, ties by index).  It is exhaustive, hence a decision
procedure; ``MappingSearcher.solve`` takes an optional node budget (the
CLI's ``color --budget-nodes``).  The order depends on the source graph
only, so one ``MappingSearcher`` serves every target:
``tournament_coloring``, the one walk over k-tournaments behind pushable
k-colorability and both chromatic numbers, sets up one searcher per
source graph.

Pinned domains get forward checking and nothing more.  The pinned
vertices come first in the order, so forward checking from them narrows
their neighbors before anything else is tried.  An arc-consistency pass
before the search would only remove values that no mapping uses, so the
first mapping found, the least in the order, is the same without it;
only node counts and time move.  Without the pass the verification
suites ran a little faster (perfbench verify-paper, medians of 20 pairs:
0.189 -> 0.181 reference s), and so did the configuration sweep over
two-center gadgets with up to five leaves (25-27 -> 22-24 s); on six
leaves with chains of three internal vertices, which only a stretch
test sweeps, the search thrashes along the chains and ran 1.8 times
slower (process time, 2-vCPU Xeon).

Components share no arcs, and forward checking narrows only the later
neighbors of a placed vertex, so the values a component's first vertex
can take, and the search below each of them, do not depend on any
earlier component.  When those values run out the search fails at once
instead of backtracking into earlier components: no earlier choice can
help.  The mapping found does not change; only node counts fall (e1
beside a 16-leaf star into AT(C3): 7,012,351 nodes -> 122).

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
It never draws on a caller's budget, and the index caches it.  Node
counts can only fall: every node the masked search visits, the unmasked
one visits before its first mapping too.

The oriented chromatic number asks for a map into some k-tournament,
and ``tournament_coloring`` answers it with one search per k over all
labeled k-tournaments at once.  Its values are colors; each pair of
colors gets its direction from the first arc between them, and later
arcs must agree.  That set of targets is closed under relabeling the
colors, so any map into one of them can be relabeled to give colors in
the order the search first uses them: each vertex needs to try only the
colors used so far and one new color, and the search stays exact.
Components are not skipped over here, since they share one tournament.
This is why ``_tournament_dfs`` is a second kernel beside ``_dfs``:
``_dfs`` maps into one fixed target, whose arcs it reads from the target
index, while here the target's pairs are fixed as the search goes and
undone on its own trail.  The one-kernel route, one ``_dfs`` per
k-tournament up to isomorphism, measured slower on the oriented
chromatic numbers (k <= 6) of the seeded single-graph benchmark inputs:
0.87 s against this search's 0.25 s on seed 1, 0.81 s against 0.25 s on
seed 2 (medians of 5 alternated rounds, process time, 2-vCPU Xeon).
Pushable colorings keep one search per target AT(t), t up to pushing
and isomorphism: the same design, over labeled tournaments with pushes,
measured slower on every workload tried (the pushable chromatic numbers
of the seeded single-graph benchmark inputs, seed 1 0.22 -> 0.83 s,
seed 2 0.21 -> 4.4 s; pushable 3-colorability there 0.029 -> 0.090 s).

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
from itertools import accumulate, combinations
from operator import xor
from typing import Iterable, Sequence

from .canon import orbit_of
from .errors import ConfigError, IncompatibleInputError, ResourceBudgetError, SelfCheckError
from .graph import OrientedGraph, anti_twin, directed_cycle, push_vertices
from .orient import AffineMap, class_coordinates

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
        order, starts = _static_order(g, pin)
        later = _later_neighbors(g, order)
        start_bits = sum(1 << v for v in starts)
        doms = [full] * n
        doms[a] = (1 << a) - 1
        try:
            f, _ = _dfs(order, later, start_bits, doms, tout, tin, START_TEST_NODES)
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
        self.start_bits = sum(1 << v for v in self.starts)
        self.later = _later_neighbors(g, self.order)

    def solve(
        self,
        target: TargetIndex,
        domains: Sequence[int] | None = None,
        budget: int | None = None,
    ):
        """Returns (mapping, nodes); mapping is None when no map exists.

        Without ``domains`` each component's first vertex ranges over the
        target's start mask only, which leaves the mapping unchanged.
        """
        if domains is None:
            doms = [target.full_mask] * self.g.vertex_count
            for v in self.starts:
                doms[v] = target.start_mask
        else:
            doms = list(domains)
        if any(d == 0 for d in doms):
            return None, 0
        return _dfs(
            self.order, self.later, self.start_bits, doms,
            target.out_masks, target.in_masks, budget,
        )


def _dfs(
    order: Sequence[int],
    later,
    start_bits: int,
    doms: list[int],
    tout,
    tin,
    budget: int | None = None,
):
    """Depth-first search over ``order`` with forward checking on ``doms``.

    Values are tried in ascending order, so the mapping returned is the
    least complete one in the order of ``order``.  When the values of a
    component's first vertex (a bit of ``start_bits``) run out, the search
    fails at once: see the module docstring.  Returns (mapping, nodes).
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
        if not stack or start_bits >> v & 1:
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
):
    """One-shot search for a map of g into the target respecting all arcs."""
    return MappingSearcher(g, domains).solve(target, domains, budget)


def find_homomorphism(g: OrientedGraph, h: OrientedGraph):
    """Arc-preserving vertex map g -> h, or None if none exists."""
    return solve_mapping(g, target_index(h))[0]


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
    if not out.verify(g):
        raise SelfCheckError("a rebased certificate does not verify")
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
    if not cert.verify(g):
        raise SelfCheckError("a decoded certificate does not verify")
    return cert


def find_pushable_homomorphism(
    g: OrientedGraph,
    h: OrientedGraph,
    budget: int | None = None,
    stats: dict | None = None,
):
    """Certificate for a pushable homomorphism g -> h, or None.

    Searches g -> anti_twin(h); ``stats["nodes"]`` receives the search's
    node count.
    """
    mapping, nodes = solve_mapping(g, target_index(anti_twin(h)), budget=budget)
    if stats is not None:
        stats["nodes"] = nodes
    return None if mapping is None else _decode_certificate(g, h, mapping)


# -- tournaments and chromatic numbers ---------------------------------------

MAX_CHROMATIC_K = 6


@lru_cache(maxsize=32)
def tournaments(k: int, up_to: str = "push_iso") -> tuple[OrientedGraph, ...]:
    """All k-vertex tournaments, one per class under the chosen relation.

    ``up_to`` is "push_iso" (isomorphism after pushing) or "iso".  The
    orientation vectors of K_k are walked in ascending order, each taken
    to its ``orient`` class (every vertex movable under "push_iso", none
    under "iso"), and a class not yet seen is kept and its orbit under
    the symmetric group marked; the walk ends once every class is marked.
    Each tournament is its class's normalized orientation, named in the
    order found.
    """
    if up_to not in ("push_iso", "iso"):
        raise ConfigError(f"unknown dedup relation {up_to!r}")
    if k < 1:
        raise ConfigError("k must be positive")
    if k == 1:
        return (OrientedGraph(1, (), name="t1.0"),)
    edges = list(combinations(range(k), 2))
    perm_gens = [tuple([1, 0] + list(range(2, k)))]
    if k > 2:
        perm_gens.append(tuple(list(range(1, k)) + [0]))
    coords = class_coordinates(k, edges, range(k) if up_to == "push_iso" else ())
    perm_maps = [coords.relabel_map(perm) for perm in perm_gens]
    # bit i of a vector says edges[i] points lo -> hi, so its class is
    # coords.base xor the masks of its set bits; vec - 1 -> vec flips the
    # bits up to vec's lowest set bit, whose masks xor to one prefix
    prefix = list(accumulate((coords.masks[e] for e in edges), xor))
    cls = coords.base
    reps = []
    seen = set()
    for vec in range(1 << len(edges)):
        if vec:
            cls ^= prefix[(vec & -vec).bit_length() - 1]
        if cls not in seen:
            reps.append(cls)
            seen |= orbit_of(cls, perm_maps, AffineMap.__call__)
            if len(seen) == 1 << len(coords.free):
                break  # every class is marked
    return tuple(
        OrientedGraph(k, coords.arcs(bits), name=f"t{k}.{i}")
        for i, bits in enumerate(reps)
    )


@lru_cache(maxsize=32)
def _tournament_targets(k: int):
    """tournaments(k), each with its search target AT(t)."""
    return tuple((t, target_index(anti_twin(t))) for t in tournaments(k))


def _earlier_neighbors(order: Sequence[int], later):
    """Per vertex, its neighbors earlier in ``order``; True marks an arc into it."""
    earlier: list[list[tuple[int, bool]]] = [[] for _ in order]
    for u in order:
        for w, outgoing in later[u]:
            earlier[w].append((u, outgoing))
    return earlier


def _tournament_dfs(
    order: Sequence[int],
    later,
    earlier,
    k: int,
):
    """Depth-first search for a map into some labeled k-tournament.

    Values are the colors 0..k-1.  ``out[c]`` and ``inn[c]`` mask the
    colors that the arcs placed so far fix c to point to and from; every
    other pair of colors is still free.  A vertex tries the colors used
    so far and one new color, in ascending order (see the module
    docstring), checks its placed neighbors against the fixed pairs,
    fixing free ones, and forward-checks the colors of its later
    neighbors.  Returns (mapping, out, nodes); mapping is None when no
    k-tournament admits a map.
    """
    n = len(order)
    if not n:
        return (), [0] * k, 0
    doms = [(1 << k) - 1] * n
    color = [-1] * n
    out = [0] * k
    inn = [0] * k
    nodes = 0
    # as in ``_dfs``; each frame also keeps the pairs its candidate fixed
    # and the number of colors used before it
    stack = []
    i = 0
    used = 0
    v = order[0]
    cand = doms[v] & 1
    while True:
        while cand:
            bit = cand & -cand
            cand ^= bit
            a = bit.bit_length() - 1
            nodes += 1
            fixed = []
            for u, into_v in earlier[v]:
                b = color[u]
                if into_v:
                    if out[a] >> b & 1:
                        break
                    if not out[b] & bit:
                        out[b] |= bit
                        inn[a] |= 1 << b
                        fixed.append((b, a))
                else:
                    if inn[a] >> b & 1:
                        break
                    if not inn[b] & bit:
                        out[a] |= 1 << b
                        inn[b] |= bit
                        fixed.append((a, b))
            else:
                color[v] = a
                # a later neighbor w takes neither a nor a color that a
                # fixed pair points the wrong way
                ban_head, ban_tail = inn[a] | bit, out[a] | bit
                trail = []
                for w, outgoing in later[v]:
                    old = doms[w]
                    new = old & ~(ban_head if outgoing else ban_tail)
                    if new != old:
                        trail.append((w, old))
                        doms[w] = new
                        if not new:
                            break
                else:
                    i += 1
                    if i == n:
                        return tuple(color), out, nodes
                    stack.append((cand, trail, fixed, used))
                    if a == used:
                        used += 1
                    v = order[i]
                    cand = doms[v] & ((2 << used) - 1)
                    continue
                for w, old in trail:
                    doms[w] = old
            for t, h in fixed:
                out[t] ^= 1 << h
                inn[h] ^= 1 << t
        if not stack:
            return None, out, nodes
        cand, trail, fixed, used = stack.pop()
        for w, old in trail:
            doms[w] = old
        for t, h in fixed:
            out[t] ^= 1 << h
            inn[h] ^= 1 << t
        i -= 1
        v = order[i]


def _fixed_tournament(k: int, out: Sequence[int]) -> OrientedGraph:
    """The k-tournament of the fixed pairs ``out``; a free pair points up."""
    return OrientedGraph(
        k,
        tuple(
            (hi, lo) if out[hi] >> lo & 1 else (lo, hi)
            for lo, hi in combinations(range(k), 2)
        ),
    )


def tournament_coloring(
    g: OrientedGraph,
    k_min: int,
    k_max: int,
    up_to: str,
):
    """Certificate onto the first tournament g maps onto, or None.

    Tries k = k_min..k_max, all through one searcher for g.  Under
    "push_iso" the map is a pushable homomorphism, and each k tries the
    targets AT(t) of ``tournaments(k)`` in order.  Under "iso" it is a
    plain one, the push set is empty, and each k is one search over
    every labeled k-tournament at once (see the module docstring); the
    certificate's target is the tournament that search fixed, its free
    pairs pointing from the lower color to the higher.
    """
    for k in (k_min, k_max):
        if not 1 <= k <= MAX_CHROMATIC_K:
            raise ConfigError(f"k must be within 1..{MAX_CHROMATIC_K}, got {k}")
    if k_min > k_max:
        raise ConfigError(f"empty k range {k_min}..{k_max}")
    if up_to not in ("push_iso", "iso"):
        raise ConfigError(f"unknown dedup relation {up_to!r}")
    if k_min == 1:
        # only an arcless graph maps onto the one-vertex tournament
        if g.arc_count == 0:
            return _decode_certificate(g, tournaments(1)[0], (0,) * g.vertex_count)
        k_min = 2
    searcher = MappingSearcher(g)
    if up_to == "iso":
        earlier = _earlier_neighbors(searcher.order, searcher.later)
        for k in range(k_min, k_max + 1):
            mapping, out, _ = _tournament_dfs(searcher.order, searcher.later, earlier, k)
            if mapping is not None:
                return _decode_certificate(g, _fixed_tournament(k, out), mapping)
        return None
    for k in range(k_min, k_max + 1):
        for t, target in _tournament_targets(k):
            mapping, _ = searcher.solve(target)
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
    mapping, _ = searcher.solve(target_index(AT_C3), doms)
    if mapping is None:
        return None
    cert = _decode_certificate(g, C3, mapping)
    if not cert.push_set.isdisjoint(colors):
        raise SelfCheckError("an extension pushes a precolored vertex")
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
                if not cert.verify(g):
                    raise SelfCheckError("a brute-force certificate does not verify")
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
