"""Exhaustive enumeration of oriented graphs up to push isomorphism.

Underlying simple graphs are generated one per isomorphism class by
vertex augmentation with canonical-deletion acceptance: a child is kept
exactly when its new vertex lies in the automorphism orbit of the vertex
holding the highest canonical label, and attachment subsets range over
orbit representatives of the parent's automorphism group.  The push
classes of each underlying graph are decided all at once (below), and the
critical ones are reported with canonical codes.

Only children that pass a max-degree pretest are labeled (McKay's
cheap-invariant pretest, "Isomorph-free exhaustive generation",
J. Algorithms 1998): the new vertex must have maximum degree in the child.
The pretest is exact.  Canonical labeling first splits the unit cell by
degree in ascending order, and later splits never reorder cells, so the
highest canonical label always falls on a vertex of maximum degree, as
does every vertex of its orbit; a child whose new vertex has lower degree
than some other vertex would be rejected anyway.

Root-cell lemma: the highest canonical label falls in the last cell of
the root partition, the equitable refinement ``canon._refine`` of the
unit cell, and so does its whole orbit.  Leaves refine the root partition
without reordering it, and each root cell is a union of automorphism
orbits.  So on the top level, where a child needs no generators, the
partition often decides acceptance without a labeling: a new vertex of
unique maximum degree is accepted (the first split by degree leaves it
alone in the last cell, with no refinement run), one outside the last
root cell is rejected, and one alone in it is accepted.  Only the rest
are labeled.

Feasible-subset lemma: the pretest holds exactly when the attachment set
S has |S| >= deg(v) + [v in S] for every old vertex v, that is when S is,
for some size k >= the parent's maximum degree, a k-subset of the
vertices of degree < k.  Generation forms only those subsets.  The
condition is invariant under the parent's automorphisms, so every orbit
of subsets lies wholly inside the walk or wholly outside it; visited in
ascending order, the first set of each orbit is still its least mask.
So each level holds the same graphs, with the same certificates and in
the same order, as the walk over all 2^(n-1) subsets, and is complete.

Top-level cover lemma: the child is connected with minimum degree 2
exactly when the parent has no isolated vertex, S holds every vertex of
degree 1, |S| >= 2 and S meets every component of the parent (old
degrees grow by [v in S], the new vertex has degree |S| and joins
exactly the components S meets).  On the last level ``find_critical``
asks for, generation also applies this test.  It drops only children
that are no candidate, and it is a property of the child, so the kept
ones are exactly the level's candidates, in the level's order.  Such a
top level is cached apart and never extended: a parent it dropped may
have candidate children.  So every lower level stays complete.

Each accepted child on a lower level carries the certificate and the
automorphism generators its labeling returned: the generators are the
parent's group when the next level extends it, and the certificate names
the candidate (``UnderlyingGraph.cert``) in a shard cursor.  A top-level
child accepted by its root partition carries no certificate; a run that
writes shards labels it for its cursor in the scan's worker, and
``resume`` labels candidates to find its position.  A run without shards
labels it never.

Candidates are the connected underlying graphs with minimum degree 2: a
pushably 3-critical graph has no isolated vertex (criticality is
undefined then), no vertex of degree 1 (it always extends a coloring)
and one component (components color independently).  From 5 vertices on,
generation also drops graphs with a K4 subgraph: such a graph is not
3-colorable, so it is critical only if it is K4 itself.

The scan decides every push class of a candidate G at once from its
3-colorings, with no search per orientation: ``transfer.ChainGraph``
keeps every vertex of G, enumerates the proper 3-colorings, and returns
the image Im of colorable classes and the critical classes (see the
``transfer`` docstring for why the test is exact).  Each edge is then its
own chain, and the walk order is the BFS order of the class forest.  One
BFS over the adjacency masks gives the order and the forest, and one
subtree pass from the leaves every edge's z and the base class; the
class coordinates (``orient.ClassCoordinates``) are built only for a
candidate with a critical class, to name its arcs.  One walk, which
skips the negations of the colorings it takes (the negation lemma), gives
Im together with the Mono classes of the edges that end at the last two
vertices of that order (the tail-Mono lemma); any other edge's Mono takes
a walk of its own, only when a remaining candidate class needs it.  The
scan assumes none of the structural lemmas that
``underlying_prune_verdict`` states.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import combinations
from multiprocessing import get_context
from operator import getitem

from .canon import (
    CanonicalLabeling,
    _refine,
    canonical_data,
    canonical_form,
    encode_underlying_cert,
    orbit_of,
)
from .chains import classify_vertices
from .errors import ConfigError, ResourceBudgetError
from .graph import (
    POTENTIAL_ARC_WEIGHT,
    POTENTIAL_VERTEX_WEIGHT,
    Arc,
    OrientedGraph,
    _components,
    adjacency,
    potential,
)
from .orient import push_class_representatives
from .transfer import ChainGraph

UNDERLYING_VERTEX_LIMIT = 12
FIND_CRITICAL_VERTEX_LIMIT = 10

BOUND_OFFSET = 2


def satisfies_density_bound(n: int, m: int) -> bool:
    return POTENTIAL_ARC_WEIGHT * m >= POTENTIAL_VERTEX_WEIGHT * n + BOUND_OFFSET


# -- underlying graph generation ----------------------------------------------


@dataclass(frozen=True)
class UnderlyingGraph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    # the canonical certificate from ``canonical_data``, set by generation;
    # None on a top-level candidate accepted without a labeling
    cert: int | None = field(default=None, compare=False, repr=False)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """The adjacency masks; generation sets them to the masks it built
        the edges from (``_from_masks``)."""
        return tuple(adjacency(self.vertex_count, self.edges))

    def min_degree(self) -> int:
        return _min_degree(self.masks)

    def is_connected(self) -> bool:
        return len(_components(self.masks)) <= 1


def _from_masks(masks, cert: int | None) -> UnderlyingGraph:
    """The underlying graph of the adjacency ``masks``, carrying them."""
    under = UnderlyingGraph(len(masks), _masks_to_edges(masks), cert)
    # an instance attribute, which the cached property then never computes
    object.__setattr__(under, "masks", masks)
    return under


def _min_degree(masks) -> int:
    return min((m.bit_count() for m in masks), default=0)


def _masks_to_edges(masks) -> tuple[tuple[int, int], ...]:
    """The (lo, hi) edges of the adjacency ``masks``, ascending."""
    edges = []
    for lo, m in enumerate(masks):
        m &= -2 << lo  # the neighbors above lo
        while m:
            low = m & -m
            m ^= low
            edges.append((lo, low.bit_length() - 1))
    return tuple(edges)


def _permute_mask(mask: int, perm) -> int:
    out = 0
    while mask:
        b = mask & -mask
        mask ^= b
        out |= 1 << perm[b.bit_length() - 1]
    return out


def _attachment_sets(masks, gens, cover: bool = False) -> list[int]:
    """The neighborhoods S of a new vertex worth labeling, ascending, one
    per orbit of the parent's automorphism group (``gens``): the least mask
    of each.

    S passes the max-degree pretest, |S| >= deg(v) + [v in S] for every old
    vertex v; with ``cover``, also the top-level cover test (see the module
    docstring).  Both are invariant under the group, so each orbit lies
    wholly inside the walk or wholly outside it.
    """
    degrees = [m.bit_count() for m in masks]
    smallest = max(degrees, default=0)
    forced = 0
    comps = ()
    if cover:
        if 0 in degrees:
            return []
        smallest = max(smallest, 2)
        forced = sum(1 << v for v, d in enumerate(degrees) if d == 1)
        comps = _components(masks)
    feasible = []
    for size in range(smallest, len(masks) + 1):
        # a vertex of degree `size` would outgrow the new vertex if joined
        free = [
            1 << v for v, d in enumerate(degrees) if d < size and not forced >> v & 1
        ]
        need = size - forced.bit_count()
        if need >= 0:
            feasible.extend(forced + sum(c) for c in combinations(free, need))
    if len(comps) > 1:
        feasible = [s for s in feasible if all(s & c for c in comps)]
    feasible.sort()
    if not gens:
        return feasible
    seen = set()
    reps = []
    for mask in feasible:
        if mask not in seen:
            reps.append(mask)
            seen |= orbit_of(mask, gens, lambda g, m: _permute_mask(m, g))
    return reps


def _adds_k4(masks, new_mask: int) -> bool:
    # parent is K4-free, so a new K4 must use the new vertex: a triangle
    # inside its neighborhood
    nbrs = []
    m = new_mask
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        nbrs.append(v)
    for i, a in enumerate(nbrs):
        for b in nbrs[i + 1 :]:
            if masks[a] >> b & 1 and masks[a] & masks[b] & new_mask:
                return True
    return False


def _root_cell_verdict(child) -> bool | None:
    """Canonical-deletion acceptance of a child whose new vertex, the last,
    has maximum degree, where the root partition decides it (the root-cell
    lemma of the module docstring): True or False, or None when only a
    labeling can tell."""
    new = len(child) - 1
    size = child[new].bit_count()
    if all(child[v].bit_count() < size for v in range(new)):
        return True
    last = _refine(child, [list(range(len(child)))])[-1]
    if new not in last:
        return False
    return True if len(last) == 1 else None


_Level = list[tuple[tuple[int, ...], int | None]]
# (n, forbid_k4, top) -> (level, the automorphism generators of each graph
# in it); a top level keeps none, since no level is ever built on it
_LEVEL_CACHE: dict[tuple[int, bool, bool], tuple[_Level, list | None]] = {}


def _graphs_on(n: int, forbid_k4: bool, tick=None, top: bool = False) -> _Level:
    """(adjacency masks, canonical cert) pairs, one per isomorphism class
    on n vertices.  A ``top`` level holds only the connected graphs with
    minimum degree 2, in the same order, by the top-level cover test; the
    cert is None where the root-cell lemma accepted the graph.

    ``tick`` is called before each parent is extended; it may raise to
    abandon the level, which is then not cached.
    """
    key = (n, forbid_k4, top)
    if key in _LEVEL_CACHE:
        return _LEVEL_CACHE[key][0]
    if n == 1:
        level, gens = ([] if top else [((0,), 0)]), [[]]
    else:
        level, gens = [], []
        parents = _graphs_on(n - 1, forbid_k4, tick)
        parent_gens = _LEVEL_CACHE[(n - 1, forbid_k4, False)][1]
        for (parent, _), pgens in zip(parents, parent_gens):
            if tick is not None:
                tick()
            for smask in _attachment_sets(parent, pgens, top):
                if forbid_k4 and _adds_k4(parent, smask):
                    continue
                child = tuple(
                    parent[v] | ((smask >> v & 1) << (n - 1)) for v in range(n - 1)
                ) + (smask,)
                if top:
                    verdict = _root_cell_verdict(child)
                    if verdict is not None:
                        if verdict:
                            level.append((child, None))
                        continue
                cert, labeling, cgens = canonical_data(child)
                deleted = labeling.index(n - 1)
                if n - 1 in orbit_of(deleted, cgens, getitem):
                    level.append((child, cert))
                    gens.append(cgens)
    _LEVEL_CACHE[key] = (level, None if top else gens)
    return level


def enumerate_underlying(
    n: int,
    min_degree: int = 2,
    forbid_k4: bool = False,
    tick=None,
    *,
    _last_level: bool = False,
):
    """All connected simple graphs on n vertices with the degree floor,
    one per isomorphism class, each carrying its canonical ``cert``.

    ``tick`` is called between parents while a level is generated.
    ``find_critical`` sets ``_last_level`` on the last n it asks for: unless
    the complete level is at hand, that level is then generated with the
    top-level cover test, as no later level extends it, and its candidates
    accepted without a labeling carry ``cert`` None.
    """
    if not 1 <= n <= UNDERLYING_VERTEX_LIMIT:
        raise ConfigError(
            f"underlying enumeration supports 1..{UNDERLYING_VERTEX_LIMIT} vertices"
        )
    if min_degree not in (0, 1, 2):
        raise ConfigError("min_degree must be 0, 1 or 2")
    top = _last_level and min_degree == 2 and (n, forbid_k4, False) not in _LEVEL_CACHE
    for masks, cert in _graphs_on(n, forbid_k4, tick, top):
        if _min_degree(masks) >= min_degree and len(_components(masks)) <= 1:
            yield _from_masks(masks, cert)


def enumerate_orientations_mod_push(under: UnderlyingGraph, dedup_iso: bool = False):
    """One orientation per push class; optionally also quotient by iso."""
    labeling = CanonicalLabeling(under.masks) if dedup_iso else None
    seen = set()
    out = []
    for arcs in push_class_representatives(
        under.vertex_count, under.edges, range(under.vertex_count)
    ):
        g = OrientedGraph(under.vertex_count, arcs)
        if dedup_iso:
            code = labeling.form(g)
            if code in seen:
                continue
            seen.add(code)
        out.append(g)
    return out


# -- structural prunes ---------------------------------------------------------


def _has_cut_vertex(n: int, masks) -> bool:
    """Articulation-point test by DFS lowpoints (graph assumed connected)."""
    if n <= 2:
        return False
    disc = [-1] * n
    low = [0] * n
    counter = [0]
    found = [False]

    def dfs(v: int, parent: int) -> None:
        disc[v] = low[v] = counter[0]
        counter[0] += 1
        children = 0
        m = masks[v]
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            if disc[u] == -1:
                children += 1
                dfs(u, v)
                low[v] = min(low[v], low[u])
                if parent != -1 and low[u] >= disc[v]:
                    found[0] = True
            elif u != parent:
                low[v] = min(low[v], disc[u])
        if parent == -1 and children > 1:
            found[0] = True

    dfs(0, -1)
    return found[0]


def _chromatic_at_most_3(n: int, masks) -> bool:
    colors = [-1] * n
    order = sorted(range(n), key=lambda v: -bin(masks[v]).count("1"))

    def dfs(i):
        if i == n:
            return True
        v = order[i]
        used = 0
        m = masks[v]
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            if colors[u] >= 0:
                used |= 1 << colors[u]
        for c in range(3):
            if not used >> c & 1:
                colors[v] = c
                if dfs(i + 1):
                    return True
                colors[v] = -1
        return False

    return dfs(0)


def underlying_prune_verdict(under: UnderlyingGraph):
    """(keep, reason): whether the structural lemmas allow a critical
    orientation of this underlying graph.

    The coloring-image scan is exact and does not call this.  It stays as
    the audited statement of the lemmas: the tests check every record of
    ``find_critical(8)`` against it, the cyclomatic enumeration planned in
    the ROADMAP needs its first two, and perfbench/tracing.py wraps it by
    name.  Assumes connectivity and minimum degree were already enforced.
    """
    n = under.vertex_count
    masks = under.masks
    degrees = [bin(m).count("1") for m in masks]
    is_cycle = all(d == 2 for d in degrees)
    if not is_cycle and _has_cut_vertex(n, masks):
        return False, "cut_vertex"
    if not is_cycle:
        dec = classify_vertices(OrientedGraph(n, under.edges))
        if any(c.internal_count >= 4 for c in dec.chains):
            return False, "long_chain"
    if n >= 5:
        # K4-containing graphs were already dropped during generation when
        # forbid_k4 was set; re-test here so the verdict is self-contained
        for a in range(n):
            for b in range(a + 1, n):
                if not masks[a] >> b & 1:
                    continue
                common = masks[a] & masks[b]
                cm = common
                while cm:
                    c = (cm & -cm).bit_length() - 1
                    cm &= cm - 1
                    if common & masks[c] & ~((1 << (c + 1)) - 1):
                        return False, "k4_subgraph"
    if not _chromatic_at_most_3(n, masks):
        edges = under.edges
        for skip in range(len(edges)):
            sub = [0] * n
            for i, (lo, hi) in enumerate(edges):
                if i != skip:
                    sub[lo] |= 1 << hi
                    sub[hi] |= 1 << lo
            if not _chromatic_at_most_3(n, sub):
                return False, "stays_4_chromatic"
    return True, None


# -- the coloring-image scan ----------------------------------------------------


def _critical_orientations(n: int, edges) -> list[tuple[Arc, ...]]:
    """The normalized orientations (``orient.ClassCoordinates.arcs``, all
    vertices movable) of the pushably 3-critical classes of the connected
    graph on ``edges``, n >= 2, in ascending order of the class bits.  Every
    vertex is kept, so each edge is its own chain (``transfer``)."""
    graph = ChainGraph(n, edges, range(n))
    return [graph.coords.arcs(k) for k in graph.critical_classes()]


def _scan_underlying_for_critical(under: UnderlyingGraph):
    """All critical orientations of one underlying graph, as (code, graph):
    per canonical code, the class with the smallest bits.  The graph is
    labeled once, and only when it has a critical class."""
    critical = _critical_orientations(under.vertex_count, under.edges)
    if not critical:
        return []
    labeling = CanonicalLabeling(under.masks)
    found = {}
    for arcs in critical:
        g = OrientedGraph(under.vertex_count, arcs)
        found.setdefault(labeling.form(g), g)
    return sorted((code.hex(), g) for code, g in found.items())


# -- records and the bound check ----------------------------------------------


@dataclass(frozen=True)
class EnumerationRecord:
    canonical_code: str
    n: int
    m: int
    critical: bool
    potential: int
    satisfies_bound: bool
    exception: str | None = None
    arcs: tuple[tuple[int, int], ...] | None = None

    def to_json_dict(self) -> dict:
        return {
            "canonical_code": self.canonical_code,
            "n": self.n,
            "m": self.m,
            "critical": self.critical,
            "potential": self.potential,
            "satisfies_bound": self.satisfies_bound,
            "exception": self.exception,
            "arcs": [list(a) for a in self.arcs] if self.arcs is not None else None,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "EnumerationRecord":
        return EnumerationRecord(
            canonical_code=d["canonical_code"],
            n=d["n"],
            m=d["m"],
            critical=d["critical"],
            potential=d["potential"],
            satisfies_bound=d["satisfies_bound"],
            exception=d.get("exception"),
            arcs=tuple(tuple(a) for a in d["arcs"]) if d.get("arcs") else None,
        )


def _exception_codes() -> dict[str, str]:
    from .fixtures import EXCEPTION_NAMES, fixture

    return {canonical_form(fixture(name)).hex(): name for name in EXCEPTION_NAMES}


def make_record(code_hex: str, g: OrientedGraph, exception_codes) -> EnumerationRecord:
    n, m = g.vertex_count, g.arc_count
    return EnumerationRecord(
        canonical_code=code_hex,
        n=n,
        m=m,
        critical=True,
        potential=potential(g),
        satisfies_bound=satisfies_density_bound(n, m),
        exception=exception_codes.get(code_hex),
        arcs=tuple(sorted(g.arcs)),
    )


def _cursor(under: UnderlyingGraph) -> str:
    """The CURSOR line naming a generated candidate: its underlying_cert,
    labeled here if generation accepted it without a labeling."""
    cert = under.cert
    if cert is None:
        cert = canonical_data(under.masks)[0]
    return encode_underlying_cert(under.vertex_count, cert).hex()


def _worker(under: UnderlyingGraph, sharded: bool = True):
    """The scan's hits on one candidate, after its CURSOR line if the run
    writes shards (else None)."""
    hits = [
        (code, g.vertex_count, tuple(g.arcs))
        for code, g in _scan_underlying_for_critical(under)
    ]
    return (_cursor(under) if sharded else None), hits


@dataclass(frozen=True)
class DensityBoundReport:
    ok: bool
    records_checked: int
    violators: tuple[EnumerationRecord, ...]
    exceptions_found: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "records_checked": self.records_checked,
            "violators": [r.to_json_dict() for r in self.violators],
            "exceptions_found": list(self.exceptions_found),
        }


def verify_density_bound(records) -> DensityBoundReport:
    """PASS iff every record satisfies the arc bound or is a named exception."""
    violators = tuple(
        r for r in records if not r.satisfies_bound and r.exception is None
    )
    exceptions = tuple(sorted({r.exception for r in records if r.exception}))
    return DensityBoundReport(not violators, len(records), violators, exceptions)


# -- the driver ----------------------------------------------------------------


def _shard_paths(shard_dir: str, n: int):
    base = os.path.join(shard_dir, str(n))
    os.makedirs(base, exist_ok=True)
    return base


def _persist_records(base: str, records):
    by_prefix: dict[str, list] = {}
    for rec in records:
        by_prefix.setdefault(rec.canonical_code[:2], []).append(rec)
    for prefix, recs in by_prefix.items():
        path = os.path.join(base, f"{prefix}.ndjson")
        with open(path, "a", encoding="utf-8") as fh:
            for rec in recs:
                fh.write(json.dumps(rec.to_json_dict(), sort_keys=True) + "\n")


def _complete_lines(path: str) -> list[str]:
    """The complete lines of the append-only log at ``path``.

    A crash mid-append leaves a final line without its newline.  It is cut
    off the file, so the next append starts a line of its own.  Nothing is
    lost: CURSOR moves only after a candidate's records are persisted, so
    the resumed run scans that candidate again and re-appends them.
    """
    with open(path, "rb+") as fh:
        data = fh.read()
        complete = data.rfind(b"\n") + 1
        if complete < len(data):
            fh.truncate(complete)
    return data[:complete].decode("utf-8").splitlines()


def _load_records(base: str):
    """Records persisted under ``base``, less a torn final line."""
    records = {}
    if not os.path.isdir(base):
        return records
    for fname in sorted(os.listdir(base)):
        if not fname.endswith(".ndjson"):
            continue
        for line in _complete_lines(os.path.join(base, fname)):
            line = line.strip()
            if line:
                rec = EnumerationRecord.from_json_dict(json.loads(line))
                records[rec.canonical_code] = rec
    return records


def _read_cursor(path: str) -> str | None:
    """The last complete line of the CURSOR log at ``path``, or None.

    Each scanned candidate appends its cursor as one line, after its
    records are persisted.
    """
    if not os.path.exists(path):
        return None
    lines = _complete_lines(path)
    return lines[-1] if lines else None


def _resume_position(n: int, candidates, cursor: str) -> int:
    """The index after the candidate that the CURSOR line ``cursor`` names;
    a line naming none of the level's candidates is a ConfigError."""
    for idx, ug in enumerate(candidates):
        if _cursor(ug) == cursor:
            return idx + 1
    raise ConfigError(
        f"the CURSOR of level {n} names no candidate on {n} vertices"
    )


def find_critical(
    n_max: int,
    jobs: int = 1,
    shard_dir: str | None = None,
    resume: bool = False,
    wall_budget_s: float | None = None,
    progress=None,
):
    """Every pushably 3-critical oriented graph on <= n_max vertices,
    one record per push-isomorphism class.  The number of colors is fixed
    at 3: the scan decides colorability from ``transfer``'s images of the
    proper colorings into Z3.

    ``wall_budget_s`` is checked between generated parents and between
    scanned candidates; ``progress(n, i, total)`` is called after each
    scanned candidate.
    """
    if not 3 <= n_max <= FIND_CRITICAL_VERTEX_LIMIT:
        raise ConfigError(
            f"n_max must be within 3..{FIND_CRITICAL_VERTEX_LIMIT}"
        )
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    if resume and not shard_dir:
        raise ConfigError("resume needs a shard directory")
    started = time.monotonic()
    exception_codes = _exception_codes()
    merged: dict[str, EnumerationRecord] = {}

    def records():
        return sorted(merged.values(), key=lambda r: (r.n, r.canonical_code))

    def check_budget() -> None:
        if wall_budget_s is not None and time.monotonic() - started > wall_budget_s:
            raise ResourceBudgetError("wall-time budget exhausted", partial=records())

    # leaving the run's context terminates the pool, opened once on the
    # first level with work, also on a budget error
    with ExitStack() as run:
        pool = None
        for n in range(3, n_max + 1):
            candidates = list(
                enumerate_underlying(
                    n, 2, forbid_k4=n >= 5, tick=check_budget, _last_level=n == n_max
                )
            )
            base = _shard_paths(shard_dir, n) if shard_dir else None
            cursor_path = os.path.join(base, "CURSOR") if base else None
            start_at = 0
            if base and resume:
                for rec in _load_records(base).values():
                    merged.setdefault(rec.canonical_code, rec)
                cursor = _read_cursor(cursor_path)
                if cursor is not None:
                    start_at = _resume_position(n, candidates, cursor)
            todo = candidates[start_at:]
            if not todo:
                continue

            # leaving the level's context closes its cursor log
            with ExitStack() as stack:
                if base:
                    if not resume:
                        # a fresh level starts empty record files and an
                        # empty log: one truncation per level
                        for fname in os.listdir(base):
                            if fname.endswith(".ndjson"):
                                os.remove(os.path.join(base, fname))
                    log = stack.enter_context(
                        open(cursor_path, "a" if resume else "w", encoding="utf-8")
                    )
                worker = _worker if base else partial(_worker, sharded=False)
                if jobs > 1:
                    if pool is None:
                        pool = run.enter_context(get_context("fork").Pool(jobs))
                    # each task costs the parent a pickle round trip, which
                    # outweighs the scan of a few candidates: give every
                    # worker about sixteen chunks of the level
                    chunk = max(4, len(todo) // (16 * jobs))
                    results = pool.imap(worker, todo, chunksize=chunk)
                else:
                    results = map(worker, todo)
                for i, (ucert, hits) in enumerate(results):
                    new_records = []
                    for code, gn, arcs in hits:
                        if code not in merged:
                            rec = make_record(code, OrientedGraph(gn, arcs), exception_codes)
                            merged[code] = rec
                            new_records.append(rec)
                    if base:
                        if new_records:
                            _persist_records(base, new_records)
                        log.write(ucert + "\n")
                        log.flush()
                    if progress:
                        progress(n, i + 1, len(todo))
                    check_budget()
    return records()
