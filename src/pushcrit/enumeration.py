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
orbits.  So the partition often decides acceptance: a new vertex outside
the last root cell is rejected, and one alone in it is accepted.  The
verdict is read after every split of the refinement
(``canon._refinements``) and stops at the first split that decides it.
That early answer is the final one: splits never reorder cells, so a
vertex outside the last cell stays outside it, and the last cell splits
only into fragments that stay at the end, so a vertex alone in it stays
last and alone.  The first split, by degree, already accepts a new
vertex of unique maximum degree.  A rejected child is never labeled, on
any level, and neither is an accepted child of the top level (below),
which needs no generators.  Every other child is labeled
(``canonical_data(child, cells)``) from the partition the verdict
reached, which by the resume lemma of ``canonical_data`` gives the
labeling from scratch; a child accepted by the partition needs no orbit
test.

Feasible-subset lemma: the pretest holds exactly when the attachment set
S has |S| >= deg(v) + [v in S] for every old vertex v, that is when S is,
for some size k >= the parent's maximum degree, a k-subset of the
vertices of degree < k.  Generation forms only those subsets.  The
condition is invariant under the parent's automorphisms, so every orbit
of subsets lies wholly inside the walk or wholly outside it; visited in
ascending order, the first set of each orbit is still its least mask.
So each level holds the same labeled graphs, in the same order, as the
walk over all 2^(n-1) subsets, and is complete.

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

Each accepted child on a lower level keeps the automorphism generators
its labeling returned, as the parent's group when the next level extends
it; no level keeps a certificate.

Cursor lemma: a shard's CURSOR line names a candidate by its generated
adjacency, the lower triangle of its masks as one hex integer
(``_cursor``), and no labeling.  Generation is deterministic: every run
builds each level's graphs as the same labeled graphs in the same order,
and by the top-level cover lemma a top level lists them as the full
level's candidates do.  So a resumed run meets, as a top level or a full
one, the very graph the crashed run last scanned, and the line names it;
the level fixes n, so no two of its candidates share a line.  A line
written for a relabeled copy of a candidate names none.  The line is
zero-padded to its level's ceil(n(n-1)/8) hex digits, which differ for
n = 3..12, so a line copied from another of those levels names none
either: unpadded, a 7-vertex and a 9-vertex candidate can share a line.

Level cache: every generated level is cached for the life of the process
(``_LEVEL_CACHE``), so a second run generates nothing, and it is held in
flat buffers (``_Level``): the masks of all its graphs in one 16-bit
array and each graph's generators as one ``bytes`` object, decoded only
when the next level extends that graph.  Canonical augmentation reads
nothing else of a parent level.  ``find_critical(10)`` caches 2.2 million
graphs, 2,108,079 of them on its top level: with a tuple per graph it
peaked at 1.0 GiB resident, in the buffers at 65 MiB.

Driver: ``find_critical`` is a loop over levels, and each level goes
through one driver, ``_Run.scan_level``, which owns the shard files, the
CURSOR log, resume, the worker pool, the budget and progress.  A level is
a stream plus a worker: its name (the shard subdirectory), its candidates
as an iterator with their total, and a function from a candidate to its
CURSOR line and its records.  Generation stays serial: the raw level, the
masks, is built and cached in the calling thread, where the budget may
stop it.  Its candidates are not cached: each becomes an
``UnderlyingGraph`` only when the scan takes it, so no level is ever held
as a list of them.  The total is read off the raw level (its length on a
top level, one filter pass over a full one), and a resumed level consumes
the stream up to and including the candidate that its CURSOR names.

Candidates are the connected underlying graphs with minimum degree 2: a
pushably 3-critical graph has no isolated vertex (criticality is
undefined then), no vertex of degree 1 (it always extends a coloring)
and one component (components color independently).  From 5 vertices on,
generation also drops graphs with a K4 subgraph: such a graph is not
3-colorable, so it is critical only if it is K4 itself.

The scan decides every push class of a candidate G at once from its
3-colorings, with no search per orientation: ``transfer.ChainGraph``,
on the ``chains.Kernel`` that keeps every vertex of G, enumerates the
proper 3-colorings, and returns the image Im of colorable classes and the
critical classes (see the ``transfer`` docstring for why the test is
exact).  Each edge is then its own chain, and the walk order is the BFS
order of the class forest.  One BFS over the adjacency masks gives the
order and the forest, and one subtree pass from the leaves every edge's
z and the base class; the class coordinates (``orient.ClassCoordinates``)
are built only for a candidate with a critical class, to name its arcs.
One walk, which skips the negations of the colorings it takes (the
negation lemma), gives Im together with the Mono classes of the edges that
end at the last two vertices of that order (the tail-Mono lemma); any
other edge's Mono takes a walk of its own, only when a remaining candidate
class needs it.  The scan assumes none of the structural lemmas that
``underlying_prune_verdict`` states.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import chain, combinations, islice
from operator import getitem

from .canon import (
    CanonicalLabeling,
    _refinements,
    canonical_data,
    canonical_form,
    orbit_of,
)
from .chains import Kernel, classify_vertices
from .errors import ConfigError, ResourceBudgetError, StructuralViolationError
from .fixtures import EXCEPTION_NAMES, fixture
from .graph import (
    OrientedGraph,
    _components,
    adjacency,
    json_fields,
    masks_to_edges,
    potential,
)
from .hom import MappingSearcher, _dfs
from .transfer import ChainGraph

UNDERLYING_VERTEX_LIMIT = 12
FIND_CRITICAL_VERTEX_LIMIT = 10
_CHUNK_LIMIT = 512

# the density bound 13|A| >= 15|V| + 2, as potential(g) <= -BOUND_OFFSET
BOUND_OFFSET = 2


# -- underlying graph generation ----------------------------------------------


@dataclass(frozen=True)
class UnderlyingGraph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """The adjacency masks; generation sets them to the masks it built
        the edges from (``_from_masks``)."""
        return tuple(adjacency(self.vertex_count, self.edges))


def _from_masks(masks) -> UnderlyingGraph:
    """The underlying graph of the adjacency ``masks``, carrying them."""
    under = UnderlyingGraph(len(masks), masks_to_edges(masks))
    # an instance attribute, which the cached property then never computes
    object.__setattr__(under, "masks", masks)
    return under


def _min_degree(masks) -> int:
    return min((m.bit_count() for m in masks), default=0)


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


def _root_cell_verdict(child):
    """(verdict, cells): the canonical-deletion acceptance of a child whose
    new vertex, the last, has maximum degree, where the root partition
    decides it (the root-cell lemma of the module docstring), True or
    False, or None when only a labeling can tell; and the partition that
    the refinement of the unit cell (``canon._refinements``) had reached
    when it stopped, at the first split that decides the verdict."""
    new = len(child) - 1
    cells = [list(range(len(child)))]
    for cells in _refinements(child, cells):
        last = cells[-1]
        if new not in last:
            return False, cells
        if len(last) == 1:
            return True, cells
    return None, cells


class _Level:
    """One generated level on n vertices, in flat buffers: the adjacency
    masks of every graph, n to a graph, in one ``array('H')`` (n <=
    ``UNDERLYING_VERTEX_LIMIT`` = 12, so a mask fits in 16 bits), and, on a
    level that is extended, each graph's automorphism generators as one
    ``bytes`` object, the permutations one after another (every entry < n).

    ``len()`` is the number of graphs; iteration yields each graph's masks
    as a tuple, in order, and ``generators()`` each graph's generators as
    the tuples ``canonical_data`` returned, decoded one graph at a time.
    """

    __slots__ = ("n", "masks", "gens")

    def __init__(self, n: int, top: bool):
        self.n = n
        self.masks = array("H")
        self.gens: list[bytes] | None = None if top else []

    def append(self, masks, gens=()) -> None:
        self.masks.extend(masks)
        if self.gens is not None:
            self.gens.append(bytes(chain.from_iterable(gens)))

    def __len__(self) -> int:
        return len(self.masks) // self.n

    def __iter__(self):
        return zip(*[iter(self.masks)] * self.n)

    def generators(self):
        n = self.n
        return (list(zip(*[iter(g)] * n)) for g in self.gens)


# (n, forbid_k4, top) -> the level; a top level keeps no generators, since
# no level is ever built on it
_LEVEL_CACHE: dict[tuple[int, bool, bool], _Level] = {}


def _graphs_on(n: int, forbid_k4: bool, tick=None, top: bool = False) -> _Level:
    """The adjacency masks of one graph per isomorphism class on n
    vertices, as a ``_Level``: the masks in one 16-bit array and each
    graph's automorphism generators in one ``bytes`` object, decoded for
    one parent at a time when the next level extends it.  A ``top`` level
    holds only the connected graphs with minimum degree 2, in the same
    order, by the top-level cover test, and no generators.

    ``tick`` is called before each parent is extended; it may raise to
    abandon the level, which is then not cached.
    """
    key = (n, forbid_k4, top)
    if key in _LEVEL_CACHE:
        return _LEVEL_CACHE[key]
    level = _Level(n, top)
    if n == 1:
        if not top:
            level.append((0,))
    else:
        parents = _graphs_on(n - 1, forbid_k4, tick)
        for parent, pgens in zip(parents, parents.generators()):
            if tick is not None:
                tick()
            for smask in _attachment_sets(parent, pgens, top):
                if forbid_k4 and _adds_k4(parent, smask):
                    continue
                child = tuple(
                    parent[v] | ((smask >> v & 1) << (n - 1)) for v in range(n - 1)
                ) + (smask,)
                verdict, cells = _root_cell_verdict(child)
                if verdict is False:
                    continue
                if verdict and top:
                    level.append(child)
                    continue
                _, labeling, cgens = canonical_data(child, cells)
                if verdict or n - 1 in orbit_of(labeling.index(n - 1), cgens, getitem):
                    level.append(child, cgens)
    _LEVEL_CACHE[key] = level
    return level


def enumerate_underlying(
    n: int,
    *,
    forbid_k4: bool = False,
    tick=None,
    _last_level: bool = False,
):
    """All connected simple graphs on n vertices with minimum degree 2,
    one per isomorphism class, each as the labeled graph generation built.
    ``forbid_k4`` leaves out the graphs with a K4 subgraph.

    ``tick`` is called between parents while a level is generated.
    ``find_critical`` sets ``_last_level`` on the last n it asks for: unless
    the complete level is at hand, that level is then generated with the
    top-level cover test, as no later level extends it.
    """
    if type(n) is not int or not 1 <= n <= UNDERLYING_VERTEX_LIMIT:
        raise ConfigError(
            f"underlying enumeration supports 1..{UNDERLYING_VERTEX_LIMIT} vertices"
        )
    top = _last_level and (n, forbid_k4, False) not in _LEVEL_CACHE
    for masks in _graphs_on(n, forbid_k4, tick, top):
        if _is_candidate(masks):
            yield _from_masks(masks)


def _is_candidate(masks) -> bool:
    return _min_degree(masks) >= 2 and len(_components(masks)) <= 1


def _level_candidates(n: int, last: bool, tick):
    """(candidates, total): ``find_critical``'s candidates on n vertices as
    ``enumerate_underlying``'s stream, and their number.

    The stream's first step generates the level.  It is taken here, so
    generation runs in the calling thread, where ``tick`` may raise, and the
    total is read off the generated level: a top level holds only
    candidates, a full one is filtered once.
    """
    forbid_k4 = n >= 5
    stream = enumerate_underlying(n, forbid_k4=forbid_k4, tick=tick, _last_level=last)
    head = list(islice(stream, 1))
    full = _LEVEL_CACHE.get((n, forbid_k4, False))
    if full is None:
        total = len(_LEVEL_CACHE[(n, forbid_k4, True)])
    else:
        total = sum(_is_candidate(masks) for masks in full)
    # the exhausted iterator over ``head`` lets go of the first candidate
    return chain(iter(head), stream), total


# -- structural prunes ---------------------------------------------------------


# the triangle as a search target: each color's neighbors, the same for
# either arc direction, so a map into it is a proper 3-coloring of the
# underlying graph
_K3 = (0b110, 0b101, 0b011)


def _three_colorable(g: OrientedGraph) -> bool:
    searcher = MappingSearcher(g)
    # the triangle moves any color to 0, so each component's first vertex
    # takes color 0: the triangle's start mask (``hom``)
    starts = searcher.start_bits
    doms = [1 if starts >> v & 1 else 0b111 for v in range(g.vertex_count)]
    return _dfs(searcher.order, searcher.later, starts, doms, _K3, _K3)[0] is not None


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
    g = OrientedGraph(n, under.edges)
    # a cycle is 2-connected and has no vertex of degree 3+ to end a chain
    if any(m.bit_count() != 2 for m in masks):
        # v cuts when the graph less v's edges has v alone and 2+ other components
        for v in range(n):
            rest = [0 if u == v else m & ~(1 << v) for u, m in enumerate(masks)]
            if len(_components(rest)) >= 3:
                return False, "cut_vertex"
        # a chain with 4 or more internal vertices, a path of 6 or more
        if any(len(p) >= 6 for p in classify_vertices(g).paths):
            return False, "long_chain"
    # a K4 is a triangle in some vertex's neighborhood, generation's own test
    if n >= 5 and any(_adds_k4(masks, m) for m in masks):
        return False, "k4_subgraph"
    if not _three_colorable(g) and not all(
        _three_colorable(g.delete_arc(arc)) for arc in g.arcs
    ):
        return False, "stays_4_chromatic"
    return True, None


# -- the coloring-image scan ----------------------------------------------------


@lru_cache(maxsize=None)
def _every_vertex(n: int) -> frozenset[int]:
    return frozenset(range(n))


def _critical_records(kernel: Kernel) -> list[EnumerationRecord]:
    """The records of the pushably 3-critical classes of the connected
    graph that ``kernel`` reads, n >= 2, ascending by canonical code: per
    code, the class with the smallest bits, named by its normalized
    orientation (``orient.ClassCoordinates.arcs``, all vertices movable).
    The kernel's labeled graph is labeled once, and only when it has a
    critical class."""
    graph = ChainGraph(kernel)
    critical = graph.critical_classes()
    if not critical:
        return []
    labeling = CanonicalLabeling(tuple(adjacency(kernel.n, kernel.edges)))
    found = {}
    for k in critical:
        g = OrientedGraph(kernel.n, graph.coords.arcs(k))
        found.setdefault(labeling.form(g).hex(), g)
    return [make_record(code, g) for code, g in sorted(found.items())]


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
        return json_fields(self)

    @staticmethod
    def from_json_dict(d: dict) -> "EnumerationRecord":
        """The record whose ``to_json_dict`` is ``d``; TypeError when ``d``
        is not exactly the record ``make_record`` builds from its
        canonical_code and arcs: the arcs are no oriented graph on n
        vertices, a field is missing, unknown or of another JSON value
        than that record's, or the arcs have another canonical code."""
        if not isinstance(d, dict):
            raise TypeError("a record is a JSON object")
        try:
            g = OrientedGraph(d.get("n"), d.get("arcs"))
        except StructuralViolationError as exc:
            raise TypeError(f"arcs are no oriented graph: {exc}") from None
        code = d.get("canonical_code")
        # str(): a code that is no string then differs as a field
        rec = make_record(str(code), g)
        want = rec.to_json_dict()
        # json.dumps tells 1 from true and 8 from 8.0
        differ = [
            k for k in {**want, **d}
            if k not in d or k not in want or json.dumps(d[k]) != json.dumps(want[k])
        ]
        if differ:
            raise TypeError(
                "fields disagree with canonical_code and arcs: "
                + ", ".join(map(str, differ))
            )
        # last, as the one costly check
        if canonical_form(g).hex() != code:
            raise TypeError("arcs disagree with canonical_code")
        return rec


@lru_cache(maxsize=1)
def _exception_codes() -> dict[str, str]:
    return {canonical_form(fixture(name)).hex(): name for name in EXCEPTION_NAMES}


def make_record(code_hex: str, g: OrientedGraph) -> EnumerationRecord:
    pot = potential(g)
    return EnumerationRecord(
        canonical_code=code_hex,
        n=g.vertex_count,
        m=g.arc_count,
        critical=True,
        potential=pot,
        satisfies_bound=pot <= -BOUND_OFFSET,
        exception=_exception_codes().get(code_hex),
        arcs=tuple(sorted(g.arcs)),
    )


def _cursor(under: UnderlyingGraph) -> str:
    """The CURSOR line naming a generated candidate: the lower triangle of
    its generated adjacency, vertex v's neighbors below v shifted in for v =
    0..n-1, as one lowercase hex integer zero-padded to the triangle's
    ceil(n(n-1)/8) digits (see the module docstring)."""
    n = len(under.masks)
    bits = 0
    for v, m in enumerate(under.masks):
        bits = bits << v | m & ((1 << v) - 1)
    return format(bits, f"0{-(-n * (n - 1) // 8)}x")


def _worker(under: UnderlyingGraph):
    """One candidate's CURSOR line and the records of its critical classes.
    Every vertex is kept, so each edge is its own chain: the kernel is
    built unchecked, as ``Kernel.of`` would build it."""
    n = under.vertex_count
    return _cursor(under), _critical_records(Kernel(n, _every_vertex(n), under.edges))


@dataclass(frozen=True)
class DensityBoundReport:
    ok: bool
    records_checked: int
    violators: tuple[EnumerationRecord, ...]
    exceptions_found: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return json_fields(self)


def verify_density_bound(records) -> DensityBoundReport:
    """PASS iff every record satisfies the arc bound or is a named exception."""
    violators = tuple(
        r for r in records if not r.satisfies_bound and r.exception is None
    )
    exceptions = tuple(sorted({r.exception for r in records if r.exception}))
    return DensityBoundReport(not violators, len(records), violators, exceptions)


# -- the driver ----------------------------------------------------------------


def _shard_paths(shard_dir: str, name: str):
    base = os.path.join(shard_dir, name)
    os.makedirs(base, exist_ok=True)
    return base


# every record of a level goes to this one file, which the shard format
# names by the hex of the "P1" magic that starts every canonical code
_RECORDS_FILE = "50.ndjson"


def _persist_records(base: str, records):
    with open(os.path.join(base, _RECORDS_FILE), "a", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json_dict(), sort_keys=True) + "\n")


def _complete_lines(path: str) -> list[bytes]:
    """The complete lines of the append-only log at ``path``, undecoded.

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
    return data[:complete].splitlines()


def _load_records(base: str, n: int):
    """Records persisted under ``base``, the level of ``n`` vertices, less a
    torn final line.  Any other line that is not a record of that level
    raises ConfigError, naming file and line; a line of another ``n`` is
    refused before its graph is built, let alone labeled."""
    records = {}
    path = os.path.join(base, _RECORDS_FILE)
    if not os.path.exists(path):
        return records
    for number, line in enumerate(_complete_lines(path), 1):
        if not line.strip():
            continue
        try:
            d = json.loads(line.decode("utf-8"))
            if isinstance(d, dict) and d.get("n") != n:
                raise TypeError(f"n is {d.get('n')!r}, not the level's {n}")
            rec = EnumerationRecord.from_json_dict(d)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}:{number}: not a record: {exc}") from None
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
    # a line that is no UTF-8 names no candidate either
    return lines[-1].decode("utf-8", "replace") if lines else None


def _skip_past(name: str, candidates, cursor: str) -> int:
    """Consume ``candidates`` up to and including the one that the CURSOR
    line ``cursor`` names, and return how many were consumed; a line naming
    none of the level's candidates is a ConfigError."""
    for done, under in enumerate(candidates, 1):
        if _cursor(under) == cursor:
            return done
    raise ConfigError(f"the CURSOR of level {name} names none of its candidates")


class _Run(ExitStack):
    """What one enumeration run keeps across its levels: the merged records,
    the wall-time budget, the shard directory and the worker pool.  The
    pool is opened once, on the first level with work; leaving the run's
    context terminates it, also on a budget error."""

    def __init__(self, jobs: int, shard_dir, resume: bool, wall_budget_s):
        super().__init__()
        self.jobs, self.shard_dir, self.resume = jobs, shard_dir, resume
        self.wall_budget_s = wall_budget_s
        self.started = time.monotonic()
        self.merged: dict[str, EnumerationRecord] = {}
        self.pool = None

    def records(self) -> list[EnumerationRecord]:
        return sorted(self.merged.values(), key=lambda r: (r.n, r.canonical_code))

    def check_budget(self) -> None:
        if (
            self.wall_budget_s is not None
            and time.monotonic() - self.started > self.wall_budget_s
        ):
            raise ResourceBudgetError(
                "wall-time budget exhausted", partial=self.records()
            )

    def scan_level(
        self, name: str, n: int, candidates, total: int, worker, progress=None
    ):
        """Scan the ``total`` candidates of one level, whose records are
        graphs on ``n`` vertices, taken from the iterator ``candidates`` as
        the scan reaches them, each through ``worker`` (``_worker``'s
        contract), and merge their records into the run's, by canonical
        code.

        With a shard directory, the level's record files and CURSOR log are
        in its subdirectory ``name``; a resumed level first reads back its
        records, refusing any of another ``n``, and consumes the candidates
        up to and including the one its log's last line names, and a level
        with nothing left opens no log.  After each scanned candidate the
        budget is checked and ``progress(done, todo)`` is called, ``todo``
        being the number of candidates the call scans.
        """
        candidates = iter(candidates)
        base = _shard_paths(self.shard_dir, name) if self.shard_dir else None
        cursor_path = os.path.join(base, "CURSOR") if base else None
        todo = total
        if base and self.resume:
            for rec in _load_records(base, n).values():
                self.merged.setdefault(rec.canonical_code, rec)
            cursor = _read_cursor(cursor_path)
            if cursor is not None:
                todo -= _skip_past(name, candidates, cursor)
        if not todo:
            return
        # leaving the level's context closes its cursor log
        with ExitStack() as stack:
            if base:
                records_path = os.path.join(base, _RECORDS_FILE)
                if not self.resume and os.path.exists(records_path):
                    # a fresh level starts an empty records file and an
                    # empty log: one truncation per level
                    os.remove(records_path)
                log = stack.enter_context(
                    open(cursor_path, "a" if self.resume else "w", encoding="utf-8")
                )
            if self.jobs > 1:
                if self.pool is None:
                    from multiprocessing import get_context

                    self.pool = self.enter_context(
                        get_context("fork").Pool(self.jobs)
                    )
                # a task's pickle round trip outweighs the scan of a few
                # candidates, and both ends hold a chunk whole: about sixteen
                # chunks of the level per worker, of at most _CHUNK_LIMIT
                chunk = max(4, min(_CHUNK_LIMIT, todo // (16 * self.jobs)))
                results = self.pool.imap(worker, candidates, chunksize=chunk)
            else:
                results = map(worker, candidates)
            for done, (line, records) in enumerate(results, 1):
                new_records = [
                    rec for rec in records
                    if self.merged.setdefault(rec.canonical_code, rec) is rec
                ]
                if base:
                    if new_records:
                        _persist_records(base, new_records)
                    log.write(line + "\n")
                    log.flush()
                if progress:
                    progress(done, todo)
                self.check_budget()


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
    if type(n_max) is not int or not 3 <= n_max <= FIND_CRITICAL_VERTEX_LIMIT:
        raise ConfigError(
            f"n_max must be within 3..{FIND_CRITICAL_VERTEX_LIMIT}"
        )
    if type(jobs) is not int or jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    if resume and not shard_dir:
        raise ConfigError("resume needs a shard directory")
    with _Run(jobs, shard_dir, resume, wall_budget_s) as run:
        for n in range(3, n_max + 1):
            candidates, total = _level_candidates(n, n == n_max, run.check_budget)
            run.scan_level(
                str(n), n, candidates, total, _worker,
                partial(progress, n) if progress else None,
            )
    return run.records()
