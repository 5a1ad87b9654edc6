"""Exhaustive enumeration of oriented graphs up to push isomorphism.

Underlying simple graphs are generated one per isomorphism class by
vertex augmentation with canonical-deletion acceptance: a child is kept
exactly when its new vertex lies in the automorphism orbit of the vertex
holding the highest canonical label, and attachment subsets range over
orbit representatives of the parent's automorphism group.  The push
classes of each underlying graph are decided all at once (below), and the
critical ones are reported with canonical codes.

Before a child is canonically labeled it must pass an O(n) max-degree
pretest (McKay's cheap-invariant pretest, "Isomorph-free exhaustive
generation", J. Algorithms 1998): its new vertex must have maximum degree
in the child.  The pretest is exact.  Canonical labeling first splits the
unit cell by degree in ascending order, and later splits never reorder
cells, so the highest canonical label always falls on a vertex of maximum
degree, as does every vertex of its orbit; a child whose new vertex has
lower degree than some other vertex would be rejected anyway.  The
certificate computed for each accepted child is carried along
(``UnderlyingGraph.cert``), so the scan never labels a candidate again to
name it in a shard cursor.

Candidates are the connected underlying graphs with minimum degree 2: a
pushably 3-critical graph has no isolated vertex (criticality is
undefined then), no vertex of degree 1 (it always extends a coloring)
and one component (components color independently).  From 5 vertices on,
generation also drops graphs with a K4 subgraph: such a graph is not
3-colorable, so it is critical only if it is K4 itself.

The scan decides every push class of a candidate G at once from its
3-colorings, with no search per orientation.  A pushable 3-coloring is a
homomorphism to AT(C3) = K_{2,2,2}.  Projected, it is a proper coloring
c: V -> Z3 together with a push set that carries the orientation onto
a(c), where u -> v iff c(v) = c(u) + 1.  So an orientation is colorable
exactly when its class lies in the image Im of the classes of a(c) over
the proper c with c(0) = 0 (shifting every color leaves a(c) as it is).
Classes are co-forest bit vectors (``orient.ClassCoordinates``), and
reversing an edge e changes a class by z_e.

A class k is critical when it is not colorable but each arc deletion is.
Deleting the arc on edge e leaves an orientation of G - e, and a coloring
of it projects to a map c that is proper on G - e.  Either c is proper on
G: the deletion pushes onto a(c) less e, so k or k xor z_e is in Im.  Or
e is c's only monochromatic edge: then k or k xor z_e lies in Mono_e, the
classes of a(c) with e's bit fixed.  Conversely each such c colors the
deletion.  So k is critical iff k is not in Im and, for every edge e,
k xor z_e is in Im, k is in Mono_e or k xor z_e is in Mono_e.  The test
is exact, so the scan assumes none of the structural lemmas that
``underlying_prune_verdict`` states.  The candidate classes are those the
first edge admits.  Each later Mono_e is enumerated only when some
remaining candidate needs it, as the maps with c(lo) = c(hi) forced.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from multiprocessing import get_context

from .canon import canonical_data, canonical_form, encode_underlying_cert, orbit_of
from .chains import classify_vertices
from .errors import ConfigError, ResourceBudgetError
from .graph import (
    POTENTIAL_ARC_WEIGHT,
    POTENTIAL_VERTEX_WEIGHT,
    Arc,
    OrientedGraph,
    potential,
)
from .orient import class_coordinates, push_class_representatives

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
    # the canonical certificate from ``canonical_data``, set by generation
    cert: int | None = field(default=None, compare=False, repr=False)

    @property
    def masks(self) -> tuple[int, ...]:
        out = [0] * self.vertex_count
        for lo, hi in self.edges:
            out[lo] |= 1 << hi
            out[hi] |= 1 << lo
        return tuple(out)

    def min_degree(self) -> int:
        if self.vertex_count == 0:
            return 0
        return min(bin(m).count("1") for m in self.masks)

    def is_connected(self) -> bool:
        n = self.vertex_count
        masks = self.masks
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            m = frontier
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                nxt |= masks[v]
            frontier = nxt & ~seen
            seen |= nxt
        return seen == (1 << n) - 1 if n else True


def _masks_to_edges(masks) -> tuple[tuple[int, int], ...]:
    n = len(masks)
    return tuple(
        (lo, hi) for lo in range(n) for hi in range(lo + 1, n) if masks[lo] >> hi & 1
    )


def _permute_mask(mask: int, perm) -> int:
    out = 0
    while mask:
        b = mask & -mask
        mask ^= b
        out |= 1 << perm[b.bit_length() - 1]
    return out


def _subset_orbit_reps(nbits: int, gens) -> list[int]:
    if not gens:
        return list(range(1 << nbits))
    seen = bytearray(1 << nbits)
    reps = []
    for mask in range(1 << nbits):
        if seen[mask]:
            continue
        reps.append(mask)
        seen[mask] = 1
        stack = [mask]
        while stack:
            cur = stack.pop()
            for g in gens:
                img = _permute_mask(cur, g)
                if not seen[img]:
                    seen[img] = 1
                    stack.append(img)
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


_Level = list[tuple[tuple[int, ...], int]]
_LEVEL_CACHE: dict[tuple[int, bool], _Level] = {}


def _graphs_on(n: int, forbid_k4: bool, tick=None) -> _Level:
    """(adjacency masks, canonical cert) pairs, one per isomorphism class
    on n vertices.

    ``tick`` is called before each parent is extended; it may raise to
    abandon the level, which is then not cached.
    """
    key = (n, forbid_k4)
    if key in _LEVEL_CACHE:
        return _LEVEL_CACHE[key]
    if n == 1:
        level = [((0,), 0)]
    else:
        level = []
        for parent, _ in _graphs_on(n - 1, forbid_k4, tick):
            if tick is not None:
                tick()
            _, _, pgens = canonical_data(parent)
            for smask in _subset_orbit_reps(n - 1, pgens):
                child = tuple(
                    parent[v] | ((smask >> v & 1) << (n - 1)) for v in range(n - 1)
                ) + (smask,)
                # the max-degree pretest (see the module docstring)
                degree = smask.bit_count()
                if any(m.bit_count() > degree for m in child):
                    continue
                if forbid_k4 and _adds_k4(parent, smask):
                    continue
                cert, labeling, cgens = canonical_data(child)
                deleted = labeling.index(n - 1)
                if n - 1 in orbit_of(deleted, cgens, lambda g, v: g[v]):
                    level.append((child, cert))
    _LEVEL_CACHE[key] = level
    return level


def enumerate_underlying(
    n: int, min_degree: int = 2, forbid_k4: bool = False, tick=None
):
    """All connected simple graphs on n vertices with the degree floor,
    one per isomorphism class, each carrying its canonical ``cert``.

    ``tick`` is called between parents while a level is generated.
    """
    if not 1 <= n <= UNDERLYING_VERTEX_LIMIT:
        raise ConfigError(
            f"underlying enumeration supports 1..{UNDERLYING_VERTEX_LIMIT} vertices"
        )
    if min_degree not in (0, 1, 2):
        raise ConfigError("min_degree must be 0, 1 or 2")
    for masks, cert in _graphs_on(n, forbid_k4, tick):
        ug = UnderlyingGraph(n, _masks_to_edges(masks), cert)
        if ug.min_degree() >= min_degree and ug.is_connected():
            yield ug


def enumerate_orientations_mod_push(under: UnderlyingGraph, dedup_iso: bool = False):
    """One orientation per push class; optionally also quotient by iso."""
    seen = set()
    out = []
    for arcs in push_class_representatives(
        under.vertex_count, under.edges, range(under.vertex_count)
    ):
        g = OrientedGraph(under.vertex_count, arcs)
        if dedup_iso:
            code = canonical_form(g)
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


_UNBANNED = tuple(tuple(x for x in range(3) if not banned >> x & 1) for banned in range(8))


def _coloring_image(earlier, base: int, equal=None) -> set[int]:
    """The classes of a(c) over the maps c: positions -> Z3 with c(0) = 0
    that are proper on every listed edge.

    ``earlier[i]`` lists (j, d, z) for each edge from position i back to a
    position j < i: i may not take j's color, and taking color c(j) + d
    points that edge lo -> hi, which adds z to the class (starting from
    ``base``).  ``equal = (i, j)`` also forces position i to take j's
    color; the edge between them is left out of the lists.
    """
    last = len(earlier) - 1
    eq_i, eq_j = equal or (-1, -1)
    image = set()
    colors = [0] * len(earlier)
    stack = [(0, 0, base)]
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
        if i == eq_i:
            banned |= 7 ^ 1 << colors[eq_j]
        for x in _UNBANNED[banned]:
            if i == last:
                image.add(opts[x])
            else:
                stack.append((i, x, opts[x]))
    return image


def _critical_orientations(n: int, edges) -> list[tuple[Arc, ...]]:
    """The normalized orientations (``orient.ClassCoordinates.arcs``, all
    vertices movable) of the pushably 3-critical classes of the connected
    graph on ``edges``, n >= 2, in ascending order of the class bits.  See
    the module docstring for why this is exact."""
    coords = class_coordinates(n, edges, range(n))
    masks = coords.masks
    order = [0] + [child for _, child in coords.forest]
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    earlier = [[] for _ in range(n)]
    for lo, hi in edges:
        i, j = pos[lo], pos[hi]
        # the edge points lo -> hi when c(hi) = c(lo) + 1
        if i < j:
            earlier[j].append((i, 1, masks[lo, hi]))
        else:
            earlier[i].append((j, 2, masks[lo, hi]))
    image = _coloring_image(earlier, coords.base)
    if len(image) == 1 << len(coords.free):
        return []

    def mono(e):
        """Mono_e, with e's bit taking both values.  The maps proper on all
        of G are left out (c(lo) = c(hi) is forced): they add only classes
        whose e-reversal is in Im, which the caller tests first."""
        i, j = sorted((pos[e[0]], pos[e[1]]), reverse=True)
        lists = list(earlier)
        lists[i] = [t for t in earlier[i] if t[0] != j]
        found = _coloring_image(lists, coords.base, (i, j))
        return found | {k ^ masks[e] for k in found}

    first = edges[0]
    candidates = ({k ^ masks[first] for k in image} | mono(first)) - image
    for e in edges[1:]:
        if not candidates:
            break
        pending = {k for k in candidates if k ^ masks[e] not in image}
        if pending:
            candidates -= pending - mono(e)
    return [coords.arcs(k) for k in sorted(candidates)]


def _scan_underlying_for_critical(under: UnderlyingGraph):
    """All critical orientations of one underlying graph, as (code, graph):
    per canonical code, the class with the smallest bits."""
    found = {}
    for arcs in _critical_orientations(under.vertex_count, under.edges):
        g = OrientedGraph(under.vertex_count, arcs)
        found.setdefault(canonical_form(g), g)
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
    """The shard CURSOR naming a generated candidate: its underlying_cert."""
    return encode_underlying_cert(under.vertex_count, under.cert).hex()


def _worker(under: UnderlyingGraph):
    hits = [
        (code, g.vertex_count, tuple(g.arcs))
        for code, g in _scan_underlying_for_critical(under)
    ]
    return _cursor(under), hits


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


def _load_records(base: str):
    """Records persisted under ``base``, cutting off a torn final line.

    A crash mid-append leaves a final line without its newline.  It is
    dropped from the file: CURSOR moves only after records are persisted,
    so the resumed run scans that candidate again and re-appends it.
    """
    records = {}
    if not os.path.isdir(base):
        return records
    for fname in sorted(os.listdir(base)):
        if not fname.endswith(".ndjson"):
            continue
        with open(os.path.join(base, fname), "rb+") as fh:
            data = fh.read()
            complete = data.rfind(b"\n") + 1
            if complete < len(data):
                fh.truncate(complete)
        for line in data[:complete].decode("utf-8").splitlines():
            line = line.strip()
            if line:
                rec = EnumerationRecord.from_json_dict(json.loads(line))
                records[rec.canonical_code] = rec
    return records


def find_critical(
    n_max: int,
    k: int = 3,
    jobs: int = 1,
    shard_dir: str | None = None,
    resume: bool = False,
    wall_budget_s: float | None = None,
    progress=None,
):
    """Every pushably 3-critical oriented graph on <= n_max vertices,
    one record per push-isomorphism class.

    ``wall_budget_s`` is checked between generated parents and between
    scanned candidates; ``progress(n, i, total)`` is called after each
    scanned candidate.
    """
    if k != 3:
        raise ConfigError("the enumeration scan is specialised to k = 3")
    if not 3 <= n_max <= FIND_CRITICAL_VERTEX_LIMIT:
        raise ConfigError(
            f"n_max must be within 3..{FIND_CRITICAL_VERTEX_LIMIT}"
        )
    started = time.monotonic()
    exception_codes = _exception_codes()
    merged: dict[str, EnumerationRecord] = {}

    def records():
        return sorted(merged.values(), key=lambda r: (r.n, r.canonical_code))

    def check_budget() -> None:
        if wall_budget_s is not None and time.monotonic() - started > wall_budget_s:
            raise ResourceBudgetError("wall-time budget exhausted", partial=records())

    for n in range(3, n_max + 1):
        candidates = list(
            enumerate_underlying(n, 2, forbid_k4=n >= 5, tick=check_budget)
        )
        base = _shard_paths(shard_dir, n) if shard_dir else None
        cursor_path = os.path.join(base, "CURSOR") if base else None
        start_at = 0
        if base and resume:
            for rec in _load_records(base).values():
                merged.setdefault(rec.canonical_code, rec)
            if os.path.exists(cursor_path):
                cursor = open(cursor_path, encoding="utf-8").read().strip()
                for idx, ug in enumerate(candidates):
                    if _cursor(ug) == cursor:
                        start_at = idx + 1
                        break
        todo = candidates[start_at:]
        if not todo:
            continue

        def handle(ucert: str, hits):
            new_records = []
            for code, gn, arcs in hits:
                if code not in merged:
                    rec = make_record(code, OrientedGraph(gn, arcs), exception_codes)
                    merged[code] = rec
                    new_records.append(rec)
            if base:
                if new_records:
                    _persist_records(base, new_records)
                with open(cursor_path, "w", encoding="utf-8") as fh:
                    fh.write(ucert + "\n")

        # leaving the pool's context terminates it, also on a budget error
        with get_context("fork").Pool(jobs) if jobs > 1 else nullcontext() as pool:
            if pool is None:
                results = map(_worker, todo)
            else:
                results = pool.imap(_worker, todo, chunksize=4)
            for i, (ucert, hits) in enumerate(results):
                handle(ucert, hits)
                if progress:
                    progress(n, i + 1, len(todo))
                check_budget()
    return records()
