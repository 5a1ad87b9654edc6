"""Underlying-graph generation, orientation classes, the coloring-image
scan against search oracles, and soundness audits for the structural
lemmas it no longer relies on."""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
import weakref
from types import SimpleNamespace

import pytest

import pushcrit as pc
from pushcrit import cli, enumeration
from pushcrit.canon import (
    CanonicalLabeling,
    _refine,
    canonical_data,
    canonical_form,
    orbit_of,
    underlying_cert,
)
from pushcrit.chains import Kernel
from pushcrit.crit import VERDICT_CRITICAL
from pushcrit.enumeration import (
    EnumerationRecord,
    UnderlyingGraph,
    _adds_k4,
    _attachment_sets,
    _critical_records,
    _graphs_on,
    _permute_mask,
    _root_cell_verdict,
    enumerate_underlying,
    find_critical,
    make_record,
    underlying_prune_verdict,
    verify_density_bound,
)
from pushcrit.errors import ConfigError, ResourceBudgetError
from pushcrit.graph import OrientedGraph, adjacency, forward_parity
from pushcrit.hom import AT_C3, solve_mapping, target_index
from pushcrit.orient import class_coordinates, push_class_representatives
from pushcrit.transfer import ChainGraph

from conftest import attach_path, underlying_is_connected, underlying_min_degree


KNOWN_GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


def test_isomorphism_class_counts():
    for n, count in KNOWN_GRAPH_COUNTS.items():
        assert len(_graphs_on(n, False)) == count


def test_generation_agrees_with_networkx_atlas():
    networkx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    atlas = [g for g in graph_atlas_g() if g.number_of_nodes() == 6]
    assert len(atlas) == len(_graphs_on(6, False))


def _subset_orbit_reps(nbits: int, gens) -> list[int]:
    """The least mask of every orbit of the group on all 2^nbits subsets,
    formed one by one: the oracle for generation's feasible-subset walk."""
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


def _levels_without_pretest(n_max, forbid_k4):
    """Canonical augmentation as in _graphs_on, minus the max-degree pretest."""
    levels = [[(0,)]]
    for n in range(2, n_max + 1):
        level = []
        for parent in levels[-1]:
            _, _, pgens = canonical_data(parent)
            for smask in _subset_orbit_reps(n - 1, pgens):
                if forbid_k4 and _adds_k4(parent, smask):
                    continue
                child = tuple(
                    p | (smask >> v & 1) << (n - 1) for v, p in enumerate(parent)
                ) + (smask,)
                _, labeling, cgens = canonical_data(child)
                if n - 1 in orbit_of(labeling.index(n - 1), cgens, lambda g, v: g[v]):
                    level.append(child)
        levels.append(level)
    return levels


@pytest.mark.parametrize("forbid_k4", [False, True])
def test_pretest_keeps_every_accepted_child(forbid_k4):
    for n, level in enumerate(_levels_without_pretest(7, forbid_k4), start=1):
        assert list(_graphs_on(n, forbid_k4)) == level


def _child(parent, smask):
    n = len(parent)
    return tuple(p | (smask >> v & 1) << n for v, p in enumerate(parent)) + (smask,)


def _is_candidate(masks):
    """Minimum degree 2 and connected, by a plain search from vertex 0."""
    if min(m.bit_count() for m in masks) < 2:
        return False
    reached, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for u in range(len(masks)):
            if masks[v] >> u & 1 and u not in reached:
                reached.add(u)
                stack.append(u)
    return len(reached) == len(masks)


@pytest.mark.parametrize("forbid_k4", [False, True])
def test_feasible_subsets_are_the_pretest_survivors(forbid_k4):
    # the walk over every subset, filtered by the max-degree pretest on the
    # child; with cover, also by the child being a candidate
    for n in range(1, 8):
        for parent in _graphs_on(n, forbid_k4):
            _, _, gens = canonical_data(parent)
            passing = [
                s
                for s in _subset_orbit_reps(n, gens)
                if max(m.bit_count() for m in _child(parent, s)) == s.bit_count()
            ]
            assert _attachment_sets(parent, gens) == passing
            covered = [s for s in passing if _is_candidate(_child(parent, s))]
            assert _attachment_sets(parent, gens, cover=True) == covered


def test_top_level_is_the_filtered_full_level(monkeypatch):
    calls = [0]

    def labeled(adj, cells=None):
        calls[0] += 1
        return canonical_data(adj, cells)

    monkeypatch.setattr(enumeration, "_LEVEL_CACHE", {})
    monkeypatch.setattr(enumeration, "canonical_data", labeled)
    for forbid_k4, n_max in ((False, 7), (True, 8)):
        for n in range(1, n_max + 1):
            calls[0] = 0
            top = _graphs_on(n, forbid_k4, top=True)
            top_labelings = calls[0]
            full = _graphs_on(n, forbid_k4)
            full_labelings = calls[0] - top_labelings
            assert list(top) == [m for m in full if _is_candidate(m)]
    # K4-free on 8 vertices: the 3,328 candidates among the 6,431 graphs
    # take 642 labelings instead of 6,453
    assert (len(top), len(full)) == (3328, 6431)
    assert (top_labelings, full_labelings) == (642, 6453)


def _full_refinement_verdict(child):
    """The root-cell verdict as first written: a new vertex of unique
    maximum degree is accepted, else the unit cell is refined to the end."""
    new = len(child) - 1
    size = child[new].bit_count()
    if all(child[v].bit_count() < size for v in range(new)):
        return True
    last = _refine(child, [list(range(len(child)))])[-1]
    if new not in last:
        return False
    return True if len(last) == 1 else None


# the children of each full level that the root partition rejects, per
# forbid_k4 and n: the labelings generation saves
_REJECTED_CHILDREN = {
    False: {2: 0, 3: 0, 4: 0, 5: 3, 6: 28, 7: 355},
    True: {2: 0, 3: 0, 4: 0, 5: 3, 6: 24, 7: 257, 8: 3335},
}


@pytest.mark.parametrize(
    "forbid_k4, n_max, top_verdicts",
    [
        (False, 7, {True: 317, False: 179, None: 191}),
        # the K4-free top level on 8 vertices: 5,183 children, 642 labeled
        (True, 8, {True: 2705, False: 1836, None: 642}),
    ],
)
def test_root_cell_verdicts_agree_with_labeling(forbid_k4, n_max, top_verdicts):
    # every child a full level or the top level could meet: a decided
    # verdict is canonical-deletion acceptance by a labeling, the early
    # exit decides as the refinement run to the end would, and a labeling
    # resumed from the partition it reached is the labeling from scratch
    rejected = {}
    for n in range(2, n_max + 1):
        verdicts = {True: 0, False: 0, None: 0}
        rejected[n] = 0
        for cover in (False, True):
            for parent in _graphs_on(n - 1, forbid_k4):
                _, _, gens = canonical_data(parent)
                for smask in _attachment_sets(parent, gens, cover):
                    if forbid_k4 and _adds_k4(parent, smask):
                        continue
                    child = _child(parent, smask)
                    labeled = canonical_data(child)
                    _, labeling, cgens = labeled
                    accepted = n - 1 in orbit_of(
                        labeling.index(n - 1), cgens, lambda g, v: g[v]
                    )
                    verdict, cells = _root_cell_verdict(child)
                    assert verdict in (None, accepted), child
                    assert verdict == _full_refinement_verdict(child), child
                    assert canonical_data(child, cells) == labeled, child
                    if cover:
                        verdicts[verdict] += 1
                    elif verdict is False:
                        rejected[n] += 1
    assert rejected == _REJECTED_CHILDREN[forbid_k4]
    assert verdicts == top_verdicts


def test_a_top_level_never_becomes_a_parent(monkeypatch):
    monkeypatch.setattr(enumeration, "_LEVEL_CACHE", {})
    find_critical(7)
    after_seven = [r.to_json_dict() for r in find_critical(8)]
    monkeypatch.setattr(enumeration, "_LEVEL_CACHE", {})
    assert after_seven == [r.to_json_dict() for r in find_critical(8)]


def _regenerated_level(n, forbid_k4, top, parents):
    """A level as a list of mask tuples, built from the list ``parents`` of
    the level below with every generator from a labeling from scratch: the
    reference for the cached buffers."""
    level = []
    for parent in parents:
        for smask in _attachment_sets(parent, canonical_data(parent)[2], top):
            if forbid_k4 and _adds_k4(parent, smask):
                continue
            child = _child(parent, smask)
            verdict, _ = _root_cell_verdict(child)
            if verdict is False:
                continue
            _, labeling, gens = canonical_data(child)
            if verdict or n - 1 in orbit_of(labeling.index(n - 1), gens, lambda g, v: g[v]):
                level.append(child)
    return level


def test_cached_levels_read_back_as_generated(monkeypatch):
    monkeypatch.setattr(enumeration, "_LEVEL_CACHE", {})
    find_critical(8)
    cache = enumeration._LEVEL_CACHE
    # levels 3 and 4 without the K4 test, 5 to 7 with it, and the top level
    assert set(cache) == {(n, False, False) for n in range(1, 5)} | {
        (n, True, False) for n in range(1, 8)
    } | {(8, True, True)}
    for forbid_k4 in (False, True):
        parents = [(0,)]
        assert list(cache[1, forbid_k4, False]) == parents
        for n in range(2, 9):
            top = (n, forbid_k4, True) in cache
            if not top and (n, forbid_k4, False) not in cache:
                break
            level = cache[n, forbid_k4, top]
            want = _regenerated_level(n, forbid_k4, top, parents)
            assert len(level) == len(want)
            assert list(level) == want
            if top:
                assert level.gens is None
            else:
                assert list(level.generators()) == [
                    canonical_data(masks)[2] for masks in want
                ]
            parents = want


def test_the_level_cache_is_compact(monkeypatch):
    # what dropping the levels of find_critical(8) frees: 3 and 4 without
    # the K4 test, 5 to 7 with it, and the 3,328 graphs of the top level;
    # as lists of tuples they took about 950 KiB
    monkeypatch.setattr(enumeration, "_LEVEL_CACHE", {})
    tracemalloc.start()
    try:
        _graphs_on(4, False)
        _graphs_on(8, True, top=True)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        enumeration._LEVEL_CACHE.clear()
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert freed < 256 * 1024


def test_min_degree_two_examples():
    assert len(list(enumerate_underlying(3))) == 1
    found4 = list(enumerate_underlying(4))
    assert len(found4) == 3
    assert sorted(len(u.edges) for u in found4) == [4, 5, 6]


def test_forbid_k4_generation():
    found = list(enumerate_underlying(4, forbid_k4=True))
    assert sorted(len(u.edges) for u in found) == [4, 5]
    for n in (5, 6):
        for under in enumerate_underlying(n, forbid_k4=True):
            assert underlying_prune_verdict(under)[1] != "k4_subgraph"


def test_n5_count_matches_brute_force():
    # independent oracle: all 2^10 edge subsets, dedup by permutations
    edges_all = list(itertools.combinations(range(5), 2))
    seen = set()
    count = 0
    for bits in range(1 << 10):
        edges = frozenset(e for i, e in enumerate(edges_all) if bits >> i & 1)
        degs = [sum(1 for e in edges if v in e) for v in range(5)]
        if min(degs) < 2:
            continue
        ug = UnderlyingGraph(5, tuple(sorted(edges)))
        if not underlying_is_connected(ug):
            continue
        canon = min(
            tuple(sorted((min(p[a], p[b]), max(p[a], p[b])) for a, b in edges))
            for p in itertools.permutations(range(5))
        )
        if canon not in seen:
            seen.add(canon)
            count += 1
    assert count == len(list(enumerate_underlying(5)))


def test_generated_masks_are_the_edges_masks():
    # generation hands its candidates the masks it built their edges from;
    # they must be the masks an UnderlyingGraph builds from its edges, also
    # after a round trip through a pool worker's pickle
    for n in range(3, 7):
        for ug in enumerate_underlying(n):
            built = UnderlyingGraph(n, ug.edges)
            assert ug.masks == built.masks == tuple(adjacency(n, ug.edges))
            assert pickle.loads(pickle.dumps(ug)).masks == built.masks


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


def test_orientation_classes_of_c4():
    under = UnderlyingGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    classes = enumerate_orientations_mod_push(under)
    assert len(classes) == 2
    parities = {forward_parity(g, (0, 1, 2, 3)) for g in classes}
    assert parities == {0, 1}


def test_orientation_classes_of_tree_and_triangle():
    tree = UnderlyingGraph(4, ((0, 1), (0, 2), (0, 3)))
    assert len(enumerate_orientations_mod_push(tree)) == 1
    k3 = UnderlyingGraph(3, ((0, 1), (0, 2), (1, 2)))
    # two labeled push classes (the cycle-parity invariant), one after
    # also quotienting by isomorphism
    assert len(enumerate_orientations_mod_push(k3)) == 2
    assert len(enumerate_orientations_mod_push(k3, dedup_iso=True)) == 1


def test_orientation_class_count_formula(rng):
    for _ in range(8):
        n = rng.randint(3, 6)
        base = UnderlyingGraph(
            n,
            tuple(
                (a, b)
                for a in range(n)
                for b in range(a + 1, n)
                if rng.random() < 0.6
            ),
        )
        if not underlying_is_connected(base) or not base.edges:
            continue
        classes = enumerate_orientations_mod_push(base)
        assert len(classes) == 2 ** (len(base.edges) - n + 1)
        for i, g in enumerate(classes):
            for h in classes[i + 1 :]:
                assert pc.is_push_equivalent(g, h) is None


def test_orientation_dedup_iso_is_coarser():
    under = UnderlyingGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    assert len(enumerate_orientations_mod_push(under, dedup_iso=True)) == 2
    k4 = UnderlyingGraph(4, tuple(itertools.combinations(range(4), 2)))
    plain = enumerate_orientations_mod_push(k4)
    deduped = enumerate_orientations_mod_push(k4, dedup_iso=True)
    assert len(deduped) <= len(plain)


def _four_cycles(n: int, masks):
    cycles = []
    for a in range(n):
        for c in range(a + 1, n):
            common = masks[a] & masks[c] & ~((1 << (a + 1)) - 1)
            lst = [b for b in range(n) if common >> b & 1]
            for i in range(len(lst)):
                for j in range(i + 1, len(lst)):
                    cycles.append((a, lst[i], c, lst[j]))
    return cycles


def _even_classes(under, cycles):
    """The push classes of ``under``, in the walk's order, on which every
    closed walk of ``cycles`` has even forward parity."""
    n = under.vertex_count
    for arcs in push_class_representatives(n, under.edges, range(n)):
        g = OrientedGraph(n, arcs)
        if not any(forward_parity(g, c) for c in cycles):
            yield g


def _scan_survivors(under):
    """The scan's orientation classes: no odd 4-cycle (m > 4 here)."""
    cycles = _four_cycles(under.vertex_count, under.masks)
    return [g.arcs for g in _even_classes(under, cycles)]


def test_survivor_filter_matches_direct_parity_check():
    under = UnderlyingGraph(5, ((0, 1), (1, 2), (2, 3), (0, 3), (2, 4), (3, 4)))
    survivors = []
    for arcs in push_class_representatives(5, under.edges, range(5)):
        g = pc.OrientedGraph(5, arcs)
        if forward_parity(g, (0, 1, 2, 3)) == 0:
            survivors.append(arcs)
    assert survivors == _scan_survivors(under)


def _scan_by_search(under):
    """The per-orientation scan the coloring image replaced: structural
    prunes, the odd 4-cycle filter, then AT(C3) searches per class and per
    deleted arc."""
    if not underlying_prune_verdict(under)[0]:
        return []
    n = under.vertex_count
    # the 4-cycle itself is exempt from the odd 4-cycle prune
    even = _four_cycles(n, under.masks) if len(under.edges) > 4 else ()
    at_idx = target_index(AT_C3)
    found = {}
    for g in _even_classes(under, even):
        if solve_mapping(g, at_idx)[0] is not None:
            continue
        if all(solve_mapping(g.delete_arc(a), at_idx)[0] is not None for a in sorted(g.arcs)):
            found.setdefault(pc.canonical_form(g), g)
    return sorted((code.hex(), g) for code, g in found.items())


def test_coloring_image_scan_equals_the_search_scan():
    for n in range(3, 8):
        for under in enumerate_underlying(n, forbid_k4=n >= 5):
            kernel = Kernel.of(n, under.edges, range(n))
            got = [(r.canonical_code, r.arcs) for r in _critical_records(kernel)]
            want = [(code, tuple(sorted(g.arcs))) for code, g in _scan_by_search(under)]
            assert got == want, under


def _random_min_degree_2_graph(rng, n):
    while True:
        p = rng.choice((0.4, 0.55, 0.7))
        edges = tuple(
            (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p
        )
        under = UnderlyingGraph(n, edges)
        if edges and underlying_min_degree(under) >= 2 and underlying_is_connected(under):
            return under


def test_critical_classes_agree_with_the_criticality_routine(rng):
    # seeded random graphs, K4s allowed; and random relabelings of the
    # critical graphs on <= 7 vertices, which have critical classes, each
    # also with a random chord added as the first edge (0, 1), which makes
    # those classes non-minimal
    graphs = [_random_min_degree_2_graph(rng, rng.randint(3, 7)) for _ in range(24)]
    records = find_critical(7)
    for record in records:
        n = record.n
        edges = {(min(a), max(a)) for a in record.arcs}
        a, b = rng.choice(sorted(set(itertools.combinations(range(n), 2)) - edges))
        rest = rng.sample([v for v in range(n) if v not in (a, b)], n - 2)
        label = {v: i for i, v in enumerate([a, b] + rest)}
        edges = {tuple(sorted((label[u], label[v]))) for u, v in edges}
        graphs.append(UnderlyingGraph(n, tuple(sorted(edges))))
        graphs.append(UnderlyingGraph(n, tuple(sorted(edges | {(0, 1)}))))
    critical = 0
    for under in graphs:
        n = under.vertex_count
        coords = class_coordinates(n, under.edges, range(n))
        # every critical class, not one per canonical code
        graph = ChainGraph(Kernel.of(n, under.edges, range(n)))
        found = [graph.coords.arcs(k) for k in graph.critical_classes()]
        classes = range(1 << len(coords.free))
        sample = [coords.arcs(bits) for bits in rng.sample(classes, min(64, len(classes)))]
        for arcs in sorted(set(sample) | set(found)):
            verdict = pc.is_pushably_k_critical(pc.OrientedGraph(n, arcs), 3).verdict
            assert (arcs in found) == (verdict == VERDICT_CRITICAL), (under, arcs)
        critical += len(found)
    assert critical >= len(records)


def test_records_satisfy_the_structural_lemmas():
    # the scan assumes none of them; the cyclomatic enumeration will need
    # the first two (no cut vertex, no long chain)
    for record in find_critical(8):
        g = pc.OrientedGraph(record.n, record.arcs)
        under = UnderlyingGraph(record.n, g.edges)
        assert underlying_prune_verdict(under) == (True, None)
        if record.m > 4:
            for cycle in _four_cycles(record.n, under.masks):
                assert forward_parity(g, cycle) == 0


def test_records_are_subdivided_kernels():
    # the family of the kernel route: for c >= 2 the vertices of degree
    # >= 3 span a loopless multigraph with minimum degree 3, n_k <= 2(c - 1)
    # and m_k = n_k + c - 1, whose edges carry chains of 1..4 edges; and the
    # scan's decide-and-name step, on the rebuilt kernel, names the classes
    # of every record with the same underlying graph, as the full scan does
    records = find_critical(8)
    certs = [underlying_cert(pc.OrientedGraph(r.n, r.arcs)) for r in records]

    def fields(r):
        return (r.canonical_code, r.n, r.m, r.potential, r.satisfies_bound, r.exception)

    checked = 0
    for record, cert in zip(records, certs):
        g = pc.OrientedGraph(record.n, record.arcs)
        c = record.m - record.n + 1
        if c < 2:
            continue
        kept = [v for v, d in enumerate(g.degrees) if d >= 3]
        paths = Kernel.of(record.n, g.edges, kept).paths
        index = {v: i for i, v in enumerate(kept)}
        kernel_edges = [(index[p[0]], index[p[-1]]) for p in paths]
        lengths = [len(p) - 1 for p in paths]
        degree = [0] * len(kept)
        for a, b in kernel_edges:
            degree[a] += 1
            degree[b] += 1
        assert min(degree) >= 3
        assert len(kept) <= 2 * (c - 1)
        assert len(kernel_edges) == len(kept) + c - 1
        assert max(lengths) <= 4
        assert all(a != b for a, b in kernel_edges)
        rebuilt = Kernel.subdivided(len(kept), kernel_edges, lengths)
        rebuilt_graph = pc.OrientedGraph(rebuilt.n, tuple(rebuilt.edges))
        assert underlying_cert(rebuilt_graph) == cert
        same = [r for r, c in zip(records, certs) if c == cert]
        assert [fields(r) for r in _critical_records(rebuilt)] == [fields(r) for r in same]
        checked += 1
    assert checked == 15


def test_find_critical_complete_against_brute_force_at_5():
    # independent completeness oracle: every labeled edge set on 5
    # vertices, every orientation class, decided by the unpruned
    # criticality routine; the pruned scan must find the same classes
    edges_all = list(itertools.combinations(range(5), 2))
    expected = set()
    for bits in range(1 << 10):
        edges = tuple(e for i, e in enumerate(edges_all) if bits >> i & 1)
        under = UnderlyingGraph(5, edges)
        if not edges or underlying_min_degree(under) < 2 or not underlying_is_connected(under):
            continue
        for g in enumerate_orientations_mod_push(under):
            if pc.is_pushably_k_critical(g, 3).verdict == VERDICT_CRITICAL:
                expected.add(pc.canonical_form(g).hex())
    # the brute sweep spans exactly 5 vertices (an unused vertex would be
    # isolated), so compare against the scan's 5-vertex classes and check
    # the 4-vertex exception separately
    records = find_critical(5)
    got5 = {r.canonical_code for r in records if r.n == 5}
    assert expected == got5, (sorted(expected), sorted(got5))
    assert any(r.exception == "c_minus4" for r in records)


def test_push_class_representatives_hit_each_class_once(rng):
    edges = ((0, 1), (1, 2), (2, 3), (0, 3), (1, 3))
    movable = {1, 3}
    reps = list(push_class_representatives(4, edges, movable))
    # brute: group all orientations by reachability under movable pushes
    def orbit(arcs):
        out = set()
        for bits in range(4):
            s = {v for i, v in enumerate(sorted(movable)) if bits >> i & 1}
            out.add(pc.push_vertices(pc.OrientedGraph(4, arcs), s).arc_set)
        return frozenset(out)

    all_orientations = []
    for bits in range(1 << len(edges)):
        all_orientations.append(
            tuple(
                (lo, hi) if bits >> i & 1 else (hi, lo)
                for i, (lo, hi) in enumerate(edges)
            )
        )
    classes = {orbit(arcs) for arcs in all_orientations}
    assert len(reps) == len(classes) == 2 ** (len(edges) - len(movable))
    rep_classes = {orbit(arcs) for arcs in reps}
    assert rep_classes == classes


def test_find_critical_small():
    records = find_critical(5)
    assert any(r.exception == "c_minus4" for r in records)
    codes = [r.canonical_code for r in records]
    assert len(codes) == len(set(codes))
    for record in records:
        g = pc.OrientedGraph(record.n, record.arcs)
        assert pc.is_pushably_k_critical(g, 3).verdict == VERDICT_CRITICAL
        assert record.satisfies_bound == (13 * record.m >= 15 * record.n + 2)


def test_find_critical_rejects_nonpositive_jobs():
    for jobs in (0, -5, 1.5):
        with pytest.raises(ConfigError):
            find_critical(4, jobs=jobs)
    # and vertex counts that are no ints
    with pytest.raises(ConfigError):
        find_critical(5.0)
    with pytest.raises(ConfigError):
        list(enumerate_underlying(4.0))


def test_density_bound_report():
    records = find_critical(5)
    report = verify_density_bound(records)
    assert report.ok and "c_minus4" in report.exceptions_found
    fake = EnumerationRecord("ff", 4, 4, True, 8, False, None, ((0, 1),))
    bad = verify_density_bound(list(records) + [fake])
    assert not bad.ok and fake in bad.violators


def test_records_round_trip_through_json():
    # resume reads back what the shards wrote
    for record in find_critical(8):
        line = json.dumps(record.to_json_dict(), sort_keys=True)
        assert EnumerationRecord.from_json_dict(json.loads(line)) == record
    # a record without arcs is no record make_record builds
    bare = EnumerationRecord("ff", 4, 4, True, 8, False)
    with pytest.raises(TypeError):
        EnumerationRecord.from_json_dict(
            {k: v for k, v in bare.to_json_dict().items() if k not in ("exception", "arcs")}
        )


def test_shards_and_resume(tmp_path):
    shard_dir = os.path.join(tmp_path, "shards")
    baseline = find_critical(5)
    with pytest.raises(ResourceBudgetError):
        find_critical(5, shard_dir=shard_dir, wall_budget_s=0.0)
    assert os.path.exists(os.path.join(shard_dir, "3", "CURSOR"))
    resumed = find_critical(5, shard_dir=shard_dir, resume=True, jobs=2)
    assert [r.canonical_code for r in resumed] == [
        r.canonical_code for r in baseline
    ]
    # shard files hold one JSON record per line
    for sub in os.listdir(shard_dir):
        for fname in os.listdir(os.path.join(shard_dir, sub)):
            if fname.endswith(".ndjson"):
                with open(os.path.join(shard_dir, sub, fname)) as fh:
                    for line in fh:
                        EnumerationRecord.from_json_dict(json.loads(line))


def test_resume_needs_a_shard_directory():
    for shard_dir in (None, ""):
        with pytest.raises(ConfigError, match="shard directory"):
            find_critical(4, shard_dir=shard_dir, resume=True)


def test_resume_closes_the_cursor_file(tmp_path):
    shard_dir = str(tmp_path / "shards")
    find_critical(5, shard_dir=shard_dir)
    package_root = os.path.dirname(os.path.dirname(pc.__file__))
    script = (
        "import sys; from pushcrit.enumeration import find_critical; "
        "find_critical(5, shard_dir=sys.argv[1], resume=True)"
    )
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "always", "-c", script, shard_dir],
        env=dict(os.environ, PYTHONPATH=package_root),
        capture_output=True, text=True, check=True,
    )
    assert "ResourceWarning" not in done.stderr


def test_parallel_merge_is_deterministic():
    seq = find_critical(6, jobs=1)
    par = find_critical(6, jobs=2)
    assert [r.to_json_dict() for r in seq] == [r.to_json_dict() for r in par]


def test_a_parallel_run_opens_one_pool(monkeypatch):
    pools = []
    real = multiprocessing.get_context

    class CountingContext:
        def __init__(self, method):
            self.context = real(method)

        def Pool(self, *args, **kwargs):
            pools.append(args)
            return self.context.Pool(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "get_context", CountingContext)
    seq = find_critical(6, jobs=1)
    assert pools == []
    par = find_critical(6, jobs=2)
    # four levels with work, one pool
    assert pools == [(2,)]
    assert [r.to_json_dict() for r in seq] == [r.to_json_dict() for r in par]


def _cursor_hex(n: int, under: UnderlyingGraph) -> str:
    """The CURSOR line of a candidate: its lower adjacency triangle read as
    binary, row v = 1..n-1 from neighbor v - 1 down to neighbor 0, in hex
    with a digit per four bits or part of them."""
    masks = under.masks
    bits = "".join(str(masks[v] >> u & 1) for v in range(n) for u in reversed(range(v)))
    return format(int(bits or "0", 2), f"0{-(-len(bits) // 4)}x")


def _last_cursor(base: str) -> str:
    with open(os.path.join(base, "CURSOR")) as fh:
        text = fh.read()
    assert text.endswith("\n")
    return text.splitlines()[-1]


class _Crash(Exception):
    pass


def test_resume_repairs_a_torn_shard_tail(tmp_path, monkeypatch):
    # the third persisted batch (a 7-vertex class) is cut mid-line and the
    # run dies before it moves CURSOR; resuming must give a fresh run's records
    fresh = find_critical(7)
    shard_dir = str(tmp_path / "shards")
    real_persist, real_worker = enumeration._persist_records, enumeration._worker
    persisted, scanned = [], []

    def crashing_persist(base, records):
        real_persist(base, records)
        persisted.append(records)
        if len(persisted) == 3:
            path = os.path.join(base, records[-1].canonical_code[:2] + ".ndjson")
            with open(path, "r+b") as fh:
                fh.truncate(os.path.getsize(path) - 20)
            raise _Crash

    def recording_worker(under):
        scanned.append(under)
        return real_worker(under)

    monkeypatch.setattr(enumeration, "_persist_records", crashing_persist)
    monkeypatch.setattr(enumeration, "_worker", recording_worker)
    with pytest.raises(_Crash):
        find_critical(7, shard_dir=shard_dir)
    monkeypatch.undo()
    crashed, before = scanned[-1], scanned[-2]
    assert crashed.vertex_count == before.vertex_count == 7
    # the log's last line names the last candidate whose records persisted
    assert _last_cursor(os.path.join(shard_dir, "7")) == _cursor_hex(7, before)

    resumed = find_critical(7, shard_dir=shard_dir, resume=True)
    assert [r.to_json_dict() for r in resumed] == [r.to_json_dict() for r in fresh]
    on_disk = []
    for n in range(3, 8):
        base = os.path.join(shard_dir, str(n))
        for fname in sorted(os.listdir(base)):
            if fname.endswith(".ndjson"):
                with open(os.path.join(base, fname)) as fh:
                    text = fh.read()
                assert text.endswith("\n")
                on_disk += [json.loads(line)["canonical_code"] for line in text.splitlines()]
        level = list(enumerate_underlying(n, forbid_k4=n >= 5))
        assert _last_cursor(base) == _cursor_hex(n, level[-1])
    assert sorted(on_disk) == sorted(r.canonical_code for r in fresh)


def test_cursor_log_is_truncated_once_per_level(tmp_path, monkeypatch):
    opened = []

    def recording_open(path, mode="r", *args, **kwargs):
        opened.append((path, mode))
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(enumeration, "open", recording_open, raising=False)
    sharded = find_critical(7, shard_dir=str(tmp_path))
    monkeypatch.undo()
    cursor_opens = [
        (os.path.basename(os.path.dirname(path)), mode)
        for path, mode in opened
        if os.path.basename(path) == "CURSOR"
    ]
    # one open per level, never one per candidate
    assert sorted(cursor_opens) == [(str(n), "w") for n in range(3, 8)]
    assert [r.to_json_dict() for r in sharded] == [
        r.to_json_dict() for r in find_critical(7)
    ]
    # the log holds one line per scanned candidate, in scan order
    for n in range(3, 8):
        level = list(enumerate_underlying(n, forbid_k4=n >= 5))
        with open(tmp_path / str(n) / "CURSOR") as fh:
            assert fh.read().splitlines() == [_cursor_hex(n, ug) for ug in level]


def test_resume_cuts_a_torn_cursor_line(tmp_path):
    shard_dir = str(tmp_path)
    fresh = find_critical(6, shard_dir=shard_dir)
    path = os.path.join(shard_dir, "6", "CURSOR")
    with open(path) as fh:
        lines = fh.read().splitlines()
    # a crash mid-append: ten complete lines, then half of the next
    with open(path, "w") as fh:
        fh.write("".join(line + "\n" for line in lines[:10]) + lines[10][:5])
    resumed = find_critical(6, shard_dir=shard_dir, resume=True)
    assert [r.to_json_dict() for r in resumed] == [r.to_json_dict() for r in fresh]
    with open(path) as fh:
        assert fh.read().splitlines() == lines


def test_a_fresh_run_starts_empty_record_files(tmp_path):
    shard_dir = str(tmp_path)
    once = find_critical(6, shard_dir=shard_dir)
    again = find_critical(6, shard_dir=shard_dir)
    assert [r.to_json_dict() for r in again] == [r.to_json_dict() for r in once]
    lines = []
    for n in range(3, 7):
        base = os.path.join(shard_dir, str(n))
        for fname in os.listdir(base):
            if fname.endswith(".ndjson"):
                with open(os.path.join(base, fname)) as fh:
                    lines += fh.read().splitlines()
    codes = [json.loads(line)["canonical_code"] for line in lines]
    assert sorted(codes) == sorted(r.canonical_code for r in once)


def test_resume_rejects_a_cursor_naming_no_candidate(tmp_path, capsys):
    shard_dir = str(tmp_path)
    fresh = find_critical(6, shard_dir=shard_dir)
    path = os.path.join(shard_dir, "5", "CURSOR")
    # a 6-vertex line names no candidate on 5 vertices
    with open(os.path.join(shard_dir, "6", "CURSOR")) as fh:
        foreign = fh.readline()
    with open(path, "w") as fh:
        fh.write(foreign)
    with pytest.raises(ConfigError, match="level 5"):
        find_critical(6, shard_dir=shard_dir, resume=True)
    rc = cli.main(["enumerate", "--max-n", "6", "--shards", shard_dir, "--resume"])
    assert rc == cli.EXIT_USAGE and "level 5" in capsys.readouterr().err
    # an empty log, like an absent one, starts the level from its first
    # candidate
    open(path, "w").close()
    resumed = find_critical(6, shard_dir=shard_dir, resume=True)
    assert [r.to_json_dict() for r in resumed] == [r.to_json_dict() for r in fresh]
    level = list(enumerate_underlying(5, forbid_k4=True))
    with open(path) as fh:
        assert fh.read().splitlines() == [_cursor_hex(5, ug) for ug in level]


def test_a_cursor_line_names_no_graph_of_another_level():
    # unpadded, a 7-vertex candidate and a 9-vertex graph whose vertices
    # 0..5 span no edge can share a line; padded to their levels' widths,
    # 6 and 9 digits, they do not
    g7 = list(enumerate_underlying(7, forbid_k4=True))[-1]
    bits = int(_cursor_hex(7, g7), 16)
    # rows 6, 7 and 8 of a 9-vertex triangle are its last 6 + 7 + 8 bits
    edges = [
        (u, v)
        for v, shift in ((6, 15), (7, 8), (8, 0))
        for u in range(v)
        if bits >> (shift + u) & 1
    ]
    g9 = enumeration._from_masks(tuple(adjacency(9, edges)))
    line7, line9 = enumeration._cursor(g7), enumeration._cursor(g9)
    assert int(line9, 16) == int(line7, 16) and (len(line7), len(line9)) == (6, 9)
    with pytest.raises(ConfigError, match="level 9"):
        enumeration._skip_past("9", iter([g9]), line7)


def test_resume_rejects_a_cursor_copied_from_another_level(tmp_path, capsys):
    shard_dir = str(tmp_path)
    find_critical(7, shard_dir=shard_dir)
    logs = {}
    for n in range(3, 8):
        with open(os.path.join(shard_dir, str(n), "CURSOR")) as fh:
            logs[n] = fh.read()
        # every line of a level has the level's width, and the widths differ
        assert {len(line) for line in logs[n].splitlines()} == {-(-n * (n - 1) // 8)}
    for n, m in itertools.permutations(logs, 2):
        path = os.path.join(shard_dir, str(m), "CURSOR")
        with open(path, "w") as fh:
            fh.write(logs[n])
        rc = cli.main(["enumerate", "--max-n", "7", "--shards", shard_dir, "--resume"])
        assert rc == cli.EXIT_USAGE and f"level {m} " in capsys.readouterr().err
        with open(path, "w") as fh:
            fh.write(logs[m])


def test_resume_rejects_a_record_line_with_values_no_record_has(tmp_path, capsys):
    # every field is present, but no value is a record's: the shard is
    # damaged (exit 2), not a violator of the bound (exit 1)
    shard_dir = str(tmp_path)
    find_critical(5, shard_dir=shard_dir)
    with open(os.path.join(shard_dir, "4", "50.ndjson"), "a") as fh:
        fh.write(
            '{"arcs": null, "canonical_code": "zz", "critical": "no", "exception": null, '
            '"m": "x", "n": -3, "potential": 0, "satisfies_bound": false}\n'
        )
    rc = cli.main(["verify-bound", "--max-n", "5", "--shards", shard_dir, "--resume"])
    assert rc == cli.EXIT_USAGE and "not a record" in capsys.readouterr().err


def test_resume_refuses_a_record_of_another_level_unlabeled(
    tmp_path, monkeypatch, capsys
):
    # an arcless 60-vertex record is consistent in every field but its code,
    # which only labeling the graph could refute; level 4 refuses it by its
    # n alone, before its graph is built
    shard_dir = str(tmp_path)
    find_critical(5, shard_dir=shard_dir)
    path = os.path.join(shard_dir, "4", "50.ndjson")
    with open(path) as fh:
        count = len(fh.read().splitlines())
    forged = make_record("ab", OrientedGraph(60, ())).to_json_dict()
    with open(path, "a") as fh:
        fh.write(json.dumps(forged) + "\n")
    labeled = []

    def recorded(g):
        labeled.append(g.vertex_count)
        # labeling the arcless 60-vertex graph takes about a minute
        return b"" if g.vertex_count == 60 else canonical_form(g)

    monkeypatch.setattr(enumeration, "canonical_form", recorded)
    where = f"{path}:{count + 1}: not a record: n is 60, not the level's 4"
    with pytest.raises(ConfigError, match=re.escape(where)):
        find_critical(5, shard_dir=shard_dir, resume=True)
    rc = cli.main(["verify-bound", "--max-n", "5", "--shards", shard_dir, "--resume"])
    assert rc == cli.EXIT_USAGE and where in capsys.readouterr().err
    assert 60 not in labeled


def test_resume_skips_blank_record_lines(tmp_path):
    shard_dir = str(tmp_path)
    fresh = [r.to_json_dict() for r in find_critical(5, shard_dir=shard_dir)]
    path = os.path.join(shard_dir, "4", "50.ndjson")
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        # an empty line and a line of one space around every record
        fh.write("".join(f"\n{line}\n \n" for line in lines))
    resumed = find_critical(5, shard_dir=shard_dir, resume=True)
    assert [r.to_json_dict() for r in resumed] == fresh


# (field, a value for it, the rule the value breaks, the refusal's
# message): a line is read only if it is exactly the record make_record
# builds from its code and arcs, so the message names the fields that
# differ from that record, or the first check of the arcs that fails
REFUSED_VALUES = [
    ("canonical_code", "zz", "hex string", "disagree with canonical_code"),
    ("canonical_code", "ABCD", "hex string", "disagree with canonical_code"),
    ("canonical_code", "abc", "hex string", "disagree with canonical_code"),
    ("canonical_code", "", "hex string", "disagree with canonical_code"),
    ("canonical_code", 12, "hex string", "disagree with canonical_code"),
    ("n", -4, "non-negative integers", "a graph on -4 vertices"),
    ("n", True, "non-negative integers", "a graph on True vertices"),
    ("n", 4.0, "non-negative integers", "a graph on 4.0 vertices"),
    ("m", "4", "non-negative integers", ": m$"),
    ("m", None, "non-negative integers", ": m$"),
    ("critical", "no", "booleans", ": critical$"),
    ("critical", 1, "booleans", ": critical$"),
    ("satisfies_bound", 0, "booleans", ": satisfies_bound$"),
    ("exception", "f", "exception must be", ": exception$"),
    ("exception", 3, "exception must be", ": exception$"),
    ("arcs", [[0, 1], [0, 3], [1, 2]], "m pairs", "disagree with canonical_code"),
    ("arcs", [[0, 1], [0, 3], [1, 2], [2, 4]], "outside 0..3", "outside 0..3"),
    ("arcs", [[0, 1], [0, 3], [1, 2], [2, -1]], "outside 0..3", "outside 0..3"),
    ("arcs", [[0, 1], [0, 3], [1, 2], [2, True]], "outside 0..3", "outside 0..3"),
    ("arcs", [[0, 1], [0, 3], [1, 2], [2, "3"]], "outside 0..3", "outside 0..3"),
    ("arcs", 5, "pairs", "pairs"),
    ("arcs", [], "m pairs", "disagree with canonical_code"),
    ("arcs", [[0, 0], [0, 1], [1, 2], [2, 3]], "loop at vertex 0", "loop at vertex 0"),
    ("arcs", [[0, 1], [0, 1], [1, 2], [2, 3]], "parallel arc", "parallel arc"),
    ("arcs", [[0, 1], [1, 0], [1, 2], [2, 3]], "digon", "digon"),
    ("potential", 9, "potential", "potential"),
    ("potential", 8.0, "potential", "potential"),
    ("satisfies_bound", True, "disagrees", ": satisfies_bound$"),
    ("exception", "e1", "exception must be", ": exception$"),  # c_minus4's code is not e1's
    # the directed 4-cycle is no pushed copy of C-4
    ("arcs", [[0, 1], [1, 2], [2, 3], [3, 0]], "disagree with canonical_code", "disagree with canonical_code"),
]


def _refused_value_id(case):
    # the case's name: field, value and rule, as pytest names them
    i, (field, value, rule, _) = case
    if not isinstance(value, (str, int, float, type(None))):
        value = f"value{i}"
    return f"{field}-{value}-{rule}"


@pytest.mark.parametrize(
    "field, value, rule, message",
    REFUSED_VALUES,
    ids=map(_refused_value_id, enumerate(REFUSED_VALUES)),
)
def test_records_reject_values_of_the_wrong_type_or_range(field, value, rule, message):
    (record,) = find_critical(4)
    good = record.to_json_dict()
    assert EnumerationRecord.from_json_dict(good) == record
    with pytest.raises(TypeError, match=message):
        EnumerationRecord.from_json_dict({**good, field: value})


def test_records_reject_a_bound_that_disagrees_with_n_and_m():
    # an orientation of K4: potential consistent with n = 4, m = 6, but
    # the bound read wrongly
    g = pc.OrientedGraph(4, tuple(itertools.combinations(range(4), 2)))
    d = {
        "canonical_code": pc.canonical_form(g).hex(), "n": 4, "m": 6, "critical": True,
        "potential": -18, "satisfies_bound": False, "exception": None,
        "arcs": [list(a) for a in sorted(g.arcs)],
    }
    assert EnumerationRecord.from_json_dict({**d, "satisfies_bound": True}).m == 6
    with pytest.raises(TypeError, match=": satisfies_bound$"):
        EnumerationRecord.from_json_dict(d)


def test_resume_rejects_a_log_line_it_cannot_read(tmp_path, capsys):
    shard_dir = str(tmp_path)
    fresh = [r.to_json_dict() for r in find_critical(5, shard_dir=shard_dir)]
    path = os.path.join(shard_dir, "4", "50.ndjson")
    with open(path) as fh:
        lines = fh.read().splitlines()
    record = json.loads(lines[0])
    not_records = [
        b'{"canonical_code": "zz"}',  # fields missing
        b"not json",
        b"[1, 2]",
        b'{"canonical_code": "\xff"}',  # no UTF-8
        json.dumps({**record, "colour": 3}).encode(),  # a field no record has
        json.dumps({**record, "arcs": [[0, 2, 1], [0, 3]]}).encode(),
        json.dumps({**record, "arcs": [0, 2]}).encode(),
    ]
    for bad in not_records:
        with open(path, "wb") as fh:
            fh.write("".join(line + "\n" for line in lines).encode() + bad + b"\n")
        where = f"{path}:{len(lines) + 1}: not a record"
        with pytest.raises(ConfigError, match=re.escape(where)):
            find_critical(5, shard_dir=shard_dir, resume=True)
        rc = cli.main(["verify-bound", "--max-n", "5", "--shards", shard_dir, "--resume"])
        assert rc == cli.EXIT_USAGE and "not a record" in capsys.readouterr().err
    # the same line torn, without its newline, is cut as before
    with open(path, "wb") as fh:
        fh.write("".join(line + "\n" for line in lines).encode() + not_records[0])
    resumed = find_critical(5, shard_dir=shard_dir, resume=True)
    assert [r.to_json_dict() for r in resumed] == fresh
    with open(path) as fh:
        assert fh.read().splitlines() == lines
    # a CURSOR line that is no UTF-8 names no candidate
    with open(os.path.join(shard_dir, "4", "CURSOR"), "ab") as fh:
        fh.write(b"\xff\n")
    with pytest.raises(ConfigError, match="level 4"):
        find_critical(5, shard_dir=shard_dir, resume=True)


def test_a_streamed_resume_scans_the_oracle_tail(tmp_path, monkeypatch):
    # for every line k of a level's CURSOR log, a resume from the log cut
    # after line k scans exactly candidates[k + 1:] of the level's list
    monkeypatch.setattr(enumeration, "_LEVEL_CACHE", {})
    shard_dir = str(tmp_path)
    fresh = [r.to_json_dict() for r in find_critical(6, shard_dir=shard_dir)]
    # the slow oracle: the top level as one list
    level = list(enumerate_underlying(6, forbid_k4=True, _last_level=True))
    path = os.path.join(shard_dir, "6", "CURSOR")
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == len(level) > 1
    real_worker = enumeration._worker
    scanned, shown, opened = [], [], []

    def recording_worker(under):
        scanned.append(under.edges)
        return real_worker(under)

    def recording_open(path, mode="r", *args, **kwargs):
        opened.append((path, mode))
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(enumeration, "_worker", recording_worker)
    monkeypatch.setattr(enumeration, "open", recording_open, raising=False)
    for k in range(len(lines)):
        with open(path, "w") as fh:
            fh.write("".join(line + "\n" for line in lines[: k + 1]))
        del scanned[:], shown[:], opened[:]
        resumed = find_critical(
            6, shard_dir=shard_dir, resume=True, progress=lambda *a: shown.append(a)
        )
        assert [r.to_json_dict() for r in resumed] == fresh
        rest = level[k + 1 :]
        assert scanned == [ug.edges for ug in rest]
        assert shown == [(6, i, len(rest)) for i in range(1, len(rest) + 1)]
        # the done levels 3..5, and level 6 once nothing is left, open no log
        appended = [p for p, mode in opened if mode == "a"]
        assert appended == ([path] if rest else [])
        with open(path) as fh:
            assert fh.read().splitlines() == lines
    monkeypatch.undo()
    # a 5-vertex line names no candidate on 6 vertices
    with open(os.path.join(shard_dir, "5", "CURSOR")) as fh:
        foreign = fh.readline()
    with open(path, "w") as fh:
        fh.write(foreign)
    with pytest.raises(ConfigError, match="level 6"):
        find_critical(6, shard_dir=shard_dir, resume=True)


def test_the_scan_holds_no_candidate_list(monkeypatch):
    # candidates stream from generation to the worker: while one is
    # scanned, at most one other is still alive, never the level
    alive = weakref.WeakSet()
    counts = []
    real_from_masks, real_worker = enumeration._from_masks, enumeration._worker

    def tracked(masks):
        under = real_from_masks(masks)
        alive.add(under)
        return under

    def counting_worker(under):
        counts.append(len(alive))
        return real_worker(under)

    monkeypatch.setattr(enumeration, "_from_masks", tracked)
    monkeypatch.setattr(enumeration, "_worker", counting_worker)
    streamed = find_critical(7, jobs=1)
    monkeypatch.undo()
    assert len(counts) == sum(
        len(list(enumerate_underlying(n, forbid_k4=n >= 5))) for n in range(3, 8)
    )
    assert max(counts) <= 2
    assert [r.to_json_dict() for r in streamed] == [
        r.to_json_dict() for r in find_critical(7)
    ]


def test_a_second_run_in_one_process_skips_generation(monkeypatch):
    # the levels stay cached after a complete run, which perfbench's
    # selftest relies on to explain its fresh interpreter per repetition
    calls = [0]

    def labeled(adj, cells=None):
        calls[0] += 1
        return canonical_data(adj, cells)

    monkeypatch.setattr(enumeration, "_LEVEL_CACHE", {})
    monkeypatch.setattr(enumeration, "canonical_data", labeled)
    first = find_critical(6)
    assert calls[0] > 0
    calls[0] = 0
    again = find_critical(6)
    assert calls[0] == 0
    assert [r.to_json_dict() for r in again] == [r.to_json_dict() for r in first]


def _tree_digest(root, only=None) -> str:
    """The sha256 of every file under ``root`` with its relative path, or
    of the files named ``only``."""
    digest = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(root)):
        for fname in sorted(files):
            if only is not None and fname != only:
                continue
            path = os.path.join(dirpath, fname)
            digest.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read() + b"\0")
    return digest.hexdigest()


def test_shard_files_are_pinned_across_jobs(tmp_path, capsys):
    # record files and CURSOR logs of every level to 8 vertices, byte for
    # byte.  The record files are as written when each CURSOR line was the
    # candidate's canonical certificate; the whole tree was pinned again
    # when the lines became each candidate's generated adjacency, and when
    # they were zero-padded to their level's width
    for jobs in ("1", "2"):
        shard_dir = str(tmp_path / jobs)
        rc = cli.main(["enumerate", "--max-n", "8", "--shards", shard_dir, "--jobs", jobs])
        capsys.readouterr()
        assert rc == cli.EXIT_OK
        assert _tree_digest(shard_dir, only=enumeration._RECORDS_FILE) == (
            "bd71e9b61e07e8f2bb842500a8fd7510454a622e43acd0a1d6c887ce4d041f4b"
        )
        assert _tree_digest(shard_dir) == (
            "ac893fb1d000de3fcdb27ac0953f48f57dc12766d322d513294da191c9d22b53"
        )


def test_cursors_and_resumes_label_nothing(tmp_path, monkeypatch):
    # a sharded run labels what a run without shards labels, generation
    # only, and its resume in the same process labels nothing to find its
    # place in a level
    calls = [0]

    def labeled(adj, cells=None):
        calls[0] += 1
        return canonical_data(adj, cells)

    monkeypatch.setattr(enumeration, "_LEVEL_CACHE", {})
    monkeypatch.setattr(enumeration, "canonical_data", labeled)
    shard_dir = str(tmp_path)
    fresh = find_critical(8, shard_dir=shard_dir)
    assert calls[0] == 1511
    calls[0] = 0
    resumed = find_critical(8, shard_dir=shard_dir, resume=True)
    assert calls[0] == 0
    assert [r.to_json_dict() for r in resumed] == [r.to_json_dict() for r in fresh]


def test_stale_and_relabeled_cursor_lines_stop_the_resume(tmp_path, capsys):
    # the last candidate's canonical certificate, the line an older run
    # wrote, and the line of a relabeled copy of it name no candidate
    shard_dir = str(tmp_path)
    find_critical(6, shard_dir=shard_dir)
    path = os.path.join(shard_dir, "6", "CURSOR")
    with open(path) as fh:
        lines = fh.read().splitlines()
    last = list(enumerate_underlying(6, forbid_k4=True))[-1]
    assert lines[-1] == _cursor_hex(6, last)
    copies = (
        UnderlyingGraph(6, tuple((swap.get(u, u), swap.get(v, v)) for u, v in last.edges))
        for a, b in itertools.combinations(range(6), 2)
        for swap in [{a: b, b: a}]
    )
    copy = next(c for c in copies if c.masks != last.masks)
    stale = underlying_cert(pc.OrientedGraph(6, last.edges)).hex()
    for line in (stale, _cursor_hex(6, copy)):
        with open(path, "w") as fh:
            fh.write("".join(text + "\n" for text in lines[:-1] + [line]))
        rc = cli.main(["verify-bound", "--max-n", "6", "--shards", shard_dir, "--resume"])
        assert rc == cli.EXIT_USAGE
        assert "names none of its candidates" in capsys.readouterr().err


def test_a_run_without_shards_labels_no_cursor(monkeypatch):
    calls = [0]

    def labeled(adj, cells=None):
        calls[0] += 1
        return canonical_data(adj, cells)

    monkeypatch.setattr(enumeration, "_LEVEL_CACHE", {})
    monkeypatch.setattr(enumeration, "canonical_data", labeled)
    find_critical(8)
    # generation only: the children of the full levels to 7 vertices that
    # the root partition does not reject, and the 642 top-level children
    # that it leaves undecided
    assert calls[0] == 1511


def test_budget_is_checked_while_a_level_is_generated(monkeypatch):
    # simulated clock: every canonical labeling in generation takes 1 ms,
    # so the 1 s budget runs out inside a level, long before it is done
    calls = [0]

    def labeled(adj, cells=None):
        calls[0] += 1
        return canonical_data(adj, cells)

    monkeypatch.setattr(enumeration, "_LEVEL_CACHE", {})
    monkeypatch.setattr(enumeration, "canonical_data", labeled)
    monkeypatch.setattr(
        enumeration, "time", SimpleNamespace(monotonic=lambda: calls[0] / 1000)
    )
    with pytest.raises(ResourceBudgetError) as info:
        find_critical(8, wall_budget_s=1.0)
    # stopped at the first parent boundary past the deadline: one parent on
    # at most 7 vertices has at most 2^7 children
    assert 1000 < calls[0] <= 1001 + 2**7
    done = max(n for n, forbid, top in enumeration._LEVEL_CACHE if forbid and not top)
    assert done < 8
    monkeypatch.undo()
    partial = [r.to_json_dict() for r in info.value.partial]
    assert partial == [r.to_json_dict() for r in find_critical(done)]


@pytest.mark.skipif(
    not os.environ.get("PUSHCRIT_STRETCH"),
    reason="stretch run; set PUSHCRIT_STRETCH=1 to enable (~13 s on a 2-vCPU Xeon)",
)
def test_stretch_run_nine_vertices():
    assert len(_graphs_on(8, False)) == 12346  # full-depth generator check
    records = find_critical(9, jobs=2)
    assert len(records) == 27
    report = verify_density_bound(records)
    assert report.ok and report.exceptions_found == ("c_minus4",)


def _fresh_find_critical(n: int):
    """(the number of records, the sha256 of their sorted-key JSON lines,
    the peak RSS in KiB) of ``find_critical(n)`` in a fresh interpreter, so
    the peak is the run's own.

    The peak is the child's VmHWM, not its ``ru_maxrss``: Linux carries the
    high-water mark of the process that forked the child across exec, so
    ``ru_maxrss`` would read at least the test runner's own size.
    """
    package_root = os.path.dirname(os.path.dirname(pc.__file__))
    script = (
        "import hashlib, json, sys; "
        "from pushcrit.enumeration import find_critical; "
        "records = find_critical(int(sys.argv[1])); "
        "text = ''.join(json.dumps(r.to_json_dict(), sort_keys=True) + '\\n' "
        "for r in records); "
        "hwm = [line.split()[1] for line in open('/proc/self/status') "
        "if line.startswith('VmHWM:')]; "
        "print(len(records), hashlib.sha256(text.encode()).hexdigest(), *hwm)"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(n)],
        env=dict(os.environ, PYTHONPATH=package_root),
        capture_output=True, text=True, check=True,
    )
    count, digest, maxrss_kib = done.stdout.split()
    return int(count), digest, int(maxrss_kib)


@pytest.mark.skipif(
    not os.environ.get("PUSHCRIT_STRETCH"),
    reason="stretch run; set PUSHCRIT_STRETCH=1 to enable (~15 s on a 2-vCPU Xeon)",
)
def test_stretch_memory_at_nine_vertices():
    # listing the level-9 candidates at once peaked at about 139 MiB, and
    # the levels cached as lists of tuples at about 50 MiB
    count, digest, maxrss_kib = _fresh_find_critical(9)
    assert count == 27
    assert digest == "5318e6d369d0d3486e5949bb82720d40868f46680d87adfd08cd461cfd6787e8"
    assert maxrss_kib < 40 * 1024


@pytest.mark.skipif(
    not os.environ.get("PUSHCRIT_STRETCH"),
    reason="stretch run; set PUSHCRIT_STRETCH=1 to enable (~8 min on a 2-vCPU Xeon)",
)
def test_stretch_memory_at_ten_vertices():
    # the only scan with critical graphs of cyclomatic number 4 and 5; its
    # 2,108,079 top-level candidates cached as tuples peaked at 1.0 GiB
    count, digest, maxrss_kib = _fresh_find_critical(10)
    assert count == 63
    assert digest == "8de1b3cad26273e6af6ddedf65351e17aa6169f3c4f05507ad2507b20c60d45c"
    assert maxrss_kib < 500 * 1024


# -- prune soundness audits ----------------------------------------------------


def _assert_not_critical(g):
    assert pc.is_pushably_k_critical(g, 3).verdict != VERDICT_CRITICAL


def test_prune_audit_low_degree(rng):
    # a pendant vertex never blocks a coloring
    base = pc.fixture("c_minus4")
    g = pc.OrientedGraph(5, base.arcs + ((2, 4),))
    _assert_not_critical(g)


def test_prune_audit_long_chain(rng):
    for bits in range(0, 32, 7):
        g = attach_path(
            pc.fixture("c_minus4"), 0, 2, 5, format(bits, "05b")
        )
        _assert_not_critical(g)
    # a chain of 4 internal vertices from 0 to 2 is cut, one of 3 is not
    for length, verdict in ((5, (False, "long_chain")), (4, (True, None))):
        g = attach_path(pc.fixture("c_minus4"), 0, 2, length, "0" * length)
        under = UnderlyingGraph(g.vertex_count, g.edges)
        assert underlying_prune_verdict(under) == verdict


def test_prune_audit_cut_vertex(rng):
    # bowtie: two triangles sharing one vertex
    edges = ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4))
    for g in enumerate_orientations_mod_push(UnderlyingGraph(5, edges)):
        verdict = underlying_prune_verdict(UnderlyingGraph(5, edges))
        assert verdict == (False, "cut_vertex")
        _assert_not_critical(g)


def test_prune_audit_k4(rng):
    edges = tuple(itertools.combinations(range(4), 2)) + ((0, 4), (1, 4))
    under = UnderlyingGraph(5, edges)
    assert underlying_prune_verdict(under)[1] == "k4_subgraph"
    classes = enumerate_orientations_mod_push(under)
    for g in rng.sample(classes, min(4, len(classes))):
        _assert_not_critical(g)


def test_prune_audit_stays_4_chromatic(rng):
    # 5-wheel (4-chromatic, K4-free) plus a degree-2 vertex on the rim:
    # deleting either new edge keeps the wheel, so the graph stays
    # 4-chromatic and the scan may skip it
    wheel = [(5, i) for i in range(5)] + [(i, (i + 1) % 5) for i in range(5)]
    edges = tuple(sorted((min(e), max(e)) for e in wheel + [(0, 6), (2, 6)]))
    under = UnderlyingGraph(7, edges)
    assert underlying_prune_verdict(under) == (False, "stays_4_chromatic")
    classes = enumerate_orientations_mod_push(under)
    for g in rng.sample(classes, 4):
        _assert_not_critical(g)


def test_prune_audit_odd_four_cycle(rng):
    # orientations rejected by the parity filter are never critical
    under = UnderlyingGraph(5, ((0, 1), (1, 2), (2, 3), (0, 3), (2, 4), (3, 4)))
    kept = set(_scan_survivors(under))
    rejected = [
        arcs
        for arcs in push_class_representatives(5, under.edges, range(5))
        if arcs not in kept
    ]
    assert rejected
    for arcs in rejected:
        _assert_not_critical(pc.OrientedGraph(5, arcs))
