"""Underlying-graph generation, orientation classes, the coloring-image
scan against search oracles, and soundness audits for the structural
lemmas it no longer relies on."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pickle
import subprocess
import sys
from types import SimpleNamespace

import pytest

import pushcrit as pc
from pushcrit import cli, enumeration
from pushcrit.canon import (
    canonical_data,
    encode_underlying_cert,
    orbit_of,
    underlying_cert,
)
from pushcrit.crit import VERDICT_CRITICAL
from pushcrit.enumeration import (
    EnumerationRecord,
    UnderlyingGraph,
    _adds_k4,
    _attachment_sets,
    _critical_orientations,
    _graphs_on,
    _permute_mask,
    _root_cell_verdict,
    _scan_underlying_for_critical,
    enumerate_orientations_mod_push,
    enumerate_underlying,
    find_critical,
    underlying_prune_verdict,
    verify_density_bound,
)
from pushcrit.errors import ConfigError, ResourceBudgetError
from pushcrit.graph import adjacency, forward_parity
from pushcrit.hom import AT_C3, solve_mapping, target_index
from pushcrit.orient import class_coordinates, push_class_representatives


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
    levels = [[((0,), 0)]]
    for n in range(2, n_max + 1):
        level = []
        for parent, _ in levels[-1]:
            _, _, pgens = canonical_data(parent)
            for smask in _subset_orbit_reps(n - 1, pgens):
                if forbid_k4 and _adds_k4(parent, smask):
                    continue
                child = tuple(
                    p | (smask >> v & 1) << (n - 1) for v, p in enumerate(parent)
                ) + (smask,)
                cert, labeling, cgens = canonical_data(child)
                if n - 1 in orbit_of(labeling.index(n - 1), cgens, lambda g, v: g[v]):
                    level.append((child, cert))
        levels.append(level)
    return levels


@pytest.mark.parametrize("forbid_k4", [False, True])
def test_pretest_keeps_every_accepted_child(forbid_k4):
    for n, level in enumerate(_levels_without_pretest(7, forbid_k4), start=1):
        assert _graphs_on(n, forbid_k4) == level


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
        for parent, _ in _graphs_on(n, forbid_k4):
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

    def labeled(adj):
        calls[0] += 1
        return canonical_data(adj)

    monkeypatch.setattr(enumeration, "_LEVEL_CACHE", {})
    monkeypatch.setattr(enumeration, "canonical_data", labeled)
    for forbid_k4, n_max in ((False, 7), (True, 8)):
        for n in range(1, n_max + 1):
            calls[0] = 0
            top = _graphs_on(n, forbid_k4, top=True)
            top_labelings = calls[0]
            full = _graphs_on(n, forbid_k4)
            full_labelings = calls[0] - top_labelings
            kept = [(m, cert) for m, cert in full if _is_candidate(m)]
            assert [m for m, _ in top] == [m for m, _ in kept]
            # a top-level graph labeled by generation has the full level's cert
            for (_, cert), (_, want) in zip(top, kept):
                assert cert in (None, want)
    # K4-free on 8 vertices: the 3,328 candidates among the 6,431 graphs
    # take 642 labelings instead of 9,788
    assert (len(top), len(full)) == (3328, 6431)
    assert (top_labelings, full_labelings) == (642, 9788)


@pytest.mark.parametrize(
    "forbid_k4, n_max, top_verdicts",
    [
        (False, 7, {True: 317, False: 179, None: 191}),
        # the K4-free top level on 8 vertices: 5,183 children, 642 labeled
        (True, 8, {True: 2705, False: 1836, None: 642}),
    ],
)
def test_root_cell_verdicts_agree_with_labeling(forbid_k4, n_max, top_verdicts):
    # every child the top level could meet, with and without the cover test:
    # a decided verdict is canonical-deletion acceptance by a labeling
    for n in range(2, n_max + 1):
        verdicts = {True: 0, False: 0, None: 0}
        for cover in (False, True):
            for parent, _ in _graphs_on(n - 1, forbid_k4):
                _, _, gens = canonical_data(parent)
                for smask in _attachment_sets(parent, gens, cover):
                    if forbid_k4 and _adds_k4(parent, smask):
                        continue
                    child = _child(parent, smask)
                    _, labeling, cgens = canonical_data(child)
                    accepted = n - 1 in orbit_of(
                        labeling.index(n - 1), cgens, lambda g, v: g[v]
                    )
                    verdict = _root_cell_verdict(child)
                    assert verdict in (None, accepted), child
                    if cover:
                        verdicts[verdict] += 1
    assert verdicts == top_verdicts


def test_a_top_level_never_becomes_a_parent(monkeypatch):
    monkeypatch.setattr(enumeration, "_LEVEL_CACHE", {})
    find_critical(7)
    after_seven = [r.to_json_dict() for r in find_critical(8)]
    monkeypatch.setattr(enumeration, "_LEVEL_CACHE", {})
    assert after_seven == [r.to_json_dict() for r in find_critical(8)]


def test_generated_cert_is_the_underlying_cert():
    for ug in enumerate_underlying(6, 2, forbid_k4=True):
        want = underlying_cert(pc.OrientedGraph(6, ug.edges))
        assert encode_underlying_cert(6, ug.cert) == want


def test_min_degree_two_examples():
    assert len(list(enumerate_underlying(3, 2))) == 1
    found4 = list(enumerate_underlying(4, 2))
    assert len(found4) == 3
    assert sorted(len(u.edges) for u in found4) == [4, 5, 6]


def test_forbid_k4_generation():
    found = list(enumerate_underlying(4, 2, forbid_k4=True))
    assert sorted(len(u.edges) for u in found) == [4, 5]
    for n in (5, 6):
        for under in enumerate_underlying(n, 2, forbid_k4=True):
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
        if not ug.is_connected():
            continue
        canon = min(
            tuple(sorted((min(p[a], p[b]), max(p[a], p[b])) for a, b in edges))
            for p in itertools.permutations(range(5))
        )
        if canon not in seen:
            seen.add(canon)
            count += 1
    assert count == len(list(enumerate_underlying(5, 2)))


def test_generated_masks_are_the_edges_masks():
    # generation hands its candidates the masks it built their edges from;
    # they must be the masks an UnderlyingGraph builds from its edges, also
    # after a round trip through a pool worker's pickle
    for n in range(1, 7):
        for degree in (0, 2):
            for ug in enumerate_underlying(n, degree):
                built = UnderlyingGraph(n, ug.edges)
                assert ug.masks == built.masks == tuple(adjacency(n, ug.edges))
                assert pickle.loads(pickle.dumps(ug)).masks == built.masks


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
        if not base.is_connected() or not base.edges:
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


def _scan_survivors(under):
    """The scan's orientation classes: no odd 4-cycle (m > 4 here)."""
    n = under.vertex_count
    return list(
        push_class_representatives(
            n, under.edges, range(n), even_cycles=_four_cycles(n, under.masks)
        )
    )


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
    for arcs in push_class_representatives(n, under.edges, range(n), even_cycles=even):
        g = pc.OrientedGraph(n, arcs)
        if solve_mapping(g, at_idx)[0] is not None:
            continue
        if all(solve_mapping(g.delete_arc(a), at_idx)[0] is not None for a in sorted(g.arcs)):
            found.setdefault(pc.canonical_form(g), g)
    return sorted((code.hex(), g) for code, g in found.items())


def test_coloring_image_scan_equals_the_search_scan():
    for n in range(3, 8):
        for under in enumerate_underlying(n, 2, forbid_k4=n >= 5):
            got = [(code, g.arcs) for code, g in _scan_underlying_for_critical(under)]
            want = [(code, g.arcs) for code, g in _scan_by_search(under)]
            assert got == want, under


def _random_min_degree_2_graph(rng, n):
    while True:
        p = rng.choice((0.4, 0.55, 0.7))
        edges = tuple(
            (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p
        )
        under = UnderlyingGraph(n, edges)
        if edges and under.min_degree() >= 2 and under.is_connected():
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
        found = _critical_orientations(n, under.edges)
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


def test_find_critical_complete_against_brute_force_at_5():
    # independent completeness oracle: every labeled edge set on 5
    # vertices, every orientation class, decided by the unpruned
    # criticality routine; the pruned scan must find the same classes
    edges_all = list(itertools.combinations(range(5), 2))
    expected = set()
    for bits in range(1 << 10):
        edges = tuple(e for i, e in enumerate(edges_all) if bits >> i & 1)
        under = UnderlyingGraph(5, edges)
        if not edges or under.min_degree() < 2 or not under.is_connected():
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
    for jobs in (0, -5):
        with pytest.raises(ConfigError):
            find_critical(4, jobs=jobs)


def test_density_bound_report():
    records = find_critical(5)
    report = verify_density_bound(records)
    assert report.ok and "c_minus4" in report.exceptions_found
    fake = EnumerationRecord("ff", 4, 4, True, 8, False, None, ((0, 1),))
    bad = verify_density_bound(list(records) + [fake])
    assert not bad.ok and fake in bad.violators


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
    real = enumeration.get_context

    class CountingContext:
        def __init__(self, method):
            self.context = real(method)

        def Pool(self, *args, **kwargs):
            pools.append(args)
            return self.context.Pool(*args, **kwargs)

    monkeypatch.setattr(enumeration, "get_context", CountingContext)
    seq = find_critical(6, jobs=1)
    assert pools == []
    par = find_critical(6, jobs=2)
    # four levels with work, one pool
    assert pools == [(2,)]
    assert [r.to_json_dict() for r in seq] == [r.to_json_dict() for r in par]


def _cursor_hex(n: int, under: UnderlyingGraph) -> str:
    return underlying_cert(pc.OrientedGraph(n, under.edges)).hex()


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
        level = list(enumerate_underlying(n, 2, forbid_k4=n >= 5))
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
        level = list(enumerate_underlying(n, 2, forbid_k4=n >= 5))
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
    # a 6-vertex cert names no candidate on 5 vertices
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
    level = list(enumerate_underlying(5, 2, forbid_k4=True))
    with open(path) as fh:
        assert fh.read().splitlines() == [_cursor_hex(5, ug) for ug in level]


def _tree_digest(root) -> str:
    digest = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(root)):
        for fname in sorted(files):
            path = os.path.join(dirpath, fname)
            digest.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read() + b"\0")
    return digest.hexdigest()


def test_shard_files_are_pinned_across_jobs(tmp_path, capsys):
    # record files and CURSOR logs of every level to 8 vertices, byte for
    # byte as written when every candidate carried its certificate
    for jobs in ("1", "2"):
        shard_dir = str(tmp_path / jobs)
        rc = cli.main(["enumerate", "--max-n", "8", "--shards", shard_dir, "--jobs", jobs])
        capsys.readouterr()
        assert rc == cli.EXIT_OK
        assert _tree_digest(shard_dir) == (
            "2b6ae5ae0c9fbeeeba3669ee68d071c9631dc15e17b8d55c42b36f2678790437"
        )


def test_a_run_without_shards_labels_no_cursor(monkeypatch):
    calls = [0]

    def labeled(adj):
        calls[0] += 1
        return canonical_data(adj)

    monkeypatch.setattr(enumeration, "_LEVEL_CACHE", {})
    monkeypatch.setattr(enumeration, "canonical_data", labeled)
    find_critical(8)
    # generation only: the full levels to 7 vertices and the 642 top-level
    # children that the root partition leaves undecided
    assert calls[0] == 1795


def test_budget_is_checked_while_a_level_is_generated(monkeypatch):
    # simulated clock: every canonical labeling in generation takes 1 ms,
    # so the 1 s budget runs out inside a level, long before it is done
    calls = [0]

    def labeled(adj):
        calls[0] += 1
        return canonical_data(adj)

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
    reason="stretch run; set PUSHCRIT_STRETCH=1 to enable (~1 min)",
)
def test_stretch_run_nine_vertices():
    assert len(_graphs_on(8, False)) == 12346  # full-depth generator check
    records = find_critical(9, jobs=2)
    assert len(records) == 27
    report = verify_density_bound(records)
    assert report.ok and report.exceptions_found == ("c_minus4",)


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
        g = pc.attach_path(
            pc.fixture("c_minus4"), 0, 2, 5, format(bits, "05b")
        )
        _assert_not_critical(g)


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
