"""Criticality decisions and critical-subgraph extraction."""

from __future__ import annotations

import random
from itertools import permutations

import pytest

import pushcrit as pc
from pushcrit import crit
from pushcrit.crit import (
    VERDICT_COLORABLE,
    VERDICT_CRITICAL,
    VERDICT_NON_MINIMAL,
    CriticalityReport,
)
from pushcrit.errors import IncompatibleInputError, SelfCheckError
from pushcrit.graph import forward_parity

from conftest import brute_pushable_colorable, random_oriented_graph


def test_e3_not_3_colorable():
    assert pc.is_pushably_k_colorable(pc.fixture("e3"), 3) is None


def test_forest_2_colorable(rng):
    arcs = []
    for v in range(1, 8):
        u = rng.randrange(v)
        arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    forest = pc.OrientedGraph(8, tuple(arcs))
    cert = pc.is_pushably_k_colorable(forest, 2)
    assert cert is not None and cert.verify(forest)


def test_m3p_3_colorable():
    cert = pc.is_pushably_k_colorable(pc.fixture("m3p"), 3)
    assert cert is not None and cert.verify(pc.fixture("m3p"))


def test_k1_colorable_with_k1():
    g = pc.OrientedGraph(3, ())
    cert = pc.is_pushably_k_colorable(g, 1)
    assert cert is not None


@pytest.mark.parametrize("name", ["c_minus4", "e1", "e2", "e3", "f"])
def test_fixture_criticality(name):
    g = pc.fixture(name)
    report = pc.is_pushably_k_critical(g, 3)
    assert report.verdict == VERDICT_CRITICAL
    assert len(report.arc_witnesses) == g.arc_count
    for arc, cert in report.arc_witnesses:
        assert cert.verify(g.delete_arc(arc))


def test_directed_triangle_colorable():
    report = pc.is_pushably_k_critical(pc.directed_cycle(3), 3)
    assert report.verdict == VERDICT_COLORABLE
    assert report.global_certificate.verify(pc.directed_cycle(3))


def test_pendant_on_c_minus4_non_minimal():
    base = pc.fixture("c_minus4")
    g = pc.OrientedGraph(5, base.arcs + ((0, 4),))
    report = pc.is_pushably_k_critical(g, 3)
    assert report.verdict == VERDICT_NON_MINIMAL
    assert report.failing_arc is not None
    assert pc.is_pushably_k_colorable(g.delete_arc(report.failing_arc), 3) is None


def test_isolated_vertex_rejected():
    g = pc.OrientedGraph(5, pc.fixture("c_minus4").arcs)
    with pytest.raises(IncompatibleInputError):
        pc.is_pushably_k_critical(g, 3)


def test_extract_from_decorated_e1():
    e1 = pc.fixture("e1")
    g = pc.OrientedGraph(14, e1.arcs + ((13, 0),))
    sub = pc.extract_critical_subgraph(g, 3)
    assert sub is not None
    assert pc.canonical_form(sub) == pc.canonical_form(e1)


def test_extract_from_colorable_is_none():
    assert pc.extract_critical_subgraph(pc.directed_cycle(6), 3) is None


def test_extraction_checks_its_result(monkeypatch):
    # the extraction re-decides criticality of what it returns; a result
    # that fails is a fault of the library, raised even under python -O
    monkeypatch.setattr(
        crit, "is_pushably_k_critical", lambda g, k: CriticalityReport(VERDICT_NON_MINIMAL, k)
    )
    with pytest.raises(SelfCheckError, match="not critical"):
        pc.extract_critical_subgraph(pc.fixture("c_minus4"), 3)


def test_extract_from_disjoint_union():
    cm4 = pc.fixture("c_minus4")
    arcs = list(cm4.arcs) + [(4 + t, 4 + h) for t, h in pc.directed_cycle(3).arcs]
    g = pc.OrientedGraph(7, tuple(arcs))
    sub = pc.extract_critical_subgraph(g, 3)
    assert sub is not None
    assert pc.canonical_form(sub) == pc.canonical_form(cm4)


def test_colorable_verdicts_match_brute_force(rng):
    for _ in range(15):
        g = random_oriented_graph(rng, rng.randint(2, 7), p=0.5)
        got = pc.is_pushably_k_colorable(g, 3) is not None
        assert got == brute_pushable_colorable(
            g, pc.directed_cycle(3)
        )


def test_report_json_shape():
    report = pc.is_pushably_k_critical(pc.fixture("c_minus4"), 3)
    payload = report.to_json_dict()
    assert payload["verdict"] == "critical"
    assert len(payload["arc_witnesses"]) == 4
    assert all("pushed" in w["certificate"] for w in payload["arc_witnesses"])


def plain_greedy_extraction(g, k=3):
    """The extraction without a core: one search per arc deletion (the
    self-check is left out; the library keeps its own)."""
    if pc.is_pushably_k_colorable(g, k) is not None:
        return None
    current = g
    for arc in sorted(g.arcs):
        smaller = current.delete_arc(arc)
        if pc.is_pushably_k_colorable(smaller, k) is None:
            current = smaller
    return current.strip_isolated()


def odd_four_cycles(g):
    """Every 4-cycle of g with an odd number of forward arcs, as its
    vertex sequence, by trying every ordered 4 vertices."""
    adj = g.adjacency_masks
    return [
        cycle
        for cycle in permutations(range(g.vertex_count), 4)
        if cycle[0] == min(cycle)
        and all(adj[v] >> cycle[(i + 1) % 4] & 1 for i, v in enumerate(cycle))
        and forward_parity(g, cycle)
    ]


def shuffled_random_graph(rng, n, p):
    g = random_oriented_graph(rng, n, p)
    arcs = list(g.arcs)
    rng.shuffle(arcs)
    return pc.OrientedGraph(n, tuple(arcs))


def with_extra_arcs(rng, g, extra):
    """g on one more vertex, plus ``extra`` random arcs, in random order."""
    n = g.vertex_count + 1
    arcs = list(g.arcs)
    edges = {frozenset(a) for a in arcs}
    while len(arcs) < g.arc_count + extra:
        u, v = rng.sample(range(n), 2)
        if frozenset((u, v)) not in edges:
            edges.add(frozenset((u, v)))
            arcs.append((u, v))
    rng.shuffle(arcs)
    return pc.OrientedGraph(n, tuple(arcs))


def direction_masks(g):
    out, inn = [0] * g.vertex_count, [0] * g.vertex_count
    for t, h in g.arcs:
        out[t] |= 1 << h
        inn[h] |= 1 << t
    return out, inn


def test_extraction_equals_the_plain_greedy():
    # skipping the searches that a known odd 4-cycle answers changes no
    # keep/delete decision, so the result is the plain greedy's, arc order
    # included
    rng = random.Random(41)
    graphs = [
        shuffled_random_graph(rng, rng.randint(3, 11), rng.uniform(0.15, 0.6))
        for _ in range(500)
    ]
    for name in ("e1", "e2", "e3", "f", "m3p"):
        graphs += [with_extra_arcs(rng, pc.fixture(name), rng.randint(1, 4)) for _ in range(3)]
    kinds = {"not a 4-cycle": 0, "uncolorable without an odd 4-cycle": 0}
    for g in graphs:
        want = plain_greedy_extraction(g)
        got = pc.extract_critical_subgraph(g, 3)
        assert (got is None) == (want is None), g
        if want is None:
            continue
        assert (got.vertex_count, got.arcs) == (want.vertex_count, want.arcs), g
        kinds["not a 4-cycle"] += want.arc_count != 4
        kinds["uncolorable without an odd 4-cycle"] += not odd_four_cycles(g)
    assert min(kinds.values()) > 0, kinds


def test_extraction_at_k_2_equals_the_plain_greedy(rng):
    # an odd 4-cycle says nothing about 2-colorings: every deletion is searched
    for _ in range(40):
        g = shuffled_random_graph(rng, rng.randint(3, 8), 0.4)
        want = plain_greedy_extraction(g, 2)
        got = pc.extract_critical_subgraph(g, 2)
        assert (got is None) == (want is None)
        if want is not None:
            assert (got.vertex_count, got.arcs) == (want.vertex_count, want.arcs)


def test_odd_four_cycle_agrees_with_brute_force():
    rng = random.Random(4)
    found = 0
    for _ in range(300):
        g = random_oriented_graph(rng, rng.randint(4, 9), rng.uniform(0.2, 0.7))
        core = crit._odd_four_cycle(g.vertex_count, *direction_masks(g))
        assert (core is not None) == bool(odd_four_cycles(g)), g
        if core is None:
            continue
        found += 1
        cycle = pc.OrientedGraph(g.vertex_count, tuple(sorted(core))).strip_isolated()
        assert core <= g.arc_set and cycle.vertex_count == 4 and cycle.arc_count == 4
        assert odd_four_cycles(cycle) and set(cycle.degrees) == {2}
        assert pc.is_pushably_k_colorable(cycle, 3) is None
    assert 0 < found < 300


def test_extraction_searches_only_past_its_cores(monkeypatch):
    # c_minus4 with both chords, beside a directed C6: every deletion of an
    # arc outside the current odd 4-cycle is decided without a search
    base = pc.fixture("c_minus4")
    c6 = [(4 + t, 4 + h) for t, h in pc.directed_cycle(6).arcs]
    g = pc.OrientedGraph(10, base.arcs + ((0, 2), (3, 1)) + tuple(c6))
    searches = []
    search = crit.is_pushably_k_colorable

    def counting_search(graph, k):
        searches.append(graph.arc_count)
        return search(graph, k)

    monkeypatch.setattr(crit, "is_pushably_k_colorable", counting_search)
    sub = pc.extract_critical_subgraph(g, 3)
    assert pc.canonical_form(sub) == pc.canonical_form(base)
    # the plain greedy searches 13 times before its self-check's 5
    assert len(searches) == 9
