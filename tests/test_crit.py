"""Criticality decisions and critical-subgraph extraction."""

from __future__ import annotations

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
