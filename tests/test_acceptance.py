"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance and time budget is pinned here; nothing is deferred.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import pushcrit as pc
from pushcrit.configs import (
    CONFIG_IDS,
    gadgets_for,
    negative_control_gadget,
    verify_configuration,
)
from pushcrit.crit import VERDICT_CRITICAL
from pushcrit.enumeration import find_critical, verify_density_bound
from pushcrit.graph import push_vertices
from pushcrit.hom import C3
from pushcrit.lpq import VARIANT_ORIENTED, VARIANT_TWO_DIPATH
from pushcrit.reconstruct import verify_fig6_coloring, verify_split_vertex_reconstructions
from pushcrit.verify import random_classifiable_graph, run_suites, verify_potential_table

from conftest import random_oriented_graph
from test_hom import PATH_TABLE, _oracle_allowed_colors


def _report(name: str, started: float, limit_s: float):
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s, limit {limit_s:.0f}s)")
    assert elapsed < limit_s, f"{name} exceeded its {limit_s}s budget ({elapsed:.1f}s)"


def test_criterion_01_potential_table():
    started = time.monotonic()
    rows = verify_potential_table()
    expected = {
        "k1": 15, "k2": 17, "k3": 6, "k3_minus_e": 19,
        "c_minus4": 8, "e1": 0, "e2": 0, "e3": 0,
    }
    assert {r["graph"]: r["actual"] for r in rows} == expected
    assert all(r["ok"] for r in rows)
    _report("1 potential-table", started, 1.0)


def test_criterion_02_exception_fixtures():
    started = time.monotonic()
    for name in ("c_minus4", "e1", "e2", "e3", "f"):
        g = pc.fixture(name)
        report = pc.is_pushably_k_critical(g, 3)
        assert report.verdict == VERDICT_CRITICAL, name
        assert len(report.arc_witnesses) == g.arc_count
        for arc, cert in report.arc_witnesses:
            assert cert.verify(g.delete_arc(arc))
    for name in ("e1", "e2", "e3"):
        g = pc.fixture(name)
        assert (g.vertex_count, g.arc_count) == (13, 15)
        assert pc.girth(g) == 6
        assert pc.girth(g) > 3  # triangle-free
        assert pc.mad_exact(g) == Fraction(30, 13)
    f = pc.fixture("f")
    assert (f.vertex_count, f.arc_count, pc.potential(f)) == (12, 14, -2)
    _report("2 exception-fixtures", started, 120.0)


def test_criterion_03_density_bound_at_desk_scale():
    started = time.monotonic()
    records = find_critical(8, jobs=2)
    report = verify_density_bound(records)
    assert report.ok, report.violators
    violating = [r for r in records if not r.satisfies_bound]
    assert [r.exception for r in violating] == ["c_minus4"]
    assert any(r.exception == "c_minus4" for r in records)
    _report("3 density-bound-n8", started, 1800.0)


def test_criterion_04_path_table_reproduction():
    started = time.monotonic()
    for (k, parity), expected in sorted(PATH_TABLE.items()):
        allowed, forbidden = pc.path_color_sets(k, parity)
        oracle = _oracle_allowed_colors(k, parity)
        assert set(allowed) == oracle == expected, (k, parity)
        assert set(forbidden) == {0, 1, 2} - oracle
    _report("4 path-color-table", started, 10.0)


def test_criterion_05_configuration_suite():
    started = time.monotonic()
    for cid in CONFIG_IDS:
        for gadget in gadgets_for(cid):
            check = verify_configuration(gadget)
            assert check.ok, (cid, gadget.params, check.counterexample)
    control = verify_configuration(negative_control_gadget())
    assert not control.ok and control.counterexample is not None
    _report("5 configurations-C1-C16", started, 600.0)


def test_criterion_06_reconstruction():
    started = time.monotonic()
    inventories = verify_split_vertex_reconstructions(("e1", "e2", "e3"))
    assert len(inventories) == 12
    for inv in inventories:
        assert inv.graphs_checked > 0
        assert inv.colorable == inv.graphs_checked, inv
    total = sum(inv.graphs_checked for inv in inventories)
    print(f"  reconstruction case inventory: {total} graphs over 12 splits")
    _report("6 split-vertex-reconstruction", started, 600.0)


def test_criterion_07_drawn_coloring():
    started = time.monotonic()
    report = verify_fig6_coloring()
    assert report.coloring_valid and report.recomputed_colorable
    assert report.potential == 3
    _report("7 drawn-8-vertex-witness", started, 1.0)


def test_criterion_08_pushable_homomorphism_oracles():
    started = time.monotonic()
    rng = random.Random(0x5EED01)
    for _ in range(200):
        g = random_oriented_graph(rng, rng.randint(1, 10), p=0.35)
        fast = pc.find_pushable_homomorphism(g, C3) is not None
        brute = any(
            pc.find_homomorphism(
                push_vertices(g, {v for v in range(g.vertex_count) if bits >> v & 1}),
                C3,
            )
            is not None
            for bits in range(1 << g.vertex_count)
        )
        assert fast == brute
    checked = 0
    resamples = 0
    while checked < 100:
        g = random_oriented_graph(rng, rng.randint(1, 7), p=0.3)
        chi_o = pc.oriented_chromatic_number(g)
        if chi_o is None:
            resamples += 1
            assert resamples < 50, "sparse sampling should rarely exceed k_max"
            continue
        chi_p = pc.pushable_chromatic_number(g)
        assert chi_p is not None and chi_p <= chi_o <= 2 * chi_p
        checked += 1
    _report("8 push-reduction-oracles", started, 900.0)


def test_criterion_09_discharging_identities():
    started = time.monotonic()
    rng = random.Random(0x5EED02)
    graphs = [
        pc.fixture(name) for name in ("at_c3", "e1", "e2", "e3", "f", "m3p")
    ]
    graphs += [random_classifiable_graph(rng) for _ in range(100)]
    for g in graphs:
        report = pc.discharging_audit(g)
        assert report.total_initial == -2 * pc.potential(g)
        assert report.total_initial == report.total_final
        for v in range(g.vertex_count):
            if g.degree(v) == 2:
                assert report.final[v] == 0
    _report("9 discharging-identities", started, 60.0)


def test_criterion_10_lpq_labelings():
    started = time.monotonic()
    at = pc.fixture("at_c3")
    for p in range(1, 6):
        for q in range(1, p + 1):
            labeling = pc.at_c3_labeling(p, q)
            check = pc.check_lpq_labeling(at, labeling)
            assert check.ok and labeling.span == 2 * p + 3 * q
    labeling = pc.at_c3_labeling(2, 1)
    assert sorted(set(labeling.labels)) == [0, 1, 3, 4, 6, 7]
    span = pc.lpq_span_search(at, 2, 1, VARIANT_ORIENTED)
    assert span is not None and span <= 7
    dipath = pc.lpq_span_search(at, 2, 1, VARIANT_TWO_DIPATH)
    assert dipath is not None and dipath <= span
    _report("10 lpq-labelings", started, 300.0)


def test_criterion_11_determinism():
    started = time.monotonic()

    def fingerprint(results) -> bytes:
        return json.dumps(
            [
                {"claim": r.claim, "status": r.status, "evidence": r.evidence}
                for r in results
            ],
            sort_keys=True,
        ).encode()

    suites = ("potentials", "fig6", "lpq", "discharge")
    assert fingerprint(run_suites(suites, jobs=1)) == fingerprint(
        run_suites(suites, jobs=2)
    )

    def as_bytes(recs) -> bytes:
        return json.dumps([r.to_json_dict() for r in recs], sort_keys=True).encode()

    assert as_bytes(find_critical(6, jobs=1)) == as_bytes(find_critical(6, jobs=2))
    _report("11 determinism", started, 300.0)
