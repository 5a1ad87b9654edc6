"""Charge bookkeeping: identities, literal rules, informative bounds."""

from __future__ import annotations

import random

import pytest

import pushcrit as pc
from pushcrit.discharge import (
    BoundCheck,
    DischargingReport,
    initial_charge,
    updated_charge_lower_bound,
)
from pushcrit.errors import UnclassifiableGraphError
from pushcrit.graph import potential
from pushcrit.verify import random_classifiable_graph


def test_initial_charges():
    assert initial_charge(2) == -4
    assert initial_charge(3) == 9
    assert initial_charge(4) == 22


def test_audit_identities_on_classifiable_fixtures():
    for name in ("at_c3", "e1", "e2", "e3", "f", "m3p"):
        g = pc.fixture(name)
        report = pc.discharging_audit(g)
        assert report.total_initial == -2 * pc.potential(g)
        assert report.total_initial == report.total_final
        for v in range(g.vertex_count):
            if g.degree(v) == 2:
                assert report.final[v] == 0


def test_e1_totals_are_zero():
    report = pc.discharging_audit(pc.fixture("e1"))
    assert report.total_initial == 0 and report.total_final == 0


def test_hand_computed_theta_graph():
    # m3p's underlying graph: two 3-vertices joined by chains with 1, 2
    # and 3 internal 2-vertices; both ends are 3-vertices with 6
    # chain-incident 2-vertices, so each keeps 9 - 12 - 3 + 3 = -3
    report = pc.discharging_audit(pc.fixture("m3p"))
    g = pc.fixture("m3p")
    for v in range(g.vertex_count):
        expected = -3 if g.degree(v) == 3 else 0
        assert report.final[v] == expected
    # the tabled bound rows do not apply here and must report, not assert
    failing = [c for c in report.lower_bound_checks if not c.ok]
    assert failing and all(c.degree == 3 for c in failing)


def test_rule5_guard_between_degree3_five_vertices():
    # two 3-vertices with 5 chain-incident 2-vertices each, joined by a
    # 1-chain: the guard stops the mutual rule-5 donation, so their final
    # charge stays 9 - 10 = -1 rather than -1 +1 -1
    arcs = []

    def chain(u, v, internals, start):
        stops = [u] + list(range(start, start + internals)) + [v]
        for x, y in zip(stops, stops[1:]):
            arcs.append((x, y))
        return start + internals

    nxt = 2
    nxt = chain(0, 1, 1, nxt)  # the joining 1-chain
    nxt = chain(0, 1, 2, nxt)
    nxt = chain(0, 1, 2, nxt)
    g = pc.OrientedGraph(nxt, tuple(arcs))
    assert pc.classify_vertices(g).descriptors[0] == (2, 2, 1)
    report = pc.discharging_audit(g)
    assert report.final[0] == report.final[1] == initial_charge(3) - 10


def test_updated_charge_table_rows():
    assert updated_charge_lower_bound(2, None) == 0
    assert updated_charge_lower_bound(3, 0) == 3
    assert updated_charge_lower_bound(3, 1) == 3
    assert updated_charge_lower_bound(3, 2) == 1
    assert updated_charge_lower_bound(3, 3) == 1
    assert updated_charge_lower_bound(3, 4) == 0
    assert updated_charge_lower_bound(3, 6) == 0
    assert updated_charge_lower_bound(4, 9) == 3
    assert updated_charge_lower_bound(4, 10) == 2
    assert updated_charge_lower_bound(4, 11) is None
    assert updated_charge_lower_bound(5, 15) == 5


def test_conservation_on_random_graphs(rng):
    for _ in range(40):
        g = random_classifiable_graph(rng)
        report = pc.discharging_audit(g)
        assert report.total_initial == report.total_final
        assert report.total_initial == -2 * pc.potential(g)


def test_unclassifiable_inputs_error():
    with pytest.raises(UnclassifiableGraphError):
        pc.discharging_audit(pc.directed_cycle(4))


# -- the direct quadratic implementation, as an oracle ------------------------


def _slow_classify(g):
    """(the chains as vertex paths from their lower ends, sorted; each
    3+-vertex's descriptor): every chain walked from each 3+-vertex by
    neighbor scans, and each vertex's counts taken over every chain."""
    n = g.vertex_count
    deg = g.degrees
    for v in range(n):
        if deg[v] < 2:
            raise UnclassifiableGraphError(f"vertex {v} has degree {deg[v]} < 2", (v,))
    for comp in g.components:
        if all(deg[v] == 2 for v in comp):
            raise UnclassifiableGraphError(
                f"component {comp} is a cycle of 2-vertices", comp
            )
    paths = set()
    for v in range(n):
        if deg[v] < 3:
            continue
        for w in g.neighbors(v):
            path = [v]
            prev, cur = v, w
            while deg[cur] == 2:
                path.append(cur)
                nxts = [u for u in g.neighbors(cur) if u != prev]
                prev, cur = cur, nxts[0]
            path.append(cur)
            if cur == v:
                raise UnclassifiableGraphError(
                    f"chain at vertex {v} closes back on itself", (v,)
                )
            paths.add(tuple(path) if v <= cur else tuple(reversed(path)))
    descriptors = {}
    for v in range(n):
        if deg[v] < 3:
            continue
        counts = []
        for path in paths:
            counts += [len(path) - 2] * (path[0], path[-1]).count(v)
        descriptors[v] = tuple(sorted(counts, reverse=True))
    return sorted(paths), descriptors


def _slow_audit(g):
    """The five rules, each donor scanning every chain."""
    paths, descriptors = _slow_classify(g)
    charge = [initial_charge(d) for d in g.degrees]
    initial = tuple(charge)
    for donor, donor_counts in descriptors.items():
        for path in paths:
            if donor in (path[0], path[-1]):
                for u in path[1:-1]:
                    charge[donor] -= 2
                    charge[u] += 2
        for dist in (0, 1):
            recipients = set()
            for path in paths:
                a, b = path[0], path[-1]
                if len(path) - 2 == dist and donor in (a, b):
                    recipients.add(b if donor == a else a)
            for u in recipients:
                u_counts = descriptors[u]
                if len(u_counts) != 3:
                    continue
                if sum(u_counts) == 6:
                    give = 3
                elif sum(u_counts) == 5:
                    guarded = dist == 1 and len(donor_counts) == 3 and sum(donor_counts) == 5
                    give = 0 if guarded else 1
                else:
                    give = 0
                charge[donor] -= give
                charge[u] += give
    checks = []
    for v in range(g.vertex_count):
        total = sum(descriptors[v]) if v in descriptors else 0
        bound = updated_charge_lower_bound(g.degree(v), total)
        if bound is not None:
            final = charge[v]
            checks.append(BoundCheck(v, g.degree(v), total, bound, final, final >= bound))
    return DischargingReport(initial, tuple(charge), sum(initial), sum(charge), tuple(checks))


def _graph_of_chains(chains):
    """The graph of the given chains (u, v, internal count), numbering the
    internal vertices after every endpoint, in order."""
    nxt = 1 + max(max(u, v) for u, v, _ in chains)
    arcs = []
    for u, v, internals in chains:
        stops = [u] + list(range(nxt, nxt + internals)) + [v]
        nxt += internals
        arcs += zip(stops, stops[1:])
    return pc.OrientedGraph(nxt, tuple(arcs))


def _rule5_guard_graph():
    return _graph_of_chains([(0, 1, 1), (0, 1, 2), (0, 1, 2)])


def _twin_chain_graph():
    # two 1-chains from vertex 0 to the 3-vertex 1, whose third chain has 3
    # internal vertices: 1 carries 5 chain-incident 2-vertices
    return _graph_of_chains(
        [(0, 1, 1), (0, 1, 1), (0, 1, 3), (0, 2, 0), (0, 3, 1), (2, 3, 0), (2, 3, 1)]
    )


def test_two_chains_to_one_neighbor_give_once():
    g = _twin_chain_graph()
    descriptors = pc.classify_vertices(g).descriptors
    assert len(descriptors[0]) == 5
    assert descriptors[1] == (3, 1, 1)
    with pytest.raises(KeyError):
        descriptors[4]  # a 2-vertex has no class
    # vertex 1 gives 2 per internal vertex and takes rule 5 once from 0
    assert pc.discharging_audit(g).final[1] == initial_charge(3) - 10 + 1


def test_linear_audit_equals_the_quadratic_one():
    graphs = [pc.fixture(name) for name in ("at_c3", "e1", "e2", "e3", "f", "m3p")]
    graphs += [_rule5_guard_graph(), _twin_chain_graph()]
    rng = random.Random(20240917)
    graphs += [random_classifiable_graph(rng) for _ in range(200)]
    for g in graphs:
        kernel = pc.classify_vertices(g)
        paths = sorted(p if p[0] <= p[-1] else p[::-1] for p in kernel.paths)
        assert (paths, kernel.descriptors) == _slow_classify(g)
        report = pc.discharging_audit(g)
        assert report == _slow_audit(g)
        assert report.total_final == -2 * potential(g)


def test_unclassifiable_errors_equal_the_quadratic_ones():
    graphs = [
        pc.directed_cycle(4),
        pc.directed_path(4),
        pc.fixture("c_minus4"),
        # a 3-vertex whose chain closes back on it
        _graph_of_chains([(0, 0, 2), (0, 1, 0), (1, 2, 0), (1, 3, 0), (2, 3, 0)]),
    ]
    # a classifiable block beside a cycle of 2-vertices
    block = _rule5_guard_graph()
    n = block.vertex_count
    triangle = ((n, n + 1), (n + 1, n + 2), (n + 2, n))
    graphs.append(pc.OrientedGraph(n + 3, block.arcs + triangle))
    for g in graphs:
        with pytest.raises(UnclassifiableGraphError) as fast:
            pc.discharging_audit(g)
        with pytest.raises(UnclassifiableGraphError) as slow:
            _slow_audit(g)
        assert str(fast.value) == str(slow.value)
        assert fast.value.vertices == slow.value.vertices
