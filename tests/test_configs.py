"""Configuration gadgets and the extendability verifier."""

from __future__ import annotations

import hashlib
import os
from dataclasses import replace
from itertools import combinations_with_replacement

import pytest

import pushcrit as pc
from pushcrit.canon import underlying_cert
from pushcrit.configs import (
    CONFIG_IDS,
    _center_with_chains,
    _gadget,
    _sweep_configuration,
    _tree_children,
    _tree_reducible,
    _two_centers,
    gadgets_for,
    negative_control_gadget,
    orientation_representatives,
    verify_configuration,
)
from pushcrit.errors import ConfigError
from pushcrit.graph import OrientedGraph, forward_parity
from pushcrit.orient import push_class_representatives

from conftest import extend_partial_bruteforce


def _marked_cert_digest(gadget) -> str:
    """An isomorphism invariant of (graph, boundary, constrained cycles):
    the certificate of the graph with one more vertex joined to every
    boundary vertex and another joined to every constrained cycle's
    vertices, so it is the same for any renumbering of the gadget."""
    n = gadget.graph.vertex_count
    joins = list(gadget.graph.edges) + [(n, b) for b in gadget.boundary]
    joins += {(n + 1, v): None for cycle in gadget.directed_cycles for v in cycle}
    marked = OrientedGraph(n + 2, joins)
    return hashlib.sha256(underlying_cert(marked)).hexdigest()[:16]


# per gadget, in gadgets_for order: (vertices, arcs, |B|, marked cert digest)
GADGET_SHAPES = {
    "C1": [(6, 5, 2, "c46643dc3bcbec4a")],
    "C2": [(11, 10, 3, "f3c1f926bb2e530c"), (11, 10, 3, "6c1261f7e05aa7ba")],
    "C3": [(16, 15, 4, "8260a49e4875eed2")],
    "C4": [(16, 15, 4, "d69c8a2475aac2ae")],
    "C5": [(22, 21, 5, "569d3653cc8bd480")],
    "C6": [(21, 20, 5, "ccbdb162faef9e4b")],
    "C7": [(21, 20, 5, "e6024ec43e777d13"), (21, 20, 5, "37af9e2f59fc1c9c")],
    "C8": [(27, 26, 6, "66ea88240aaf12c9")],
    "C9": [(27, 26, 6, "9a4a03519592d6f6")],
    "C10": [(26, 25, 6, "95e7a863d2fb48b7")],
    "C11": [(26, 25, 6, "0beee36aa9834806")],
    "C12": [(32, 31, 7, "408a20e6eb9d2c1e")],
    "C13": [(37, 36, 8, "22c874f24e8e9e0a")],
    "C14": [(15, 15, 3, "7d95967b88560fb3")],
    "C15": [(14, 14, 3, "c691d0c9d242f115")],
    "C16": [(14, 14, 3, "f684d1e20bf50cf6")],
    "NEG": [(4, 3, 3, "6b639a57a16fa6ef")],
}


def test_gadget_shapes():
    gadgets = {cid: gadgets_for(cid) for cid in CONFIG_IDS}
    gadgets["NEG"] = [negative_control_gadget()]
    shapes = {
        cid: [
            (g.graph.vertex_count, g.graph.arc_count, len(g.boundary), _marked_cert_digest(g))
            for g in gs
        ]
        for cid, gs in gadgets.items()
    }
    assert shapes == GADGET_SHAPES
    assert {g.params for g in gadgets["C2"]} == {((3, 3, 1),), ((3, 2, 2),)}
    for cid, gs in gadgets.items():
        six_cycle = cid in ("C14", "C15", "C16")
        for g in gs:
            # C14..C16 constrain one closed walk of six edges, the others none
            assert [len(c) for c in g.directed_cycles] == ([6] if six_cycle else [])
            for cycle in g.directed_cycles:
                steps = zip(cycle, cycle[1:] + cycle[:1])
                assert all((min(a, b), max(a, b)) in g.graph.edge_set for a, b in steps)


def test_unknown_config_rejected():
    for config_id in ("C17", "c1"):
        with pytest.raises(ConfigError):
            gadgets_for(config_id)


def test_orientation_class_counts():
    (c1,) = gadgets_for("C1")
    assert len(list(orientation_representatives(c1))) == 2
    (c3,) = gadgets_for("C3")
    reps = list(orientation_representatives(c3))
    assert len(reps) == 2 ** (c3.graph.arc_count - len(c3.internal))
    # representatives are pairwise inequivalent under internal pushes
    seen = set()
    for g in reps:
        key = frozenset(g.arc_set)
        assert key not in seen
        seen.add(key)


def test_directed_cycle_constraint_filters_half():
    # the constrained classes are exactly the unconstrained ones whose
    # six-cycle has even forward parity: 4 of 8
    (c14,) = gadgets_for("C14")
    g = c14.graph
    unconstrained = [
        OrientedGraph(g.vertex_count, arcs)
        for arcs in push_class_representatives(g.vertex_count, g.edges, c14.internal)
    ]
    even = [h for h in unconstrained if forward_parity(h, c14.directed_cycles[0]) == 0]
    assert len(unconstrained) == 8 and len(even) == 4
    assert list(orientation_representatives(c14)) == even


@pytest.mark.parametrize("cid", ["C1", "C2", "C14", "C15", "C16"])
def test_small_configurations_reduce(cid):
    for gadget in gadgets_for(cid):
        check = verify_configuration(gadget)
        assert check.ok, check.counterexample


def test_negative_control_fails_with_counterexample():
    check = verify_configuration(negative_control_gadget())
    assert not check.ok
    assert check.counterexample is not None
    arcs, coloring = check.counterexample
    assert len(coloring) == 3


def test_rainbow_coloring_reported_by_extend():
    gadget = negative_control_gadget()
    for oriented in orientation_representatives(gadget):
        if all(t in gadget.boundary for t, _ in oriented.arcs):
            rainbow = {1: 0, 2: 1, 3: 2}
            assert pc.extend_partial(oriented, rainbow) is None


def test_rotation_reduction_agrees_with_full_sweep():
    for gadget in gadgets_for("C2"):
        reduced = verify_configuration(gadget)
        full = _sweep_configuration(gadget, reduce_rotation=False)
        assert reduced.ok == full.ok
        assert full.colorings_per_orientation == 3 * reduced.colorings_per_orientation


def test_gadget_boundary_touches_interior():
    for cid in ("C1", "C5", "C9", "C16"):
        for gadget in gadgets_for(cid):
            interior = set(gadget.internal)
            for b in gadget.boundary:
                assert any(u in interior for u in gadget.graph.neighbors(b))


def test_extend_routes_agree_on_c1_gadget(rng):
    (c1,) = gadgets_for("C1")
    for oriented in orientation_representatives(c1):
        for c0 in range(3):
            for c1_color in range(3):
                pcol = {min(c1.boundary): c0, max(c1.boundary): c1_color}
                fast = pc.extend_partial(oriented, pcol)
                slow = extend_partial_bruteforce(oriented, pcol)
                assert (fast is None) == (slow is None)


def test_extend_routes_agree_on_c2_gadget(rng):
    gadget = gadgets_for("C2")[0]
    boundary = sorted(gadget.boundary)
    for oriented in orientation_representatives(gadget):
        for _ in range(3):
            pcol = {b: rng.randrange(3) for b in boundary}
            fast = pc.extend_partial(oriented, pcol)
            slow = extend_partial_bruteforce(oriented, pcol)
            assert (fast is None) == (slow is None)


# -- tree DP against the exhaustive sweep --------------------------------------


def _chain_multisets(max_chains: int):
    """Chain internal counts 0..3, one tuple per multiset, longest first."""
    for k in range(max_chains + 1):
        yield from combinations_with_replacement((3, 2, 1, 0), k)


def _assert_dp_matches_sweep(gadgets):
    """DP-route and sweep evidence agree; returns (reducible, irreducible)."""
    verdicts = []
    for gadget in gadgets:
        assert _tree_children(gadget) is not None, gadget.params
        check = verify_configuration(gadget)
        oracle = _sweep_configuration(gadget)
        assert check.to_json_dict() == oracle.to_json_dict(), gadget.params
        assert check.method == ("tree_dp" if oracle.ok else "sweep")
        verdicts.append(oracle.ok)
    return verdicts.count(True), verdicts.count(False)


@pytest.mark.parametrize("cid", [f"C{i}" for i in range(1, 12)])
@pytest.mark.parametrize("reduce_rotation", [True])  # the verifier's own pin
def test_tree_dp_evidence_matches_sweep(cid, reduce_rotation):
    for gadget in gadgets_for(cid):
        check = verify_configuration(gadget)
        assert check.method == "tree_dp"
        oracle = _sweep_configuration(gadget, reduce_rotation)
        assert check.to_json_dict() == oracle.to_json_dict()


def test_tree_dp_rejects_negative_control_and_sweep_reports_it():
    gadget = negative_control_gadget()
    assert _tree_children(gadget) is not None and not _tree_reducible(gadget)
    check = verify_configuration(gadget)
    assert check.method == "sweep"
    assert check.to_json_dict() == _sweep_configuration(gadget).to_json_dict()


def test_tree_dp_matches_sweep_on_center_gadgets():
    # up to six hanging chains: at most 6^5 = 7,776 cases each
    gadgets = [
        _center_with_chains("X", counts)
        for counts in _chain_multisets(6)
        if counts
    ]
    reducible, irreducible = _assert_dp_matches_sweep(gadgets)
    assert reducible and irreducible


def _two_center_gadgets(max_leaves: int):
    for link in range(4):
        for u in _chain_multisets(max_leaves):
            for v in _chain_multisets(max_leaves - len(u)):
                if u >= v:  # the shape is symmetric in u and v
                    yield _two_centers("X", link, u, v)


def test_tree_dp_matches_sweep_on_two_center_gadgets():
    # up to four boundary leaves (216 cases); six leaves are a stretch run
    reducible, irreducible = _assert_dp_matches_sweep(_two_center_gadgets(4))
    assert reducible and irreducible


@pytest.mark.skipif(
    not os.environ.get("PUSHCRIT_STRETCH"),
    reason="stretch run; set PUSHCRIT_STRETCH=1 to enable (~280 s on a 2-vCPU Xeon)",
)
def test_stretch_tree_dp_matches_sweep_on_two_center_gadgets_up_to_7776_cases():
    reducible, irreducible = _assert_dp_matches_sweep(_two_center_gadgets(6))
    assert reducible and irreducible


def test_gadgets_off_the_tree_shape_take_the_sweep():
    (c14,) = gadgets_for("C14")
    assert _tree_children(c14) is None  # directed-cycle constraint
    assert verify_configuration(c14).method == "sweep"
    # without the constraint X still holds the 6-cycle, so is no tree
    unconstrained = replace(c14, directed_cycles=())
    assert _tree_children(unconstrained) is None
    assert verify_configuration(unconstrained).method == "sweep"
    # X is the path 0-1-2, but the boundary vertex 3 closes it to a 4-cycle
    square = _gadget(
        "X", (), ((), (0,), (), ()), ((0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0))
    )
    closed = replace(square, boundary=square.boundary | {3})
    assert _tree_children(closed) is None
    check = verify_configuration(closed)
    assert check.method == "sweep"
    assert check.to_json_dict() == _sweep_configuration(closed).to_json_dict()
