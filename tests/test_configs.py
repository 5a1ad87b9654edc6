"""Configuration gadgets and the extendability verifier."""

from __future__ import annotations

import os
from dataclasses import replace
from itertools import combinations_with_replacement

import pytest

import pushcrit as pc
from pushcrit.configs import (
    _Builder,
    _center_with_chains,
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
from pushcrit.graph import forward_parity

from conftest import extend_partial_bruteforce


def test_gadget_shapes():
    (c1,) = gadgets_for("C1")
    assert c1.graph.vertex_count == 6 and c1.graph.arc_count == 5
    assert len(c1.boundary) == 2 and len(c1.internal) == 4
    c2s = gadgets_for("C2")
    assert {g.params for g in c2s} == {((3, 3, 1),), ((3, 2, 2),)}
    (c4,) = gadgets_for("C4")
    assert c4.graph.vertex_count == 16 and c4.graph.arc_count == 15
    (c13,) = gadgets_for("C13")
    assert c13.graph.vertex_count == 37 and len(c13.internal) == 29
    (c14,) = gadgets_for("C14")
    assert c14.directed_cycles and len(c14.directed_cycles[0]) == 6


def test_unknown_config_rejected():
    with pytest.raises(ConfigError):
        gadgets_for("C17")


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
    (c14,) = gadgets_for("C14")
    reps = list(orientation_representatives(c14))
    directed = [
        g
        for g in reps
        if forward_parity(g, c14.directed_cycles[0]) == 0
    ]
    assert len(reps) == 8 and len(directed) == 4


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
            rainbow = pc.PartialColoring.of({1: 0, 2: 1, 3: 2})
            assert pc.extend_partial(oriented, rainbow) is None


def test_rotation_reduction_agrees_with_full_sweep():
    for gadget in gadgets_for("C2"):
        reduced = verify_configuration(gadget, reduce_rotation=True)
        full = verify_configuration(gadget, reduce_rotation=False)
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
                pcol = pc.PartialColoring.of(
                    {min(c1.boundary): c0, max(c1.boundary): c1_color}
                )
                fast = pc.extend_partial(oriented, pcol)
                slow = extend_partial_bruteforce(oriented, pcol)
                assert (fast is None) == (slow is None)


def test_extend_routes_agree_on_c2_gadget(rng):
    gadget = gadgets_for("C2")[0]
    boundary = sorted(gadget.boundary)
    for oriented in orientation_representatives(gadget):
        for _ in range(3):
            pcol = pc.PartialColoring.of(
                {b: rng.randrange(3) for b in boundary}
            )
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
@pytest.mark.parametrize("reduce_rotation", [True, False])
def test_tree_dp_evidence_matches_sweep(cid, reduce_rotation):
    for gadget in gadgets_for(cid):
        check = verify_configuration(gadget, reduce_rotation)
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
    reason="stretch run; set PUSHCRIT_STRETCH=1 to enable (~190 s on a 2-vCPU Xeon)",
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
    # X is the path u-v-w, but the boundary vertex b closes it to a 4-cycle
    b = _Builder("X", ())
    u, v, w = b.vertex(), b.vertex(), b.vertex()
    b.arc(u, v)
    b.arc(v, w)
    both = b.boundary_vertex()
    b.arc(both, u)
    b.arc(w, both)
    b.hang(v, 0)
    closed = b.build()
    assert _tree_children(closed) is None
    check = verify_configuration(closed)
    assert check.method == "sweep"
    assert check.to_json_dict() == _sweep_configuration(closed).to_json_dict()
