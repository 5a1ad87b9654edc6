"""Graph value type, push algebra, metrics and serialization."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pushcrit as pc
from pushcrit.enumeration import UnderlyingGraph
from pushcrit.errors import (
    GraphParseError,
    IncompatibleInputError,
    InvalidPushSetError,
    StructuralViolationError,
    UnclassifiableGraphError,
    UndefinedInputError,
)

from conftest import (
    attach_path,
    brute_mad_numerator_denominator,
    oriented_is_connected,
    random_connected_oriented_graph,
    random_oriented_graph,
    underlying_is_connected,
)


def test_invariants_rejected():
    with pytest.raises(StructuralViolationError):
        pc.OrientedGraph(2, ((0, 0),))
    with pytest.raises(StructuralViolationError):
        pc.OrientedGraph(2, ((0, 1), (1, 0)))
    with pytest.raises(StructuralViolationError):
        pc.OrientedGraph(2, ((0, 1), (0, 1)))
    with pytest.raises(StructuralViolationError):
        pc.OrientedGraph(2, ((0, 2),))


def test_equality_ignores_arc_order_and_name():
    from pushcrit.hom import AT_C3, target_index

    at = pc.fixture("at_c3")
    assert at.arcs != AT_C3.arcs
    assert at == AT_C3 and hash(at) == hash(AT_C3)
    assert target_index(at) is target_index(AT_C3)
    g = pc.OrientedGraph(3, ((0, 1), (1, 2)), "p")
    assert g == pc.OrientedGraph(3, ((1, 2), (0, 1)))
    assert g != pc.OrientedGraph(4, ((0, 1), (1, 2)))
    assert g != pc.OrientedGraph(3, ((0, 1), (2, 1)))


def test_push_directed_triangle():
    c3 = pc.directed_cycle(3)
    pushed = pc.push_vertices(c3, {0})
    assert pushed.arc_set == {(1, 0), (1, 2), (0, 2)}


def test_push_empty_set_is_identity():
    g = pc.fixture("e2")
    assert pc.push_vertices(g, frozenset()).arcs == g.arcs


def test_push_out_of_range():
    with pytest.raises(InvalidPushSetError):
        pc.push_vertices(pc.directed_cycle(3), {7})


@settings(deadline=None, max_examples=30, derandomize=True)
@given(st.integers(2, 8), st.integers(0, 10**9), st.integers(0, 10**9))
def test_push_involution(n, seed_g, seed_s):
    import random

    g = random_oriented_graph(random.Random(seed_g), n)
    s = {v for v in range(n) if random.Random(seed_s + v).random() < 0.5}
    assert pc.push_vertices(pc.push_vertices(g, s), s).arcs == g.arcs


def test_push_whole_component_is_identity(rng):
    g = random_connected_oriented_graph(rng, 7)
    assert pc.push_vertices(g, range(7)).arcs == g.arcs


def test_cycle_parity_is_push_invariant(rng):
    from pushcrit.graph import forward_parity

    c4 = pc.directed_cycle(4)
    cycle = (0, 1, 2, 3)
    base = forward_parity(c4, cycle)
    for bits in range(16):
        s = {v for v in range(4) if bits >> v & 1}
        assert forward_parity(pc.push_vertices(c4, s), cycle) == base


def test_anti_twin_single_arc():
    g = pc.OrientedGraph(2, ((0, 1),))
    at = pc.anti_twin(g)
    assert at.vertex_count == 4
    assert at.arc_set == {(0, 1), (2, 3), (3, 0), (1, 2)}


def test_anti_twin_triangle_regular():
    at = pc.anti_twin(pc.directed_cycle(3))
    assert at.vertex_count == 6 and at.arc_count == 12
    assert all(len(at.out_neighbors[v]) == 2 for v in range(6))
    assert all(len(at.in_neighbors[v]) == 2 for v in range(6))


def test_anti_twin_isolated():
    at = pc.anti_twin(pc.OrientedGraph(1, ()))
    assert at.vertex_count == 2 and at.arc_count == 0


def test_anti_twin_counts(rng):
    for _ in range(10):
        g = random_oriented_graph(rng, rng.randint(1, 7))
        at = pc.anti_twin(g)
        assert at.vertex_count == 2 * g.vertex_count
        assert at.arc_count == 4 * g.arc_count


def test_push_equivalent_examples():
    c3 = pc.directed_cycle(3)
    assert pc.is_push_equivalent(c3, c3) == frozenset()
    transitive = pc.push_vertices(c3, {0})
    s = pc.is_push_equivalent(c3, transitive)
    assert s is not None and pc.push_vertices(c3, s).arc_set == transitive.arc_set
    c4 = pc.directed_cycle(4)
    c_minus4 = pc.OrientedGraph(4, pc.fixture("c_minus4").arcs)
    assert pc.is_push_equivalent(c4, c_minus4) is None
    # brute-force corroboration over all 16 push sets
    assert all(
        pc.push_vertices(c4, {v for v in range(4) if b >> v & 1}).arc_set
        != c_minus4.arc_set
        for b in range(16)
    )


def test_push_equivalent_requires_same_underlying():
    with pytest.raises(IncompatibleInputError):
        pc.is_push_equivalent(pc.directed_cycle(3), pc.directed_path(3))


def test_push_equivalent_matches_brute_force(rng):
    for trial in range(40):
        n = rng.randint(2, 12 if trial % 4 == 0 else 7)
        g = random_oriented_graph(rng, n)
        flip = [arc if rng.random() < 0.5 else (arc[1], arc[0]) for arc in g.arcs]
        h = pc.OrientedGraph(n, tuple(flip))
        got = pc.is_push_equivalent(g, h)
        brute = any(
            pc.push_vertices(g, {v for v in range(n) if b >> v & 1}).arc_set
            == h.arc_set
            for b in range(1 << n)
        )
        assert (got is not None) == brute


def test_attach_path_potential_drop():
    g = pc.fixture("c_minus4")
    for k in range(1, 7):
        if k == 1:
            extended = attach_path(g, 0, 2, k, "1")
        else:
            extended = attach_path(g, 0, 1, k, "1" * k)
        assert pc.potential(extended) - pc.potential(g) == 2 * (k - 1) - 13
    assert pc.potential(attach_path(g, 0, 1, 4, "1010")) == pc.potential(g) - 7


def test_attach_path_one_arc():
    g = pc.OrientedGraph(3, ((0, 1),))
    out = attach_path(g, 1, 2, 1, "1")
    assert out.vertex_count == 3 and out.arc_set == {(0, 1), (1, 2)}


def test_attach_path_structural_errors():
    g = pc.OrientedGraph(2, ((0, 1),))
    with pytest.raises(StructuralViolationError):
        attach_path(g, 0, 1, 1, "0")  # digon
    with pytest.raises(StructuralViolationError):
        attach_path(g, 0, 0, 1, "1")  # loop


def test_induced_subgraph_rejects_vertices_outside_the_graph():
    c3 = pc.directed_cycle(3)
    assert c3.induced_subgraph([0, 2]) == pc.OrientedGraph(2, ((1, 0),))
    for vertices in ([0, 99], [-1, 0], [3]):
        with pytest.raises(IncompatibleInputError, match=r"0\.\.2"):
            c3.induced_subgraph(vertices)


def test_potential_values():
    assert pc.potential(pc.OrientedGraph(1, ())) == 15
    assert pc.potential(pc.OrientedGraph(2, ((0, 1),))) == 17
    assert pc.potential(pc.directed_cycle(3)) == 6
    assert pc.potential(pc.directed_path(3)) == 19
    assert pc.potential(pc.fixture("c_minus4")) == 8
    for name in ("e1", "e2", "e3"):
        assert pc.potential(pc.fixture(name)) == 0
    assert pc.potential(pc.fixture("f")) == -2


def test_girth():
    assert pc.girth(pc.fixture("c_minus4")) == 4
    assert pc.girth(pc.fixture("e1")) == 6
    assert pc.girth(pc.fixture("e2")) == 6
    assert pc.girth(pc.fixture("e3")) == 6
    assert pc.girth(pc.directed_path(5)) is None
    assert pc.girth(pc.directed_cycle(3)) == 3


def test_mad_exact_values():
    assert pc.mad_exact(pc.fixture("e1")) == Fraction(30, 13)
    assert pc.mad_exact(pc.directed_cycle(4)) == Fraction(2)
    assert pc.mad_exact(pc.fixture("f")) == Fraction(7, 3)


def test_mad_matches_subset_oracle(rng):
    for _ in range(12):
        g = random_oriented_graph(rng, rng.randint(1, 8), p=0.5)
        got = pc.mad_exact(g)
        assert got == brute_mad_numerator_denominator(g)
        if g.arc_count:
            assert got >= Fraction(2 * g.arc_count, g.vertex_count)


def test_mad_matches_subset_oracle_up_to_13_vertices(rng):
    for n in range(9, 14):
        for p in (0.2, 0.35, 0.6):
            g = random_oriented_graph(rng, n, p=p)
            assert pc.mad_exact(g) == brute_mad_numerator_denominator(g)


def test_mad_closed_forms_above_20_vertices():
    k_5_17 = pc.OrientedGraph(22, tuple((a, b) for a in range(5) for b in range(5, 22)))
    assert pc.mad_exact(k_5_17) == Fraction(2 * 5 * 17, 22)
    q5 = pc.OrientedGraph(
        32, tuple((v, v | 1 << i) for v in range(32) for i in range(5) if not v >> i & 1)
    )
    assert pc.mad_exact(q5) == Fraction(5)
    star = pc.OrientedGraph(26, tuple((0, v) for v in range(1, 26)))
    assert pc.mad_exact(star) == Fraction(25, 13)
    assert pc.mad_exact(pc.OrientedGraph(25, ())) == Fraction(0)
    # the densest subgraph is a proper subset: K5 beside a 30-vertex path
    k5_and_path = pc.OrientedGraph(
        35,
        tuple((a, b) for a in range(5) for b in range(a + 1, 5))
        + tuple((v, v + 1) for v in range(5, 34)),
    )
    assert pc.mad_exact(k5_and_path) == Fraction(4)


def test_mad_capacities_beyond_int32():
    # m * b = 46341 * 46342 >= 2**31 in the flow network's first round
    n = 46342
    path = pc.OrientedGraph(n, tuple((v, v + 1) for v in range(n - 1)))
    assert pc.mad_exact(path) == Fraction(2 * (n - 1), n)


def test_import_loads_neither_numpy_nor_scipy():
    package_root = os.path.dirname(os.path.dirname(pc.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    subprocess.run(
        [sys.executable, "-c",
         "import pushcrit, sys; assert not {'numpy', 'scipy'} & set(sys.modules)"],
        env=env, check=True,
    )


def test_components_match_networkx(rng):
    networkx = pytest.importorskip("networkx")
    for _ in range(200):
        n = rng.randrange(0, 14)
        g = random_oriented_graph(rng, n, p=rng.choice((0.05, 0.15, 0.3)))
        nxg = networkx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(g.arcs)
        expected = sorted(tuple(sorted(c)) for c in networkx.connected_components(nxg))
        assert g.components == tuple(expected)
        assert oriented_is_connected(g) == (len(expected) <= 1)
        under = UnderlyingGraph(n, g.edges)
        assert underlying_is_connected(under) == oriented_is_connected(g)


def test_mad_empty_graph():
    with pytest.raises(UndefinedInputError):
        pc.mad_exact(pc.OrientedGraph(0, ()))


def test_classify_e1():
    descriptors = pc.classify_vertices(pc.fixture("e1")).descriptors
    assert descriptors[0] == (3, 3, 0)
    assert descriptors[1] == (3, 3, 0)
    assert descriptors[2] == (3, 3, 0)
    assert descriptors[3] == (0, 0, 0)
    assert sum(map(sum, descriptors.values())) == 2 * 9


def test_classify_e2_hub():
    assert pc.classify_vertices(pc.fixture("e2")).descriptors[3] == (2, 2, 2)


def test_classify_zero_chain():
    # two degree-3 vertices joined directly and through two 2-chains
    g = pc.OrientedGraph(
        6, ((0, 1), (0, 2), (2, 3), (3, 1), (0, 4), (4, 5), (5, 1))
    )
    kernel = pc.classify_vertices(g)
    assert kernel.descriptors[0] == (2, 2, 0)
    assert kernel.descriptors[1] == (2, 2, 0)
    assert len(kernel.paths) == 3


def test_classify_rejects_two_regular_component():
    with pytest.raises(UnclassifiableGraphError):
        pc.classify_vertices(pc.directed_cycle(5))


def test_classify_rejects_pendants():
    with pytest.raises(UnclassifiableGraphError):
        pc.classify_vertices(pc.directed_path(4))


def test_classify_totals_invariant(rng):
    from pushcrit.verify import random_classifiable_graph

    for _ in range(15):
        g = random_classifiable_graph(rng)
        descriptors = pc.classify_vertices(g).descriptors
        two_vertices = sum(1 for v in range(g.vertex_count) if g.degree(v) == 2)
        assert sum(map(sum, descriptors.values())) == 2 * two_vertices
        for v, counts in descriptors.items():
            assert len(counts) == g.degree(v)


def test_serialize_parse_roundtrip(rng):
    for _ in range(10):
        g = random_oriented_graph(rng, rng.randint(1, 8))
        assert pc.parse_graph(pc.serialize_graph(g)).arc_set == g.arc_set


def test_parse_header_example():
    g = pc.parse_graph("p og 3 3\n0 1\n1 2\n2 0\n")
    assert g.arc_set == pc.directed_cycle(3).arc_set


def test_parse_fixture_file():
    text = pc.serialize_graph(pc.fixture("c_minus4"))
    g = pc.parse_graph(text)
    assert (g.vertex_count, g.arc_count) == (4, 4)


def test_fixture_files_are_the_builtin_names():
    package_dir = Path(pc.__file__).parent / "fixtures"
    assert sorted(p.stem for p in package_dir.glob("*.og")) == sorted(pc.builtin_graphs())


# canonical forms of the named graphs; the package .og files are their only
# copy, so an edit that changes a graph shows up here
PINNED_FIXTURE_FORMS = {
    "at_c3": "5031000600000c00000002000000030000000400000005000100020001000300010004000100050002000400020005000300040003000500",
    "c3": "5031000300000300000001000000020001000200",
    "c_minus4": "503100040000040000000200000003000100020001000301",
    "e1": "5031000d00000f000000080000000c000100070001000c000200080002000b000300070003000a000400060004000b000500060005000a0009000a0009000b0009000c06",
    "e2": "5031000d00000f0000000b0000000c0001000a0001000c0002000a0002000b000300080003000c000400070004000b000500060005000a00060009000700090008000902",
    "e3": "5031000d00000f0000000a0000000c0001000a0001000b000200080002000c000300080003000b000400070004000c000500060005000b00060009000700090009000a05",
    "f": "5031000c00000e000000080000000b000100070001000a0002000700020009000300060003000b000400050004000b0005000a00060009000800090008000a00",
    "m3p": "5031000800000900000006000000070001000500010007000200050002000600030004000300070004000600",
}


def test_fixture_canonical_forms_are_pinned():
    assert sorted(PINNED_FIXTURE_FORMS) == sorted(pc.builtin_graphs())
    for name, form in PINNED_FIXTURE_FORMS.items():
        assert pc.canonical_form(pc.fixture(name)).hex() == form, name


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphParseError) as err:
        pc.parse_graph("0 1\n1 0\n")
    assert err.value.line == 2
    with pytest.raises(GraphParseError) as err:
        pc.parse_graph("p og 2 5\n0 1\n")
    assert err.value.line == 1
    with pytest.raises(GraphParseError) as err:
        pc.parse_graph("# comment\n\n0 0\n")
    assert err.value.line == 3
    with pytest.raises(GraphParseError) as err:
        pc.parse_graph("0 1\n0 1\n")
    assert err.value.line == 2
    with pytest.raises(GraphParseError) as err:
        pc.parse_graph("# comment\np og -1 0\n")
    assert err.value.line == 2
    with pytest.raises(GraphParseError) as err:
        pc.parse_graph("p og 3 2\n0 1\n\n1 3\n")
    assert err.value.line == 4
