"""Graph value type, push algebra, metrics and serialization."""

from __future__ import annotations

import os
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pushcrit as pc
from pushcrit import cli, density, fixtures
from pushcrit.chains import Kernel
from pushcrit.enumeration import EnumerationRecord, UnderlyingGraph
from pushcrit.errors import (
    FixtureIntegrityError,
    GraphParseError,
    IncompatibleInputError,
    InvalidPushSetError,
    SelfCheckError,
    StructuralViolationError,
    UnclassifiableGraphError,
    UndefinedInputError,
)
from pushcrit.graph import OrientedGraph, forward_parity

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
    # arcs are pairs and the vertex count is an int
    for n, arcs in ((3, [(0, 1, 2)]), (3, 5), (None, [])):
        with pytest.raises(StructuralViolationError):
            pc.OrientedGraph(n, arcs)


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
    c4 = pc.directed_cycle(4)
    cycle = (0, 1, 2, 3)
    base = forward_parity(c4, cycle)
    for bits in range(16):
        s = {v for v in range(4) if bits >> v & 1}
        assert forward_parity(pc.push_vertices(c4, s), cycle) == base


def test_forward_parity_rejects_a_step_that_is_no_edge():
    path = pc.directed_path(3)
    with pytest.raises(IncompatibleInputError, match=r"\(2,0\) is not an edge"):
        forward_parity(path, (0, 1, 2))


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


def test_degree_and_neighbors_reject_vertices_outside_the_graph():
    e1 = pc.fixture("e1")
    assert (e1.degree(12), e1.neighbors(12)) == (2, (1, 11))
    for v in (-1, e1.vertex_count):
        for read in (e1.degree, e1.neighbors):
            with pytest.raises(IncompatibleInputError, match=rf"vertex {v} outside 0\.\.12"):
                read(v)


def _record_with_endpoint(v):
    (record,) = pc.find_critical(4)
    d = record.to_json_dict()
    return EnumerationRecord.from_json_dict({**d, "arcs": d["arcs"][:-1] + [[d["arcs"][-1][0], v]]})


C3 = pc.directed_cycle(3)

# every public entry that takes a vertex id: (the graph's vertex count, the
# call on a vertex v, the entry's error); each refuses a vertex that is no
# int in 0..n-1 with the one message of graph._check_vertices
VERTEX_ENTRIES = {
    "OrientedGraph arcs": (3, lambda v: pc.OrientedGraph(3, [(0, v)]), StructuralViolationError),
    "degree": (3, C3.degree, IncompatibleInputError),
    "neighbors": (3, C3.neighbors, IncompatibleInputError),
    "induced_subgraph": (3, lambda v: C3.induced_subgraph([v]), IncompatibleInputError),
    "relabel": (3, lambda v: C3.relabel([v, 1, 2]), IncompatibleInputError),
    "delete_arc": (3, lambda v: C3.delete_arc((0, v)), IncompatibleInputError),
    "push_vertices": (3, lambda v: pc.push_vertices(C3, {v}), InvalidPushSetError),
    "Kernel.of edges": (3, lambda v: Kernel.of(3, [(0, v)], range(3)), IncompatibleInputError),
    "Kernel.of kept": (3, lambda v: Kernel.of(3, [], [v]), IncompatibleInputError),
    "Kernel.subdivided": (3, lambda v: Kernel.subdivided(3, [(0, v)], [2]), IncompatibleInputError),
    "extend_partial": (3, lambda v: pc.extend_partial(C3, {v: 0}), IncompatibleInputError),
    "EnumerationRecord.from_json_dict": (4, _record_with_endpoint, TypeError),
}


@pytest.mark.parametrize("entry", sorted(VERTEX_ENTRIES))
@pytest.mark.parametrize("bad", [1.5, True, "0", -1, "n"])
def test_every_vertex_entry_refuses_a_vertex_that_is_no_int_in_range(entry, bad):
    n, call, error = VERTEX_ENTRIES[entry]
    v = n if bad == "n" else bad
    with pytest.raises(error, match=re.escape(f"vertex {v!r} outside 0..{n - 1}")):
        call(v)


@pytest.mark.parametrize("bad", [1.5, True, "0", -1])
def test_the_vertex_count_is_a_nonnegative_int(bad):
    with pytest.raises(StructuralViolationError, match=re.escape(f"a graph on {bad!r} vertices")):
        pc.OrientedGraph(bad, [])


# the probes that coercion answered wrongly: 0.5 pushed nothing, induced an
# arcless 2-vertex graph, and 1.5, "0", True were read as 1, 0, 1
@pytest.mark.parametrize("probe, error, message", [
    (lambda: pc.push_vertices(C3, {0.5}), InvalidPushSetError, "vertex 0.5 outside 0..2"),
    (lambda: C3.induced_subgraph([0.5, 1]), IncompatibleInputError, "vertex 0.5 outside 0..2"),
    (lambda: pc.OrientedGraph(3, [(0, 1.5)]), StructuralViolationError, "vertex 1.5 outside 0..2"),
    (lambda: pc.OrientedGraph(3, [("0", "1")]), StructuralViolationError, "vertex '0' outside 0..2"),
    (lambda: pc.OrientedGraph(3, [(True, 0)]), StructuralViolationError, "vertex True outside 0..2"),
], ids=["push_half", "induced_half", "arc_float", "arc_str", "arc_bool"])
def test_probes_once_coerced_are_refused(probe, error, message):
    with pytest.raises(error, match=re.escape(message)):
        probe()


def test_delete_arc_takes_a_pair_of_vertices():
    assert C3.delete_arc([0, 1]) == C3.delete_arc((0, 1)) == pc.OrientedGraph(3, ((1, 2), (2, 0)))
    with pytest.raises(IncompatibleInputError, match="arcs must be pairs"):
        C3.delete_arc((0, 1, 2))
    with pytest.raises(IncompatibleInputError, match=r"arc \(1, 0\) not present"):
        C3.delete_arc((1, 0))


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


class _FlowNetwork:
    """Integer max-flow by Dinic's algorithm.

    Arcs live in paired slots: slot ``s ^ 1`` is the residual reverse of
    slot ``s``.
    """

    def __init__(self, size: int):
        self.out = [[] for _ in range(size)]
        self.head: list[int] = []
        self.cap: list[int] = []

    def add_arc(self, u: int, v: int, capacity: int) -> None:
        self.out[u].append(len(self.head))
        self.head.append(v)
        self.cap.append(capacity)
        self.out[v].append(len(self.head))
        self.head.append(u)
        self.cap.append(0)

    def _levels(self, source: int) -> list[int]:
        """BFS distance from ``source`` in the residual network, -1 if unreachable."""
        head, cap = self.head, self.cap
        level = [-1] * len(self.out)
        level[source] = 0
        queue = [source]
        for u in queue:
            for slot in self.out[u]:
                v = head[slot]
                if cap[slot] and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level

    def _blocking_flow(self, level: list[int], source: int, sink: int) -> int:
        head, cap, out = self.head, self.cap, self.out
        cursor = [0] * len(out)
        total = 0
        path: list[int] = []
        u = source
        while True:
            if u == sink:
                push = min(cap[slot] for slot in path)
                for slot in path:
                    cap[slot] -= push
                    cap[slot ^ 1] += push
                total += push
                path.clear()
                u = source
                continue
            slots = out[u]
            i = cursor[u]
            while i < len(slots) and not (
                cap[slots[i]] and level[head[slots[i]]] == level[u] + 1
            ):
                i += 1
            cursor[u] = i
            if i < len(slots):
                path.append(slots[i])
                u = head[slots[i]]
            elif u == source:
                return total
            else:
                # dead end: retreat and never try this arc again in this phase
                u = head[path.pop() ^ 1]
                cursor[u] += 1

    def max_flow(self, source: int, sink: int) -> tuple[int, list[int]]:
        """Max-flow value and the levels of the final residual BFS.

        The nodes with a level >= 0 are those reachable from ``source``
        in the residual network: the source side of a minimum cut.
        """
        flow = 0
        while True:
            level = self._levels(source)
            if level[sink] < 0:
                return flow, level
            flow += self._blocking_flow(level, source, sink)


def _dinic_denser_subgraph(g: OrientedGraph, density: Fraction):
    """Vertex set of some subgraph strictly denser than ``density``, or None.

    Goldberg network: source -> each edge node (capacity b), edge node ->
    both endpoints (infinite), vertex -> sink (capacity a), for
    density = a/b.  A cut with vertex set S on the source side costs at
    least b(|E| - |E(S)|) + a|S|, so a max-flow below b|E| means the
    vertices reachable from the source in the residual network span a
    subgraph with b|E(S)| - a|S| > 0.
    """
    n, m = g.vertex_count, g.arc_count
    a, b = density.numerator, density.denominator
    source, sink = n + m, n + m + 1
    infinite = m * b + 1
    network = _FlowNetwork(n + m + 2)
    for i, (t, h) in enumerate(g.edges):
        network.add_arc(source, n + i, b)
        network.add_arc(n + i, t, infinite)
        network.add_arc(n + i, h, infinite)
    for v in range(n):
        network.add_arc(v, sink, a)
    flow, level = network.max_flow(source, sink)
    if flow >= m * b:
        return None
    return {v for v in range(n) if level[v] >= 0}


def _dinic_mad(g: OrientedGraph) -> Fraction:
    """The mad oracle: Dinic's flow on the (m + n + 2)-node edge-node
    network, from the density m/n up."""
    n = g.vertex_count
    if n == 0:
        raise UndefinedInputError("mad is undefined on the empty graph")
    if g.arc_count == 0:
        return Fraction(0)
    density = Fraction(g.arc_count, n)
    # each round either proves optimality or strictly improves the density,
    # and only finitely many subgraph densities exist
    while True:
        sub = _dinic_denser_subgraph(g, density)
        if sub is None:
            return 2 * density
        inside = sum(1 for lo, hi in g.edges if lo in sub and hi in sub)
        density = Fraction(inside, len(sub))


def _mad_test_graph(rng, kind: int) -> OrientedGraph:
    """A random graph on at most 40 vertices: 0 any density from sparse to
    complete, 1 a clique glued to a sparse part, 2 isolated vertices beside
    a sparse part, 3 two components of their own densities."""
    n = rng.randint(1, 40)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    if kind == 0:
        p = rng.random()
        edges = {e for e in pairs if rng.random() < p}
    elif kind == 1:
        k = rng.randint(1, min(n, 9))
        edges = {(a, b) for a, b in pairs if b < k or rng.random() < 1.5 / n}
    elif kind == 2:
        edges = {(a, b) for a, b in pairs if b < n // 2 and rng.random() < 4 / n}
    else:
        half, p, q = n // 2, rng.random(), rng.random()
        edges = {(a, b) for a, b in pairs if rng.random() < (p if b < half else q if a >= half else 0)}
    return OrientedGraph(n, tuple((a, b) if rng.random() < 0.5 else (b, a) for a, b in sorted(edges)))


def test_mad_matches_the_dinic_route(rng, monkeypatch):
    rounds = []
    flow = density._denser_subgraph

    def counted(*args):
        rounds[-1] += 1
        return flow(*args)

    monkeypatch.setattr(density, "_denser_subgraph", counted)
    for i in range(320):
        g = _mad_test_graph(rng, i % 4)
        rounds.append(0)
        assert pc.mad_exact(g) == _dinic_mad(g), g
    # the peeling start is densest for most graphs but not for all, so
    # the loop's later rounds run too
    assert 10 <= sum(r > 1 for r in rounds) <= 64


def test_mad_rejects_a_witness_that_is_not_denser(monkeypatch, capsys):
    # a witness no denser than the density it refutes would repeat that
    # density forever; the loop raises, and the CLI reports a fault
    monkeypatch.setattr(density, "_denser_subgraph", lambda out, head, a, b: set(range(len(out))))
    with pytest.raises(SelfCheckError, match="does not refute"):
        pc.mad_exact(pc.fixture("e1"))
    assert cli.main(["mad", "@e1"]) == cli.EXIT_INTERNAL
    assert "internal error" in capsys.readouterr().err


def _subdivided_cubic(kernel_n: int, seed: int) -> OrientedGraph:
    """A random cubic multigraph on ``kernel_n`` vertices (a random
    matching of their half-edges) with every edge a chain of 3 edges:
    n = 4 * kernel_n, m = 4.5 * kernel_n.  Every subgraph of it has at
    most 9/8 edges per vertex, so its mad is 9/4."""
    rng = random.Random(seed)
    ends = [v for v in range(kernel_n) for _ in range(3)]
    rng.shuffle(ends)
    kernel_edges = list(zip(ends[::2], ends[1::2]))
    kernel = Kernel.subdivided(kernel_n, kernel_edges, [3] * len(kernel_edges))
    return OrientedGraph(kernel.n, tuple(kernel.edges))


def test_mad_of_a_subdivided_cubic_kernel_at_5000_vertices():
    g = _subdivided_cubic(1250, seed=1)
    assert (g.vertex_count, g.arc_count) == (5000, 5625)
    assert pc.mad_exact(g) == Fraction(9, 4)


@pytest.mark.skipif(
    not os.environ.get("PUSHCRIT_STRETCH"),
    reason="stretch run; set PUSHCRIT_STRETCH=1 to enable (~1.5 s on a 2-vCPU Xeon)",
)
def test_stretch_mad_of_a_subdivided_cubic_kernel_at_50000_vertices():
    g = _subdivided_cubic(12500, seed=2)
    assert (g.vertex_count, g.arc_count) == (50000, 56250)
    assert pc.mad_exact(g) == Fraction(9, 4)


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


FIXTURE_DIR = Path(pc.__file__).parent / "fixtures"


def test_fixture_files_are_the_builtin_names():
    assert sorted(p.stem for p in FIXTURE_DIR.glob("*.og")) == sorted(pc.builtin_graphs())


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


# (fixture, a line of its file, what replaces that line, the gate's message):
# e1 loses an arc, c_minus4's 4-cycle gets an even number of forward arcs,
# and f keeps its counts but moves an arc's head from 2 to 1
BROKEN_FIXTURES = [
    ("e1", "p og 13 15\n0 4\n", "p og 13 14\n", "measured {'n': 13, 'm': 14"),
    ("c_minus4", "\n2 3\n", "\n3 2\n", "forward-arc parity"),
    ("f", "\n4 2\n", "\n4 1\n", "degree profile {2: 9, 3: 2, 4: 1}, not {2: 8, 3: 4}"),
]


@pytest.mark.parametrize(
    "name, line, replacement, message",
    BROKEN_FIXTURES,
    ids=[case[0] for case in BROKEN_FIXTURES],
)
def test_fixture_gates_refuse_a_broken_transcription(
    tmp_path, monkeypatch, name, line, replacement, message
):
    for path in FIXTURE_DIR.glob("*.og"):
        shutil.copy(path, tmp_path)
    broken = tmp_path / f"{name}.og"
    text = broken.read_text()
    assert text.count(line) == 1
    broken.write_text(text.replace(line, replacement))
    monkeypatch.setattr(fixtures, "_FIXTURE_DIR", tmp_path)
    fixtures.builtin_graphs.cache_clear()
    try:
        gate = f"fixture {name!r} failed its gate: {message}"
        with pytest.raises(FixtureIntegrityError, match=re.escape(gate)):
            fixtures.builtin_graphs()
        # a broken package file is the library's fault: internal error, exit 4
        assert cli.main(["info", "@c3"]) == 4
        with pytest.raises(FixtureIntegrityError, match=re.escape(gate)):
            pc.run_suites(("exceptions",))
    finally:
        fixtures.builtin_graphs.cache_clear()


# (text, the line its parse error names, the error's message)
PARSE_ERRORS = [
    ("0 1\n1 0\n", 2, "digon"),
    ("p og 2 5\n0 1\n", 1, "header promises 5 arcs"),
    ("# comment\n\n0 0\n", 3, "loop at vertex 0"),
    ("0 1\n0 1\n", 2, "parallel arc"),
    ("# comment\np og -1 0\n", 2, "a graph on -1 vertices"),
    ("p og 3 2\n0 1\n\n1 3\n", 4, "vertex 3 outside 0..2"),
    ("p og 2 1\n# again\np og 2 1\n0 1\n", 3, "duplicate header"),
    ("0 1\np og 2 1\n", 2, "header must precede arcs"),
    ("p og 2\n0 1\n", 1, "header must be 'p og <n> <m>'"),
    ("p graph 2 1\n0 1\n", 1, "header must be 'p og <n> <m>'"),
    ("p og two 1\n0 1\n", 1, "header counts must be integers"),
    ("0 1\n1 2 3\n", 2, "expected '<tail> <head>'"),
    ("0 1\n\n1 x\n", 3, "non-integer endpoint"),
]


def test_parse_errors_carry_line_numbers():
    for text, line, message in PARSE_ERRORS:
        with pytest.raises(GraphParseError, match=re.escape(message)) as err:
            pc.parse_graph(text)
        assert err.value.line == line, text
