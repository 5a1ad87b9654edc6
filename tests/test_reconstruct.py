"""Split-vertex reconstructions and the drawn 8-vertex witness."""

from __future__ import annotations

import random
from collections import Counter
from itertools import permutations

import pytest

import pushcrit as pc
from pushcrit import canon, graph, reconstruct, transfer
from pushcrit.canon import CanonicalLabeling, canonical_form
from pushcrit.chains import Kernel
from pushcrit.errors import IncompatibleInputError
from pushcrit.fixtures import M3P_COLORING, M3P_PUSH_SET, fixture
from pushcrit.graph import OrientedGraph, adjacency
from pushcrit.hom import C3
from pushcrit.orient import push_class_representatives
from pushcrit.reconstruct import (
    _gadget,
    _glue,
    _glue_directions,
    _split,
    verify_fig6_coloring,
    verify_split_vertex_reconstructions,
)


def _attach(w: int, v: int, dirs) -> tuple[int, int]:
    """The arc between w, standing in for the split vertex, and its
    neighbor v: away from w when dirs[v] is 1."""
    return (w, v) if dirs[v] else (v, w)


def reconstruction_cases(source, split: int):
    """Yield (dirs, roles, graph) for every reconstructed graph of one
    source, a fixture name or a graph, and split vertex, built from edge
    lists as the ``reconstruct`` docstring describes them.

    ``dirs`` orients the split vertex's three arcs, 1 when an arc points
    away from it; a pattern is used when regluing the vertex with it
    reproduces the source up to push iso.  In a reconstruction the split
    vertex is the far half, joined to roles[0]; the fresh vertex n takes
    roles[1] and roles[2]; the hub n + 1 is joined to the far half, to
    roles[1] and to the fresh half by chains of 2, 3 and 2 edges, whose
    interiors are n + 2 .. n + 5.  The chains take every orientation up to
    pushing the hub and the interiors.
    """
    base = fixture(source) if isinstance(source, str) else source
    nbrs = _split(base, split)
    n = base.vertex_count
    base_form = canonical_form(base)
    others = [arc for arc in base.arcs if split not in arc]
    patterns = [{v: bits >> i & 1 for i, v in enumerate(nbrs)} for bits in range(8)]
    gluings = [
        (dirs, OrientedGraph(n, tuple(others + [_attach(split, v, dirs) for v in nbrs])))
        for dirs in patterns
    ]
    # the gluings differ only in orientation: one labeling serves all 8
    labeling = CanonicalLabeling(gluings[0][1].adjacency_masks)
    valid_dirs = [dirs for dirs, glued in gluings if labeling.form(glued) == base_form]
    hub = n + 1
    for dirs in valid_dirs:
        for roles in permutations(nbrs):
            given = others + [
                _attach(split, roles[0], dirs),
                _attach(n, roles[1], dirs),
                _attach(n, roles[2], dirs),
            ]
            chains = []
            interior = n + 2
            for end, length in ((split, 2), (roles[1], 3), (n, 2)):
                path = [hub, *range(interior, interior + length - 1), end]
                interior += length - 1
                chains += [(min(e), max(e)) for e in zip(path, path[1:])]
            movable = range(hub, interior)
            for new_arcs in push_class_representatives(interior, chains, movable):
                yield dirs, roles, OrientedGraph(interior, tuple(given) + new_arcs)


def test_reconstruction_shapes_for_one_split():
    base = pc.fixture("e1")
    cases = list(reconstruction_cases("e1", 3))
    assert cases
    for dirs, roles, graph in cases:
        assert graph.vertex_count == base.vertex_count + 6
        assert graph.arc_count == base.arc_count + 7
        assert sorted(roles) == sorted(base.neighbors(3))
        # the fresh hub is a 3-vertex with chains 2, 2, 1
        hub = base.vertex_count + 1
        assert pc.classify_vertices(graph).descriptors[hub] == (2, 2, 1)


def test_split_vertex_of_wrong_degree_is_typed_error():
    base = pc.fixture("e1")
    other = next(v for v in range(base.vertex_count) if base.degree(v) != 3)
    with pytest.raises(IncompatibleInputError):
        next(reconstruction_cases("e1", other))


def test_split_vertex_outside_the_graph_is_typed_error():
    # -1 must not read vertex 12 through negative indexing
    for split in (99, -1, 13):
        with pytest.raises(IncompatibleInputError, match="not in 0..12"):
            next(reconstruction_cases("e1", split))


def test_one_labeling_per_underlying_graph(monkeypatch):
    calls = []
    real = canon.canonical_data

    def counting(adj):
        calls.append(len(adj))
        return real(adj)

    monkeypatch.setattr(canon, "canonical_data", counting)
    list(reconstruction_cases("e1", 3))
    # the source, then one labeling for all 8 glued graphs
    assert calls == [13, 13]
    # the fast path labels each source once, for the gluings of all its
    # splits, and one role graph per orbit of its automorphisms on the 24
    # role triples (6 per split, 4 splits)
    calls.clear()
    verify_split_vertex_reconstructions(("e1",))
    assert calls == [13] + [19] * 4
    calls.clear()
    verify_split_vertex_reconstructions()
    assert len(calls) == 23


def test_the_representatives_canonical_graphs_are_pairwise_distinct():
    # the orbits are exactly the isomorphism classes of the role graphs,
    # and no role graph of one source is one of another's: an image cache
    # shared by the representatives would never hit
    graphs = []
    for name, orbits in (("e1", 4), ("e2", 4), ("e3", 12)):
        base = fixture(name)
        role_graphs = reconstruct._role_graphs(base, CanonicalLabeling(base.adjacency_masks))
        assert len(role_graphs) == 24
        representatives = {id(role): role for role, _, _ in role_graphs.values()}.values()
        assert len(representatives) == orbits
        graphs += [(len(role.labeling.adj), role.labeling.edges) for role in representatives]
    assert len(graphs) == 20 and len(set(graphs)) == 20


def test_each_role_triple_is_built_once(monkeypatch):
    gadgets, chain_graphs = [], []
    real_gadget, real_chain_graph = reconstruct._gadget, reconstruct.ChainGraph

    def counting_gadget(base, split, roles):
        gadgets.append((base.arcs, split, roles))
        return real_gadget(base, split, roles)

    def counting_chain_graph(*args):
        chain_graphs.append(args[0].n)
        return real_chain_graph(*args)

    monkeypatch.setattr(reconstruct, "_gadget", counting_gadget)
    monkeypatch.setattr(reconstruct, "ChainGraph", counting_chain_graph)
    inventories = verify_split_vertex_reconstructions()
    assert sum(inv.graphs_checked for inv in inventories) == 576
    # 24 role triples per source (6 per split, 4 splits), one build each,
    # and one ChainGraph per representative
    assert len(gadgets) == len(set(gadgets)) == 72
    assert chain_graphs == [19] * 20


def test_no_graph_is_built_per_case(monkeypatch):
    verify_split_vertex_reconstructions()  # loads the fixtures
    built = []
    real = graph._arc_violation

    def counting(n, arcs):
        built.append(n)
        return real(n, arcs)

    monkeypatch.setattr(graph, "_arc_violation", counting)
    inventories = verify_split_vertex_reconstructions()
    assert sum(inv.graphs_checked for inv in inventories) == 576
    assert built == []
    # the count sees graphs: the slow path builds its 8 gluings and 48 cases
    list(reconstruction_cases("e1", 3))
    assert built.count(13) == 8 and built.count(19) == 48


def _relabeled(name: str, seed):
    """The fixture ``name``, its vertices shuffled by ``seed`` (None: as is)."""
    g = fixture(name)
    if seed is None:
        return g
    perm = list(range(g.vertex_count))
    random.Random(seed).shuffle(perm)
    return g.relabel(perm)


@pytest.mark.parametrize("seed", [None, 1, 2])
@pytest.mark.parametrize("name", ["e1", "e2", "e3"])
def test_transport_equals_labeling_each_triples_own_graph(name, seed):
    base = _relabeled(name, seed)
    n = base.vertex_count
    source = CanonicalLabeling(base.adjacency_masks)
    automorphisms = canon.orbit_of(
        tuple(range(n)), source.gens, lambda s, p: tuple(s[v] for v in p)
    )
    role_graphs = reconstruct._role_graphs(base, source)
    assert len(role_graphs) == 24
    images: dict = {}
    cases = 0
    for split in (v for v in range(n) if base.degree(v) == 3):
        nbrs = _split(base, split)
        # the per-triple path: every case labeled on its own graph
        own = {}
        for dirs, roles, g in reconstruction_cases(base, split):
            labeling = CanonicalLabeling(g.adjacency_masks)
            if labeling.edges not in images:
                images[labeling.edges] = reconstruct._canonical_image(labeling)
            verdict = labeling.form(g), labeling.class_of(g.arcs) in images[labeling.edges]
            own.setdefault((tuple(dirs.values()), roles), Counter())[verdict] += 1
        for roles in permutations(nbrs):
            role, into, arcs = role_graphs[split, roles]
            total, own_arcs, _ = _gadget(base, split, roles)
            assert arcs == own_arcs
            # into is the inverse of an automorphism of base on 0..n-1 and
            # the identity on the new vertices n..n+5
            inverse = [0] * n
            for v, w in enumerate(into[:n]):
                inverse[w] = v
            assert tuple(inverse) in automorphisms
            assert into[n:] == list(range(n, total))
            # it sends the triple's role graph onto the representative's
            glued = arcs + _glue(split, n, roles, _glue_directions(nbrs)[0])
            moved = adjacency(total, [(into[a], into[b]) for a, b in glued])
            assert tuple(moved) == role.labeling.adj
            for dirs in _glue_directions(nbrs):
                key = tuple(dirs.values()), roles
                if key not in own:
                    continue
                glued = arcs + _glue(split, n, roles, dirs)
                moved = role.verdicts([(into[t], into[h]) for t, h in glued])
                assert Counter(moved) == own[key]
                cases += len(moved)
    assert cases == 192


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabeled_sources_give_the_pinned_inventories(monkeypatch, seed):
    # the orbits, the representatives and the maps all change with the
    # labels; the inventories of a source, as a multiset, do not
    monkeypatch.setattr(reconstruct, "fixture", lambda name: _relabeled(name, seed))
    inventories = verify_split_vertex_reconstructions()
    got = Counter(
        (inv.source, inv.valid_glue_orientations, inv.graphs_checked, inv.distinct_graphs,
         inv.colorable)
        for inv in inventories
    )
    pinned = Counter(
        (name, 2, 48, distinct, 48) for (name, _), distinct in PINNED_DISTINCT_GRAPHS.items()
    )
    assert got == pinned


def test_fast_path_equals_the_graphs_and_the_search():
    # per split, the multiset of (push form, colorable) over the cases
    # equals the one of reconstruction_cases, canonical_form and the search
    cases = 0
    for name in ("e1", "e2", "e3"):
        base = pc.fixture(name)
        source = canon.CanonicalLabeling(base.adjacency_masks)
        role_graphs = reconstruct._role_graphs(base, source)
        for split in range(4):
            valid, fast = reconstruct._split_verdicts(base, source, split, role_graphs)
            slow = []
            glue = set()
            for dirs, _, g in reconstruction_cases(name, split):
                glue.add(tuple(sorted(dirs.items())))
                slow.append(
                    (canon.canonical_form(g), pc.is_pushably_k_colorable(g, 3) is not None)
                )
            assert Counter(fast) == Counter(slow)
            assert sorted(tuple(sorted(d.items())) for d in valid) == sorted(glue)
            cases += len(fast)
    assert cases == 576


def test_one_image_per_canonical_graph_and_no_search(monkeypatch):
    images = []
    real_image = transfer._coloring_image

    def counting_image(*args, **kwargs):
        images.append(args[2])
        return real_image(*args, **kwargs)

    def no_search(*args, **kwargs):
        raise AssertionError("a reconstruction was searched")

    monkeypatch.setattr(transfer, "_coloring_image", counting_image)
    monkeypatch.setattr(reconstruct, "is_pushably_k_colorable", no_search)
    # the 24 role triples of a source (6 per split, 4 splits) fall into 4,
    # 4 and 12 isomorphism classes, one image each; the suite calls once
    # per source
    per_source = {}
    for name in ("e1", "e2", "e3"):
        images.clear()
        inventories = verify_split_vertex_reconstructions((name,))
        per_source[name] = len(images)
        assert sum(inv.colorable for inv in inventories) == 192
    assert per_source == {"e1": 4, "e2": 4, "e3": 12}
    # no role graph is shared across sources: one call builds the same 20
    images.clear()
    inventories = verify_split_vertex_reconstructions()
    assert len(images) == 20
    assert sum(inv.colorable for inv in inventories) == 576


def test_canonical_image_is_in_canonical_coordinates():
    # every class of a role graph is colorable, so the reconstructions
    # cannot tell two coordinate systems apart; here some classes are not
    for name in ("e1", "e2", "e3", "at_c3"):
        g = pc.fixture(name)
        labeling = CanonicalLabeling(g.adjacency_masks)
        image = reconstruct._canonical_image(labeling)
        coords = labeling._mode(True)[0]
        verdicts = [
            pc.is_pushably_k_colorable(pc.OrientedGraph(g.vertex_count, coords.arcs(bits)), 3)
            is not None
            for bits in range(1 << len(coords.free))
        ]
        assert image == {bits for bits, ok in enumerate(verdicts) if ok}
        assert 0 < len(image) < len(verdicts)
        # e1, e2 and e3 are not colorable, at_c3 is
        assert (labeling.class_of(g.arcs) in image) == (name == "at_c3")


def test_a_source_without_a_3_vertex_is_a_typed_error():
    # nothing to split: an empty inventory would pass all(inv.ok ...)
    with pytest.raises(IncompatibleInputError, match="'c_minus4' has no vertex of degree 3"):
        verify_split_vertex_reconstructions(("c_minus4",))


def test_image_verdicts_equal_the_search():
    # every reconstruction, and every other push class of its underlying
    # graph: all 16 classes of each of the 72 are colorable
    cases = 0
    for name in ("e1", "e2", "e3"):
        for split in range(4):
            chains = {}
            for _, roles, graph in reconstruction_cases(name, split):
                cases += 1
                want = pc.is_pushably_k_colorable(graph, 3) is not None
                if roles not in chains:
                    kept = [v for v, d in enumerate(graph.degrees) if d >= 3]
                    image = chains[roles] = transfer.ChainGraph(
                        Kernel.of(graph.vertex_count, graph.edges, kept)
                    )
                    for bits in range(1 << image.width):
                        g = pc.OrientedGraph(graph.vertex_count, image.coords.arcs(bits))
                        colorable = pc.is_pushably_k_colorable(g, 3) is not None
                        assert (bits in image.image) == colorable
                    assert len(image.image) == 16
                chain_graph = chains[roles]
                got = chain_graph.coords.class_of(graph.arc_set) in chain_graph.image
                assert got == want, graph.arcs
    assert cases == 576 and len(chains) == 6


# (source, split vertex) -> distinct graphs; every split glues back in 2
# ways, and every one of its 48 reconstructions is colorable
PINNED_DISTINCT_GRAPHS = {
    ("e1", 0): 12, ("e1", 1): 12, ("e1", 2): 12, ("e1", 3): 4,
    ("e2", 0): 12, ("e2", 1): 12, ("e2", 2): 12, ("e2", 3): 4,
    ("e3", 0): 24, ("e3", 1): 24, ("e3", 2): 12, ("e3", 3): 12,
}


def test_reconstruction_inventories_pinned():
    inventories = verify_split_vertex_reconstructions()
    assert {
        (inv.source, inv.split_vertex): inv.distinct_graphs for inv in inventories
    } == PINNED_DISTINCT_GRAPHS
    for inv in inventories:
        assert inv.valid_glue_orientations == 2
        assert inv.graphs_checked == 48
        assert inv.colorable == 48


def test_reconstruction_inventories_colorable():
    for inv in verify_split_vertex_reconstructions(("e2",)):
        assert inv.graphs_checked > 0
        assert inv.colorable == inv.graphs_checked
        assert inv.ok


def test_every_e1_split_has_cases():
    inventories = verify_split_vertex_reconstructions(("e1",))
    assert len(inventories) == 4  # one per degree-3 vertex
    assert all(inv.valid_glue_orientations >= 1 for inv in inventories)
    assert all(inv.ok for inv in inventories)


def test_fig6_drawn_coloring():
    report = verify_fig6_coloring()
    assert report.ok
    assert report.potential == 3
    cert = pc.ColoringCertificate(M3P_PUSH_SET, M3P_COLORING, C3)
    assert cert.verify(pc.fixture("m3p"))


def test_fig6_smoke_case_reports_a_verdict():
    report = verify_fig6_coloring()
    assert report.reversed_arc_recheck in ("colorable", "uncolorable")
