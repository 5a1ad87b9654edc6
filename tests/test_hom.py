"""Homomorphism search, certificates, chromatic numbers, path tables."""

from __future__ import annotations

import hashlib
from typing import Iterable

import pytest

import pushcrit as pc
from pushcrit.configs import CONFIG_IDS, gadgets_for
from pushcrit.errors import (
    ConfigError,
    IncompatibleInputError,
    ResourceBudgetError,
    SelfCheckError,
)
from pushcrit.graph import OrientedGraph, push_vertices
from pushcrit.hom import (
    AT_C3,
    C3,
    ColoringCertificate,
    MappingSearcher,
    TargetIndex,
    _static_order,
    _tournament_targets,
    oriented_path,
    solve_mapping,
    target_index,
    tournament_coloring,
)

from conftest import (
    brute_pushable_colorable,
    extend_partial_bruteforce,
    random_oriented_graph,
)


def test_identity_homomorphism():
    c3 = pc.directed_cycle(3)
    mapping = pc.find_homomorphism(c3, c3)
    assert mapping is not None
    assert all((mapping[t], mapping[h]) in c3.arc_set for t, h in c3.arcs)


def test_directed_c4_into_c3_fails():
    assert pc.find_homomorphism(pc.directed_cycle(4), pc.directed_cycle(3)) is None


def test_c_minus4_not_at_c3_colorable():
    assert pc.find_homomorphism(pc.fixture("c_minus4"), AT_C3) is None


def test_pushable_c4_to_c3():
    cert = pc.find_pushable_homomorphism(pc.directed_cycle(4), C3)
    assert cert is not None and cert.verify(pc.directed_cycle(4))
    assert brute_pushable_colorable(pc.directed_cycle(4), C3)


def test_c_minus4_pushable_fails():
    assert pc.find_pushable_homomorphism(pc.fixture("c_minus4"), C3) is None
    assert not brute_pushable_colorable(pc.fixture("c_minus4"), C3)


def test_targets_above_sixty_vertices(rng):
    # AT(h) has twice h's vertices, so a pushable search into a directed
    # 31-cycle searches a 62-vertex target; the masks are Python ints
    cycle = pc.directed_cycle(31)
    perm = list(range(31))
    rng.shuffle(perm)
    copy = cycle.relabel(perm)
    cert = pc.find_pushable_homomorphism(copy, cycle)
    assert cert is not None and cert.verify(copy)
    assert pc.find_pushable_homomorphism(pc.fixture("c_minus4"), pc.directed_cycle(40)) is None


def test_e1_minus_each_arc_colorable():
    e1 = pc.fixture("e1")
    for arc in sorted(e1.arcs):
        smaller = e1.delete_arc(arc)
        cert = pc.find_pushable_homomorphism(smaller, C3)
        assert cert is not None and cert.verify(smaller)


def test_at_reduction_agrees_with_push_enumeration(rng):
    for _ in range(40):
        g = random_oriented_graph(rng, rng.randint(1, 8), p=0.45)
        fast = pc.find_pushable_homomorphism(g, C3) is not None
        assert fast == brute_pushable_colorable(g, C3)


def test_observation_equivalences(rng):
    # pushably 3-colorable == pushably C3-colorable == AT(C3)-colorable
    for _ in range(25):
        g = random_oriented_graph(rng, rng.randint(1, 7), p=0.5)
        via_k = pc.pushable_chromatic_number(g, 3) is not None
        via_c3 = pc.find_pushable_homomorphism(g, C3) is not None
        via_at = pc.find_homomorphism(g, AT_C3) is not None
        assert via_k == via_c3 == via_at


def retarget_certificate(
    g: OrientedGraph, cert: ColoringCertificate, target_push: Iterable[int]
) -> ColoringCertificate:
    """Rebase a certificate onto a push-equivalent copy of its target.

    If f maps push(g, S) into h, then f also maps push(g, S xor f^-1(T))
    into push(h, T): an arc flips on the source side exactly when its
    image flips on the target side.
    """
    t_set = frozenset(target_push)
    new_target = push_vertices(cert.target, t_set)
    s = set(cert.push_set)
    for v, image in enumerate(cert.mapping):
        if image in t_set:
            s.symmetric_difference_update([v])
    out = ColoringCertificate(frozenset(s), cert.mapping, new_target)
    if not out.verify(g):
        raise SelfCheckError("a rebased certificate does not verify")
    return out


def test_certificate_transfer_to_pushed_target(rng):
    for _ in range(20):
        g = random_oriented_graph(rng, rng.randint(2, 7), p=0.5)
        cert = pc.find_pushable_homomorphism(g, C3)
        if cert is None:
            continue
        t_push = {v for v in range(3) if rng.random() < 0.5}
        moved = retarget_certificate(g, cert, t_push)
        assert moved.target.arc_set == push_vertices(C3, t_push).arc_set
        assert moved.verify(g)


def test_certificates_name_vertices_of_their_graphs():
    # each probe once verified: 0.5 pushed nothing, 1.0 was read as 1, and
    # an arcless graph checked no image at all
    c3 = pc.directed_cycle(3)
    good = ColoringCertificate(frozenset(), (0, 1, 2), C3)
    assert good.verify(c3)
    probes = [
        (c3, ColoringCertificate(frozenset({0.5}), (0, 1, 2), C3)),
        (c3, ColoringCertificate(frozenset(), (0, 1.0, 2), C3)),
        (OrientedGraph(1, ()), ColoringCertificate(frozenset(), (7,), C3)),
    ]
    for g, cert in probes:
        assert not cert.verify(g)


def _old_static_order(g, doms):
    """The order before the rank scan: a (touches, degree, -v) tuple per step."""
    n = g.vertex_count
    degs = g.degrees
    placed = [v for v in range(n) if doms[v].bit_count() == 1]
    placed_set = set(placed)
    adj = g.adjacency_masks
    frontier = 0
    for v in placed:
        frontier |= adj[v]
    while len(placed) < n:
        best = None
        for v in range(n):
            if v in placed_set:
                continue
            touches = bool(frontier >> v & 1)
            key = (touches, degs[v], -v)
            if best is None or key > best[0]:
                best = (key, v)
        v = best[1]
        placed.append(v)
        placed_set.add(v)
        frontier |= adj[v]
    return placed


def _oracle_solve(g, target, domains=None):
    """The kernel without a start mask or a backjump: every vertex ranges
    over its domain, the whole target when ``domains`` is None."""
    n = g.vertex_count
    order = _old_static_order(g, [0] * n if domains is None else domains)
    pos = {v: i for i, v in enumerate(order)}
    later = [[] for _ in range(n)]
    for t, h in g.arcs:
        if pos[t] < pos[h]:
            later[t].append((h, True))
        else:
            later[h].append((t, False))
    doms = [target.full_mask] * n if domains is None else list(domains)
    if not n:
        return (), 0
    tout, tin = target.out_masks, target.in_masks
    assign = [-1] * n
    nodes = 0

    def place(i):
        nonlocal nodes
        if i == n:
            return True
        v = order[i]
        cand = doms[v]
        while cand:
            bit = cand & -cand
            cand ^= bit
            a = bit.bit_length() - 1
            nodes += 1
            assign[v] = a
            trail = []
            ok = True
            for w, outgoing in later[v]:
                old = doms[w]
                new = old & (tout[a] if outgoing else tin[a])
                if new != old:
                    trail.append((w, old))
                    doms[w] = new
                    if not new:
                        ok = False
                        break
            if ok and place(i + 1):
                return True
            for w, old in trail:
                doms[w] = old
        return False

    return (tuple(assign) if place(0) else None), nodes


def _kernel_sources(rng, count):
    """Random graphs on <= 12 vertices; every third is two disjoint parts."""
    for i in range(count):
        if i % 3 == 2:
            a = random_oriented_graph(rng, rng.randint(1, 6), p=rng.uniform(0.3, 0.8))
            b = random_oriented_graph(rng, rng.randint(1, 6), p=rng.uniform(0.3, 0.8))
            shift = a.vertex_count
            arcs = a.arcs + tuple((t + shift, h + shift) for t, h in b.arcs)
            perm = list(range(shift + b.vertex_count))
            rng.shuffle(perm)
            yield pc.OrientedGraph(len(perm), arcs).relabel(perm)
        else:
            yield random_oriented_graph(rng, rng.randint(1, 12), p=rng.uniform(0.2, 0.6))


def _kernel_targets():
    """AT(C3), and every tournament on <= 5 vertices and its AT(t)."""
    return [target_index(AT_C3)] + [
        target
        for k in range(1, 6)
        for target in [target_index(t) for t in pc.tournaments(k, "iso")]
        + [target for _, target in _tournament_targets(k)]
    ]


def test_start_mask_keeps_the_first_mapping(rng):
    targets = _kernel_targets()
    for g in _kernel_sources(rng, 120):
        searcher = MappingSearcher(g)
        for target in targets:
            mapping, nodes = searcher.solve(target)
            want, want_nodes = _oracle_solve(g, target)
            assert mapping == want
            assert nodes <= want_nodes


def test_pinned_domains_keep_the_first_mapping(rng):
    # singleton pins go first in the order and restricted domains get
    # forward checking only; the backjump may only save nodes
    targets = _kernel_targets()
    for g in _kernel_sources(rng, 60):
        for target in targets:
            doms = []
            for _ in range(g.vertex_count):
                r = rng.random()
                if r < 0.3:
                    doms.append(1 << rng.randrange(target.size))
                elif r < 0.5:
                    doms.append(rng.randrange(1, target.full_mask + 1))
                else:
                    doms.append(target.full_mask)
            mapping, nodes = MappingSearcher(g, doms).solve(target, doms)
            want, want_nodes = _oracle_solve(g, target, doms)
            assert mapping == want
            assert nodes <= want_nodes


def _least_orbit_members(h):
    """Least member of each orbit of the arc-preserving permutations of h.

    On a tournament, and on AT(t) of one with at least two vertices, any
    two vertices but the twins of AT(t) are adjacent, so every endomorphism
    is injective; these least members are then the start mask.
    """
    n = h.vertex_count
    arcs = h.arc_set
    images = [set() for _ in range(n)]
    assign = []

    def extend():
        v = len(assign)
        if v == n:
            for u, image in enumerate(assign):
                images[u].add(image)
            return
        for c in range(n):
            if c in assign:
                continue
            assign.append(c)
            if all(
                (assign[t], assign[w]) in arcs
                for t, w in arcs
                if max(t, w) <= v
            ):
                extend()
            assign.pop()

    extend()
    return sum(1 << v for v in range(n) if min(images[v]) == v)


def test_start_mask_is_the_least_of_each_orbit():
    assert target_index(AT_C3).start_mask == 0b1
    for k in range(1, 6):
        for t in pc.tournaments(k, "iso"):
            for h in (t, pc.anti_twin(t)):
                assert TargetIndex(h).start_mask == _least_orbit_members(h)


def test_start_mask_spends_nothing_of_the_caller():
    g = pc.fixture("c_minus4")
    h = AT_C3
    _, nodes = MappingSearcher(g).solve(target_index(h))
    # a fresh index computes its mask inside this solve
    assert MappingSearcher(g).solve(TargetIndex(h), budget=nodes) == (None, nodes)
    with pytest.raises(ResourceBudgetError):
        MappingSearcher(g).solve(TargetIndex(h), budget=nodes - 1)


def test_static_order_matches_the_tuple_scan(rng):
    templates = []
    for cid in CONFIG_IDS:
        for gadget in gadgets_for(cid):
            g = gadget.graph
            pins = [1 if v in gadget.boundary else 0b111111 for v in range(g.vertex_count)]
            templates.append((g, pins))
    for g in _kernel_sources(rng, 60):
        templates.append((g, [0] * g.vertex_count))
        pins = [1 << rng.randrange(6) if rng.random() < 0.3 else 0b111111 for _ in range(g.vertex_count)]
        templates.append((g, pins))
    for g, pins in templates:
        order, starts = _static_order(g, pins)
        assert order == _old_static_order(g, pins)
        # a start is the first of its component in the order, and no
        # pinned vertex shares its component
        pinned = {v for v in range(g.vertex_count) if pins[v].bit_count() == 1}
        pos = {v: i for i, v in enumerate(order)}
        want = [
            min(comp, key=pos.get)
            for comp in g.components
            if pinned.isdisjoint(comp)
        ]
        assert starts == sorted(want, key=pos.get)


def test_chromatic_numbers_examples():
    single = pc.OrientedGraph(2, ((0, 1),))
    assert pc.pushable_chromatic_number(single) == 2
    assert pc.oriented_chromatic_number(single) == 2
    assert pc.pushable_chromatic_number(pc.directed_cycle(3)) == 3
    assert pc.oriented_chromatic_number(pc.directed_cycle(3)) == 3
    assert pc.pushable_chromatic_number(pc.fixture("c_minus4")) == 4
    assert pc.pushable_chromatic_number(pc.OrientedGraph(3, ())) == 1


def test_chromatic_k_range():
    with pytest.raises(ConfigError):
        pc.pushable_chromatic_number(pc.directed_cycle(3), 7)
    with pytest.raises(ConfigError):
        pc.oriented_chromatic_number(pc.directed_cycle(3), 0)
    for k in (0, 7):
        with pytest.raises(ConfigError):
            pc.is_pushably_k_colorable(pc.directed_cycle(3), k)
    # k is an int
    e1 = pc.fixture("e1")
    with pytest.raises(ConfigError):
        pc.pushable_chromatic_number(e1, 3.0)
    with pytest.raises(ConfigError):
        pc.is_pushably_k_critical(e1, 3.0)
    with pytest.raises(ConfigError):
        pc.tournaments(3.0)
    with pytest.raises(ConfigError):
        pc.path_color_sets(2.0, "even")


def test_tournament_coloring_rejects_an_empty_k_range():
    for up_to in ("push_iso", "iso"):
        with pytest.raises(ConfigError):
            tournament_coloring(pc.fixture("c_minus4"), 5, 3, up_to)


def test_chromatic_sandwich(rng):
    for _ in range(20):
        g = random_oriented_graph(rng, rng.randint(1, 6), p=0.35)
        chi_p = pc.pushable_chromatic_number(g)
        chi_o = pc.oriented_chromatic_number(g)
        assert chi_p is not None and chi_o is not None
        assert chi_p <= chi_o <= 2 * chi_p


def _old_chromatic_number(g, k_max, up_to):
    """The per-target loop the chromatic numbers ran before the shared walk."""
    for k in range(1, k_max + 1):
        if k == 1:
            if g.arc_count == 0:
                return 1
            continue
        for t in pc.tournaments(k, up_to):
            if up_to == "push_iso":
                found = pc.find_pushable_homomorphism(g, t)
            else:
                found = pc.find_homomorphism(g, t)
            if found is not None:
                return k
    return None


def _old_colorable(g, k):
    """The per-target loop is_pushably_k_colorable ran before the shared walk."""
    if k == 1:
        if g.arc_count == 0:
            t1 = pc.tournaments(1)[0]
            return pc.ColoringCertificate(frozenset(), (0,) * g.vertex_count, t1)
        return None
    for t in pc.tournaments(k, "push_iso"):
        cert = pc.find_pushable_homomorphism(g, t)
        if cert is not None:
            return cert
    return None


def test_one_searcher_serves_every_tournament_target(rng):
    # the order and neighbor tables depend on the source only, so a searcher
    # reused across targets must search exactly as a fresh one per target
    for _ in range(12):
        g = random_oriented_graph(rng, rng.randint(2, 8), p=rng.uniform(0.3, 0.7))
        searcher = MappingSearcher(g)
        for up_to in ("iso", "push_iso"):
            for k in range(1, 7):
                for t in pc.tournaments(k, up_to):
                    target = target_index(pc.anti_twin(t) if up_to == "push_iso" else t)
                    assert searcher.solve(target) == solve_mapping(g, target)


def test_walk_matches_the_per_target_loops(rng):
    for _ in range(25):
        g = random_oriented_graph(rng, rng.randint(1, 8), p=rng.uniform(0.2, 0.7))
        for k_max in (1, 3, 6):
            assert pc.pushable_chromatic_number(g, k_max) == _old_chromatic_number(
                g, k_max, "push_iso"
            )
            assert pc.oriented_chromatic_number(g, k_max) == _old_chromatic_number(
                g, k_max, "iso"
            )
        for k in range(1, 5):
            new = pc.is_pushably_k_colorable(g, k)
            old = _old_colorable(g, k)
            assert new == old
            if new is not None:
                assert new.target.name == old.target.name


def _assert_tournament_certificate(g, cert, k):
    assert cert.verify(g) and not cert.push_set
    t = cert.target
    assert t.vertex_count == k
    assert sorted((min(a, b), max(a, b)) for a, b in t.arcs) == [
        (a, b) for a in range(k) for b in range(a + 1, k)
    ]


def test_iso_search_matches_the_per_target_loop(rng):
    # one search over every labeled k-tournament against one search per
    # iso-tournament; every third source has two differently oriented parts
    for g in _kernel_sources(rng, 60):
        for k_max in range(1, 7):
            want = _old_chromatic_number(g, k_max, "iso")
            cert = tournament_coloring(g, 1, k_max, "iso")
            assert (cert and cert.target.vertex_count) == want
            if cert is not None:
                _assert_tournament_certificate(g, cert, want)
            assert pc.oriented_chromatic_number(g, k_max) == want


def test_iso_search_certificates_for_every_k(rng):
    # a search for exactly k colors finds a map whenever chi_o <= k
    for g in _kernel_sources(rng, 30):
        chi = pc.oriented_chromatic_number(g)
        for k in range(max(chi or 7, 2), 7):
            _assert_tournament_certificate(g, tournament_coloring(g, k, k, "iso"), k)


def test_tournament_enumeration_counts():
    assert [len(pc.tournaments(k, "iso")) for k in range(1, 7)] == [1, 1, 2, 4, 12, 56]
    push_counts = [len(pc.tournaments(k, "push_iso")) for k in range(1, 7)]
    assert push_counts[:3] == [1, 1, 1]
    # distinct canonical forms within each family
    for k in range(2, 7):
        forms = {pc.canonical_form(t) for t in pc.tournaments(k, "push_iso")}
        assert len(forms) == len(pc.tournaments(k, "push_iso"))


@pytest.mark.parametrize(
    "up_to, digest",
    [
        ("push_iso", "45dcf88b46c38f28d2ac2e31bb3c375234144f4e6448f215fd63c1cf4f4c4586"),
        ("iso", "383ced762e1a034149c82de1a0e6bb3e84f4c6b85becfa4e14fd4f85e0d52240"),
    ],
)
def test_tournaments_pinned(up_to, digest):
    # names and arcs, in order, of the walk with per-edge normalization and
    # relabeling that the table-driven walk replaced
    text = "".join(
        f"{t.name} {t.arcs}\n" for k in range(1, 7) for t in pc.tournaments(k, up_to)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == digest


PATH_TABLE = {
    (1, "even"): {2},
    (2, "even"): {1, 2},
    (3, "even"): {0, 1},
    (4, "even"): {0, 1, 2},
    (5, "even"): {0, 1, 2},
    (1, "odd"): {1},
    (2, "odd"): {0},
    (3, "odd"): {0, 2},
    (4, "odd"): {1, 2},
    (5, "odd"): {0, 1, 2},
}


def _oracle_allowed_colors(k: int, parity: str):
    """Independent re-derivation: every orientation of the stated parity,
    every internal push, every internal coloring, by plain enumeration."""
    want = 0 if parity == "even" else 1
    per_orientation = []
    for bits in range(1 << k):
        if bin(bits).count("1") % 2 != want:
            continue
        arcs = tuple(
            (i, i + 1) if bits >> i & 1 else (i + 1, i) for i in range(k)
        )
        path = pc.OrientedGraph(k + 1, arcs)
        allowed = set()
        internals = list(range(1, k))
        for c in range(3):
            found = False
            for push_bits in range(1 << len(internals)):
                s = [internals[i] for i in range(len(internals)) if push_bits >> i & 1]
                pushed = push_vertices(path, s)
                target = pc.OrientedGraph(
                    3, tuple(((i, (i + 1) % 3)) for i in range(3))
                )
                # color endpoints 0 and c; internals free: brute assignments
                if _extends(pushed, {0: 0, k: c}, target):
                    found = True
                    break
            if found:
                allowed.add(c)
        per_orientation.append(allowed)
    assert all(a == per_orientation[0] for a in per_orientation)
    return per_orientation[0]


def _extends(g, colors, target):
    n = g.vertex_count
    assign = [-1] * n
    for v, c in colors.items():
        assign[v] = c

    def rec(v):
        while v < n and assign[v] != -1:
            v += 1
        if v == n:
            return all((assign[t], assign[h]) in target.arc_set for t, h in g.arcs)
        for c in range(3):
            assign[v] = c
            ok = all(
                (assign[t], assign[h]) in target.arc_set
                for t, h in g.arcs
                if assign[t] != -1 and assign[h] != -1
            )
            if ok and rec(v + 1):
                return True
            assign[v] = -1
        return False

    return rec(0)


@pytest.mark.parametrize("k,parity", sorted(PATH_TABLE))
def test_path_color_sets_match_table_and_oracle(k, parity):
    allowed, forbidden = pc.path_color_sets(k, parity)
    assert set(allowed) == PATH_TABLE[(k, parity)]
    assert set(allowed) | set(forbidden) == {0, 1, 2}
    assert not set(allowed) & set(forbidden)
    assert set(allowed) == _oracle_allowed_colors(k, parity)


def test_extend_partial_long_chain_always_extendable(rng):
    # 4 internal uncolored vertices between two colored endpoints
    for bits in range(32):
        arcs = tuple(
            (i, i + 1) if bits >> i & 1 else (i + 1, i) for i in range(5)
        )
        path = pc.OrientedGraph(6, arcs)
        for c0 in range(3):
            for c1 in range(3):
                cert = pc.extend_partial(path, {0: c0, 5: c1})
                assert cert is not None and cert.verify(path)


def test_extend_partial_rainbow_in_arcs_fail():
    g = pc.OrientedGraph(4, ((1, 0), (2, 0), (3, 0)))
    pcol = {1: 0, 2: 1, 3: 2}
    assert pc.extend_partial(g, pcol) is None
    assert extend_partial_bruteforce(g, pcol) is None


def test_extend_partial_triangle():
    tri = pc.OrientedGraph(3, ((0, 1), (1, 2), (2, 0)))
    cert = pc.extend_partial(tri, {0: 0, 1: 1})
    assert cert is not None and cert.mapping[2] == 2 and cert.push_set == frozenset()


@pytest.mark.parametrize("colors,message", [
    ({3: 0}, "vertex 3 outside 0..2"),
    ({-1: 0}, "vertex -1 outside 0..2"),
    ({0: 3}, "color 3 outside 0..2"),
    ({1: -1}, "color -1 outside 0..2"),
    # vertices and colors are ints: 0.5 would pin no vertex and read as
    # nothing colored
    ({0: 1.0}, "color 1.0 outside 0..2"),
    ({0: True}, "color True outside 0..2"),
    ({0.5: 1}, "vertex 0.5 outside 0..2"),
    ({True: 1}, "vertex True outside 0..2"),
])
def test_extend_partial_rejects_a_vertex_or_color_out_of_range(colors, message):
    tri = pc.OrientedGraph(3, ((0, 1), (1, 2), (2, 0)))
    with pytest.raises(IncompatibleInputError, match=message):
        pc.extend_partial(tri, colors)


def test_extend_partial_routes_agree(rng):
    for _ in range(30):
        g = random_oriented_graph(rng, rng.randint(2, 6), p=0.5)
        colored = {
            v: rng.randrange(3)
            for v in range(g.vertex_count)
            if rng.random() < 0.5
        }
        fast = pc.extend_partial(g, colored)
        slow = extend_partial_bruteforce(g, colored)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert fast.verify(g) and fast.push_set.isdisjoint(colored)


def test_search_budget_and_cancellation():
    e1 = pc.fixture("e1")
    with pytest.raises(ResourceBudgetError):
        pc.find_pushable_homomorphism(e1, C3, budget=3)


def test_search_backjumps_over_components():
    # e1 fails into AT(C3) whatever the star before it in the order does;
    # without the backjump each leaf's two values doubled the count
    e1 = pc.fixture("e1")
    alone = {}
    assert pc.find_pushable_homomorphism(e1, C3, stats=alone) is None
    c = e1.vertex_count
    g = pc.OrientedGraph(c + 17, e1.arcs + tuple((c, c + 1 + i) for i in range(16)))
    stats = {}
    assert pc.find_pushable_homomorphism(g, C3, stats=stats) is None
    assert stats["nodes"] <= alone["nodes"] + 17


def test_oriented_path_parities():
    for k in range(1, 6):
        for parity, want in (("even", 0), ("odd", 1)):
            path = oriented_path(k, parity)
            forward = sum(1 for t, h in path.arcs if h == t + 1)
            assert forward % 2 == want
