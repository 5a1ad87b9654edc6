"""Distance-constrained labelings and span search."""

from __future__ import annotations

import itertools
import json
import random

import pytest

import pushcrit as pc
from pushcrit import cli, lpq
from pushcrit.errors import ConfigError, SelfCheckError
from pushcrit.lpq import (
    VARIANT_ORIENTED,
    VARIANT_TWO_DIPATH,
    LpqLabeling,
    two_dipath_pairs,
)


def test_builtin_labeling_2_1():
    lab = pc.at_c3_labeling(2, 1)
    assert sorted(lab.labels) == [0, 1, 3, 4, 6, 7]
    assert lab.span == 7
    assert pc.check_lpq_labeling(pc.fixture("at_c3"), lab).ok


def test_builtin_labeling_1_1():
    lab = pc.at_c3_labeling(1, 1)
    assert sorted(lab.labels) == [0, 1, 2, 3, 4, 5]
    assert lab.span == 5


@pytest.mark.parametrize("p", range(1, 6))
def test_builtin_labeling_all_pairs(p):
    for q in range(1, p + 1):
        lab = pc.at_c3_labeling(p, q)
        assert lab.span == 2 * p + 3 * q
        assert pc.check_lpq_labeling(pc.fixture("at_c3"), lab).ok


def test_pq_order_enforced():
    with pytest.raises(ConfigError):
        pc.at_c3_labeling(1, 2)
    with pytest.raises(ConfigError):
        pc.lpq_span_search(pc.directed_cycle(3), 1, 2)
    # p and q are ints: True would read as q = 1
    at = pc.fixture("at_c3")
    for p, q in ((2.5, 1), (2, True)):
        with pytest.raises(ConfigError):
            pc.lpq_span_search(at, p, q)
    with pytest.raises(ConfigError):
        pc.at_c3_labeling(2.0, 1)


def test_all_zero_labeling_fails_with_pair():
    g = pc.OrientedGraph(2, ((0, 1),))
    lab = LpqLabeling(1, 1, (0, 0), VARIANT_TWO_DIPATH)
    check = pc.check_lpq_labeling(g, lab)
    assert not check.ok
    assert check.violation == ("adjacent", (0, 1))


def test_two_dipath_pairs_small():
    g = pc.OrientedGraph(4, ((0, 1), (1, 2), (3, 1)))
    assert two_dipath_pairs(g) == frozenset({(0, 2), (2, 3)})


def test_dipath_distance_enforced():
    g = pc.OrientedGraph(3, ((0, 1), (1, 2)))
    lab = LpqLabeling(2, 2, (0, 3, 1), VARIANT_TWO_DIPATH)
    check = pc.check_lpq_labeling(g, lab)
    assert not check.ok and check.violation == ("two_dipath", (0, 2))


def test_oriented_variant_rejects_opposite_arcs():
    # two arcs running in opposite directions between the label classes
    g = pc.OrientedGraph(4, ((0, 1), (3, 2)))
    lab = LpqLabeling(1, 1, (0, 5, 0, 5), VARIANT_ORIENTED)
    check = pc.check_lpq_labeling(g, lab)
    assert not check.ok and check.violation[0] == "opposite_arcs"
    as_dipath = LpqLabeling(1, 1, (0, 5, 0, 5), VARIANT_TWO_DIPATH)
    assert pc.check_lpq_labeling(g, as_dipath).ok


def test_unknown_variant_is_a_config_error():
    # the same labeling: the oriented variant finds the opposite arcs, and
    # a misspelled variant must not fall back to the two-dipath check
    g = pc.OrientedGraph(4, ((0, 1), (2, 3)))
    check = pc.check_lpq_labeling(g, LpqLabeling(1, 1, (0, 1, 1, 0), "oriented"))
    assert not check.ok and check.violation[0] == "opposite_arcs"
    with pytest.raises(ConfigError, match="unknown variant 'Oriented'"):
        pc.check_lpq_labeling(g, LpqLabeling(1, 1, (0, 1, 1, 0), "Oriented"))


def test_labels_are_nonnegative_integers():
    # 3.5 and True once passed as labels: the distances read 3.5 and 1
    at = pc.fixture("at_c3")
    builtin = pc.at_c3_labeling(2, 1).labels
    probes = [
        (0, 3.5, 7, 1, 4.5, 8),
        tuple(True if label == 1 else label for label in builtin),
        (-1,) + builtin[1:],
    ]
    for labels in probes:
        with pytest.raises(ConfigError, match="nonnegative integers"):
            pc.check_lpq_labeling(at, LpqLabeling(2, 1, labels, VARIANT_ORIENTED))


def test_span_search_confirms_2_1_bound():
    at = pc.fixture("at_c3")
    oriented = pc.lpq_span_search(at, 2, 1, VARIANT_ORIENTED)
    dipath = pc.lpq_span_search(at, 2, 1, VARIANT_TWO_DIPATH)
    assert oriented is not None and oriented <= 7
    assert dipath is not None and dipath <= oriented


@pytest.mark.parametrize("p,q", [(1, 1), (3, 2), (5, 3)])
def test_span_chain_bounded_by_builtin(p, q):
    at = pc.fixture("at_c3")
    dipath = pc.lpq_span_search(at, p, q, VARIANT_TWO_DIPATH)
    oriented = pc.lpq_span_search(at, p, q, VARIANT_ORIENTED)
    assert dipath <= oriented <= 2 * p + 3 * q


def test_span_search_vertex_limit():
    with pytest.raises(ConfigError):
        pc.lpq_span_search(pc.fixture("e1"), 2, 1)


def test_span_search_trivial_graph():
    g = pc.OrientedGraph(2, ((0, 1),))
    assert pc.lpq_span_search(g, 2, 1, VARIANT_TWO_DIPATH) == 2
    assert pc.lpq_span_search(g, 3, 1, VARIANT_ORIENTED) == 3


def test_span_search_checks_the_labeling_behind_its_answer(monkeypatch, capsys):
    # a search that calls every span feasible with all labels 0 answers 0
    # unless the labeling it found is checked
    monkeypatch.setattr(lpq, "_feasible", lambda g, p, q, variant, span: (0,) * g.vertex_count)
    with pytest.raises(SelfCheckError, match="adjacent"):
        pc.lpq_span_search(pc.fixture("c3"), 2, 1)
    rc = cli.main(["lpq", "--p", "2", "--q", "1", "@c3"])
    assert rc == cli.EXIT_INTERNAL and "internal error" in capsys.readouterr().err
    # a search that finds nothing answers the top of S with v -> v * p,
    # which passes the check
    monkeypatch.setattr(lpq, "_feasible", lambda g, p, q, variant, span: None)
    assert pc.lpq_span_search(pc.fixture("c3"), 2, 1) == 4


def _transitive_tournament(n: int) -> pc.OrientedGraph:
    return pc.OrientedGraph(n, tuple((a, b) for a in range(n) for b in range(a + 1, n)))


@pytest.mark.parametrize("variant", [VARIANT_TWO_DIPATH, VARIANT_ORIENTED])
@pytest.mark.parametrize("graph,p,q,span", [
    # every pair is adjacent, so the labels are distinct and p apart: 5p,
    # above the cap 4p + 6q = 34 where the search used to give up
    (_transitive_tournament(6), 7, 1, 35),
    # 2p + 3q, which the search once took over 100 s to reach label by label
    (pc.fixture("at_c3"), 20, 20, 100),
])
def test_span_search_is_exact_at_large_p(graph, p, q, span, variant):
    assert pc.lpq_span_search(graph, p, q, variant) == span


def test_cli_lpq_span_above_the_old_cap(tmp_path, capsys):
    path = tmp_path / "tt6.og"
    path.write_text(pc.serialize_graph(_transitive_tournament(6)))
    rc = cli.main(["--json", "lpq", "--p", "7", "--q", "1", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert rc == cli.EXIT_OK and payload["span"] == 35


def _random_oriented_graph(rng: random.Random, n: int) -> pc.OrientedGraph:
    density = rng.uniform(0.2, 0.8)
    arcs = [
        (a, b) if rng.random() < 0.5 else (b, a)
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < density
    ]
    return pc.OrientedGraph(n, tuple(sorted(arcs)))


def _least_span_by_sweep(g, p: int, q: int, variant: str) -> int:
    """The least s for which some labeling in 0..s passes the check, found
    by trying every labeling, those with largest label s at step s."""
    n = g.vertex_count
    for s in itertools.count():
        for labels in itertools.product(range(s + 1), repeat=n):
            if max(labels) == s and pc.check_lpq_labeling(
                g, LpqLabeling(p, q, labels, variant)
            ).ok:
                return s


def test_search_agrees_with_a_sweep_of_every_labeling():
    rng = random.Random(20251019)
    # the oriented condition seldom binds at n <= 5, so the sample starts
    # with a graph where it does: 2-dipath span 2 at p = q = 1, oriented 3
    bound = pc.OrientedGraph(5, ((0, 4), (1, 2), (1, 3), (2, 3), (4, 2)))
    graphs = [bound] + [_random_oriented_graph(rng, rng.randint(3, 5)) for _ in range(16)]
    spans = {VARIANT_TWO_DIPATH: [], VARIANT_ORIENTED: []}
    for g in graphs:
        for variant, found in spans.items():
            for p, q in ((1, 1), (2, 1), (2, 2), (3, 1)):
                least = _least_span_by_sweep(g, p, q, variant)
                found.append(least)
                assert lpq._feasible(g, p, q, variant, least - 1) is None
                for span in (least, least + 1):
                    labels = lpq._feasible(g, p, q, variant, span)
                    assert labels is not None and max(labels) <= span
                    labeling = LpqLabeling(p, q, labels, variant)
                    assert pc.check_lpq_labeling(g, labeling).ok
                assert pc.lpq_span_search(g, p, q, variant) == least
    assert spans[VARIANT_TWO_DIPATH][0] == 2 and spans[VARIANT_ORIENTED][0] == 3
