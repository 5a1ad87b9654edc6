"""Self-tests of the benchmark itself.  Run: python3 perfbench/selftest.py

Exits 0 when every check holds.  Takes a few seconds.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pushcrit  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def check_query_inputs_follow_the_seed():
    first = workloads.make_query_inputs(pushcrit, 7)
    again = workloads.make_query_inputs(pushcrit, 7)
    other = workloads.make_query_inputs(pushcrit, 8)
    digest = workloads.inputs_digest
    assert digest(pushcrit, first) == digest(pushcrit, again), "same seed, other inputs"
    assert digest(pushcrit, first) != digest(pushcrit, other), "seed is ignored"
    labels = [label for label, _ in first]
    rounds = workloads.QUERY_INPUTS // 10 // len(workloads.SYMMETRIC)
    assert sorted(labels[9::10]) == sorted([s[0] for s in workloads.SYMMETRIC] * rounds)
    assert {g.vertex_count for _, g in first} == set(range(10, 23))


def check_symmetric_shapes_have_the_listed_groups():
    import random

    from pushcrit.canon import canonical_data, closure

    for label, build, aut in workloads.SYMMETRIC:
        n, arcs = build(random.Random(0))
        g = pushcrit.OrientedGraph(n, arcs)
        _, _, gens = canonical_data(g.adjacency_masks)
        assert len(closure(n, gens)) == aut, label
        assert workloads.MIN_N <= n <= workloads.MAX_N, label


def check_second_call_in_one_process_skips_generation():
    # why every repetition gets a fresh interpreter: the level cache of
    # enumeration hides generation from a second find_critical
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            pushcrit.find_critical(6, jobs=1)
        finally:
            tracer.uninstall()
        counts.append(tracer.calls["canon.canonical_data"])
    assert counts[0] > 0 and counts[1] == 0, counts


def check_uninstall_restores_the_library():
    from pushcrit import canon, enumeration, hom

    before = (pushcrit.canonical_form, enumeration.canonical_data,
              hom.MappingSearcher.__dict__["solve"])
    tracer = tracing.Tracer()
    tracing.install(tracer)
    assert pushcrit.canonical_form is not before[0]
    tracer.uninstall()
    after = (pushcrit.canonical_form, enumeration.canonical_data,
             hom.MappingSearcher.__dict__["solve"])
    assert before == after and canon.canonical_form is before[0]


def check_tail_has_ten_samples_beyond_it():
    assert run.tail_of(list(range(1, 21))) == (10, 50.0)
    assert run.tail_of([3.0, 1.0, 2.0]) == (3.0, 100.0)


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("check_"):
            try:
                fn()
                print(f"ok    {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL  {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
