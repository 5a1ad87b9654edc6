"""perfbench's tracer against the library: the names it patches and reads.

``perfbench/tracing.py`` wraps pushcrit functions by name from outside the
library, and ``perfbench/workloads.py`` reads a few module attributes
directly; renaming any of them breaks the benchmark, not the library, so
this suite checks them.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import pushcrit as pc
from pushcrit import canon, crit, density, hom, verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_trace_uninstall():
    tracing = _load_tracing()
    before = (
        hom.MappingSearcher.__dict__["__init__"],
        hom.MappingSearcher.__dict__["solve"],
        crit.is_pushably_k_colorable,
        pc.pushable_chromatic_number,
    )
    g = pc.fixture("c_minus4")
    # the walk tries every push class of 2- and 3-tournaments, then the
    # 4-tournaments up to the first that c_minus4 maps onto
    expected = len(pc.tournaments(2)) + len(pc.tournaments(3)) + 1 + next(
        i
        for i, t in enumerate(pc.tournaments(4))
        if pc.find_pushable_homomorphism(g, t) is not None
    )
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert pc.pushable_chromatic_number(g) == 4
    finally:
        tracer.uninstall()
    after = (
        hom.MappingSearcher.__dict__["__init__"],
        hom.MappingSearcher.__dict__["solve"],
        crit.is_pushably_k_colorable,
        pc.pushable_chromatic_number,
    )
    assert before == after
    assert tracer.calls["hom.pushable_chromatic_number"] == 1
    # one searcher for the source graph serves every tournament target
    assert tracer.calls["hom.setup"] == 1
    assert tracer.calls["hom.solve"] == expected
    metrics = tracing.layer_metrics(tracer)
    assert metrics["hom.searches"] == expected
    assert metrics["hom.nodes"] > 0


def test_names_the_workloads_read_exist():
    assert verify.CONFIG_IDS
    assert callable(canon.closure) and callable(canon.canonical_data)
    assert isinstance(density.BRUTE_FORCE_LIMIT, int)
    for script in ("workloads.py", "selftest.py", "worker.py"):
        text = (PERFBENCH / script).read_text()
        for name in set(re.findall(r"\b(?:pc|pushcrit)\.(\w+)", text)):
            assert hasattr(pc, name), f"{script} reads pushcrit.{name}"
