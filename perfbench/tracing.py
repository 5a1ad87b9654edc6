"""Per-layer tracing of pushcrit, installed from outside the library.

``install`` replaces module and class attributes of pushcrit with timing
wrappers; no library file changes.  Each wrapped call opens a frame on one
stack.  An ordinary frame is kept as a span (id, parent, name, start, end).
A hot frame -- a leaf called 10^4..10^5+ times per run, such as
``MappingSearcher.solve`` -- is not kept; its calls and seconds are summed
per (parent span, name) instead, so tracing stays cheap.  Every frame adds
its duration minus its children's to the self time of its layer (the first
dotted part of its name).
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "enumeration",
    "canon",
    "chains",
    "hom",
    "configs",
    "orient",
    "crit",
    "density",
    "reconstruct",
    "verify",
)


class Tracer:
    """Spans, per-name call counts and seconds, layer self times, counters."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.hot: dict[tuple[int, str], list] = defaultdict(lambda: [0, 0.0])
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.max_seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.state: dict = {}
        self.origin = perf_counter()
        # frame: [span id (own, or nearest kept ancestor's), name, start,
        #         child seconds, hot]
        self._stack = [[0, "root", self.origin, 0.0, False]]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    def enter(self, name: str, hot: bool) -> list:
        if hot:
            span_id = self._stack[-1][0]
        else:
            span_id = self._next_id
            self._next_id += 1
        frame = [span_id, name, 0.0, 0.0, hot]
        self._stack.append(frame)
        frame[2] = perf_counter()
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter()
        span_id, name, start, child_s, hot = frame
        self._stack.pop()
        parent = self._stack[-1]
        duration = end - start
        parent[3] += duration
        self.calls[name] += 1
        self.seconds[name] += duration
        if duration > self.max_seconds[name]:
            self.max_seconds[name] = duration
        self.self_seconds[name.split(".", 1)[0]] += duration - child_s
        if hot:
            agg = self.hot[(span_id, name)]
            agg[0] += 1
            agg[1] += duration
        else:
            self.spans.append((span_id, parent[0], name, start, end))

    # -- wrapping ----------------------------------------------------------

    def replace(self, owner, attr: str, new) -> None:
        """Set ``owner.attr`` to ``new`` until ``uninstall``."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch(self, original, new, modules=None) -> None:
        """Rebind ``original`` to ``new`` in every pushcrit module that holds it.

        ``modules`` narrows the rebinding to chosen call sites.
        """
        if modules is None:
            modules = [
                m
                for name, m in list(sys.modules.items())
                if name == "pushcrit" or name.startswith("pushcrit.")
            ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.replace(module, attr, new)

    def timed(self, fn, name, hot=False, observe=None):
        """Wrapper timing each call; ``name`` may be a function of the args."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(name(*args) if callable(name) else name, hot)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return wrapper

    def timed_generator(self, fn, name, hot=False, count=None):
        """Wrapper timing each step of a generator and counting its items."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                frame = tracer.enter(name, hot)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.exit(frame)
                if count is not None:
                    tracer.counts[count] += 1
                yield item

        return wrapper

    def counted(self, fn, observe):
        """Untimed wrapper that only observes calls."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(tracer, args, kwargs, result)
            return result

        return wrapper

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def span_records(self) -> dict:
        """Spans and hot-call sums, times in seconds from tracer creation."""
        t0 = self.origin
        return {
            "spans": [
                [sid, parent, name, start - t0, end - t0]
                for sid, parent, name, start, end in self.spans
            ],
            "hot": [
                [parent, name, calls, seconds]
                for (parent, name), (calls, seconds) in self.hot.items()
            ],
        }


# -- what is wrapped, and what each wrapper observes ---------------------------


def _prune_outcome(tracer, args, kwargs, result):
    keep, reason = result
    tracer.counts["enumeration.prune." + ("kept" if keep else reason)] += 1
    # the scan that follows searches this candidate's orientations
    tracer.state["scan_edges"] = len(args[0].edges)


def _scan_search(tracer, args, kwargs, result):
    # whole-orientation searches carry every edge of the candidate;
    # arc-deletion searches carry one fewer
    if args[0].arc_count == tracer.state.get("scan_edges"):
        tracer.counts["enumeration.survivor_searches"] += 1


def _classes_found(tracer, args, kwargs, result):
    tracer.counts["enumeration.classes"] += len(result)


def _solve_outcome(tracer, args, kwargs, result):
    mapping, nodes = result
    tracer.counts["hom.nodes"] += nodes
    if mapping is not None:
        tracer.counts["hom.sat"] += 1


def _configuration_cases(tracer, args, kwargs, result):
    tracer.counts["configs.orientations"] += result.orientations
    tracer.counts["configs.cases"] += result.cases_checked


def _mad_path(tracer, args, kwargs, result):
    from pushcrit import density

    limit = args[1] if len(args) > 1 else kwargs.get(
        "brute_force_limit", density.BRUTE_FORCE_LIMIT
    )
    if args[0].vertex_count > limit:
        tracer.counts["density.mad_flow.calls"] += 1


def _reconstructions(tracer, args, kwargs, result):
    tracer.counts["reconstruct.graphs_checked"] += sum(
        inv.graphs_checked for inv in result
    )


def install(tracer: Tracer) -> None:
    """Wrap the pushcrit functions the per-layer metrics are measured at."""
    from pushcrit import (
        canon,
        chains,
        configs,
        crit,
        density,
        enumeration,
        hom,
        orient,
        reconstruct,
        verify,
    )

    t = tracer
    # generation: canonical_data is counted at the generation call site only;
    # canon's own calls (inside canonical_form, underlying_cert) are not
    t.patch(
        canon.canonical_data,
        t.timed(canon.canonical_data, "canon.canonical_data", hot=True),
        modules=[enumeration],
    )
    t.patch(
        enumeration.enumerate_underlying,
        t.timed_generator(
            enumeration.enumerate_underlying,
            "enumeration.gen",
            count="enumeration.gen.candidates",
        ),
    )
    t.patch(
        enumeration.find_critical,
        t.timed(enumeration.find_critical, "enumeration.find_critical",
                observe=_classes_found),
    )
    t.patch(
        enumeration.verify_density_bound,
        t.timed(enumeration.verify_density_bound, "enumeration.verify_density_bound"),
    )
    t.patch(
        enumeration.underlying_prune_verdict,
        t.timed(enumeration.underlying_prune_verdict, "enumeration.prune",
                observe=_prune_outcome),
    )
    t.patch(
        hom.solve_mapping,
        t.counted(hom.solve_mapping, _scan_search),
        modules=[enumeration],
    )
    t.patch(chains.classify_vertices,
            t.timed(chains.classify_vertices, "chains.classify_vertices"))
    for fn in (canon.canonical_form, canon.oriented_canonical_form,
               canon.underlying_cert):
        t.patch(fn, t.timed(fn, "canon." + fn.__name__))

    # the search kernel: construction is set-up, solve is search
    t.replace(
        hom.MappingSearcher, "__init__",
        t.timed(hom.MappingSearcher.__init__, "hom.setup", hot=True),
    )
    t.replace(
        hom.MappingSearcher, "solve",
        t.timed(hom.MappingSearcher.solve, "hom.solve", hot=True,
                observe=_solve_outcome),
    )
    for fn in (hom.find_homomorphism, hom.find_pushable_homomorphism,
               hom.extend_partial):
        t.patch(fn, t.timed(fn, "hom." + fn.__name__, hot=True))
    for fn in (hom.pushable_chromatic_number, hom.oriented_chromatic_number):
        t.patch(fn, t.timed(fn, "hom." + fn.__name__))

    t.patch(
        configs.verify_configuration,
        t.timed(configs.verify_configuration, "configs.verify_configuration",
                observe=_configuration_cases),
    )
    t.patch(
        orient.push_class_representatives,
        t.timed_generator(orient.push_class_representatives, "orient.classes",
                          hot=True, count="orient.classes"),
    )
    t.patch(crit.is_pushably_k_colorable,
            t.timed(crit.is_pushably_k_colorable, "crit.colorable"))
    t.patch(crit.is_pushably_k_critical,
            t.timed(crit.is_pushably_k_critical, "crit.critical"))
    t.patch(crit.extract_critical_subgraph,
            t.timed(crit.extract_critical_subgraph, "crit.extract"))
    t.patch(density.mad_exact,
            t.timed(density.mad_exact, "density.mad", observe=_mad_path))
    t.patch(
        reconstruct.verify_split_vertex_reconstructions,
        t.timed(reconstruct.verify_split_vertex_reconstructions,
                "reconstruct.split_vertex", observe=_reconstructions),
    )
    t.patch(reconstruct.verify_fig6_coloring,
            t.timed(reconstruct.verify_fig6_coloring, "reconstruct.fig6"))

    t.patch(verify.run_suites, t.timed(verify.run_suites, "verify.run_suites"))
    t.patch(verify.write_report,
            t.timed(verify.write_report, "verify.write_report"))
    # run_suites dispatches through a private dict of suite functions, so
    # the per-suite span sits on the one private function that takes the
    # suite name
    t.patch(
        verify._run_one_suite,
        t.timed(verify._run_one_suite, lambda suite: "verify." + suite),
    )


def layer_metrics(t: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced repetition, by name."""
    calls, secs, counts = t.calls, t.seconds, t.counts
    searches = calls["hom.solve"]
    search_s = secs["hom.solve"]
    configs_s = secs["configs.verify_configuration"]
    out = {
        "canon.canonical_data.calls": calls["canon.canonical_data"],
        "canon.canonical_data.s": secs["canon.canonical_data"],
        "enumeration.gen.s": secs["enumeration.gen"],
        "enumeration.gen.candidates": counts["enumeration.gen.candidates"],
        "enumeration.scan.s": max(
            0.0, secs["enumeration.find_critical"] - secs["enumeration.gen"]
        ),
        "enumeration.prune.s": secs["enumeration.prune"],
    }
    for outcome in ("kept", "cut_vertex", "long_chain", "k4_subgraph",
                    "stays_4_chromatic"):
        out["enumeration.prune." + outcome] = counts["enumeration.prune." + outcome]
    out.update({
        "chains.classify_vertices.calls": calls["chains.classify_vertices"],
        "chains.classify_vertices.s": secs["chains.classify_vertices"],
        "canon.underlying_cert.calls": calls["canon.underlying_cert"],
        "canon.underlying_cert.s": secs["canon.underlying_cert"],
        "enumeration.survivor_searches": counts["enumeration.survivor_searches"],
        "enumeration.classes": counts["enumeration.classes"],
        "hom.searches": searches,
        "hom.setup.s": secs["hom.setup"],
        "hom.search.s": search_s,
        "hom.nodes": counts["hom.nodes"],
        "hom.nodes_per_s": counts["hom.nodes"] / search_s if search_s else 0.0,
        "hom.sat_frac": counts["hom.sat"] / searches if searches else 0.0,
        "configs.gadgets": calls["configs.verify_configuration"],
        "configs.orientations": counts["configs.orientations"],
        "configs.cases": counts["configs.cases"],
        "configs.s": configs_s,
        "configs.cases_per_s": counts["configs.cases"] / configs_s if configs_s else 0.0,
        "configs.slowest_gadget.s": t.max_seconds["configs.verify_configuration"],
        "orient.classes": counts["orient.classes"],
    })
    from pushcrit.verify import SUITE_NAMES

    for suite in SUITE_NAMES:
        out[f"verify.{suite}.s"] = secs["verify." + suite]
    out.update({
        "verify.write_report.s": secs["verify.write_report"],
        "canon.canonical_form.calls": calls["canon.canonical_form"],
        "canon.canonical_form.s": secs["canon.canonical_form"],
        "density.mad.calls": calls["density.mad"],
        "density.mad.s": secs["density.mad"],
        "density.mad_flow.calls": counts["density.mad_flow.calls"],
        "crit.colorable.calls": calls["crit.colorable"],
        "crit.colorable.s": secs["crit.colorable"],
        "crit.extract.s": secs["crit.extract"],
        "reconstruct.graphs_checked": counts["reconstruct.graphs_checked"],
    })
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = t.self_seconds[layer]
    return out

