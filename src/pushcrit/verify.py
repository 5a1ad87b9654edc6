"""One entry point per computer-checkable claim, grouped into suites.

Each claim produces a status plus machine-checkable evidence (witness
certificates, counterexamples, inventories), never a bare boolean.  The
evidence content is deterministic; wall-clock timings live only in the
run summary so reports can be compared byte for byte across runs.

A claim is one row of ``_SUITES``: its name and a ``check()`` returning
``(ok, evidence)``.  ``_run_one_suite`` is the one place that times a
check and wraps it in a ``ClaimResult``.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from functools import partial

from .chains import Kernel
from .configs import (
    CONFIG_IDS,
    gadgets_for,
    negative_control_gadget,
    verify_configuration,
)
from .crit import VERDICT_CRITICAL, is_pushably_k_critical
from .discharge import discharging_audit
from .errors import ConfigError, UnclassifiableGraphError, UnknownSuiteError
from .fixtures import EXCEPTION_NAMES, FACTS, builtin_graphs, fixture
from .graph import OrientedGraph, directed_path, potential
from .lpq import (
    VARIANT_ORIENTED,
    VARIANT_TWO_DIPATH,
    at_c3_labeling,
    check_lpq_labeling,
    lpq_span_search,
)
from .reconstruct import verify_fig6_coloring, verify_split_vertex_reconstructions

POTENTIAL_TABLE = (
    ("k1", 15),
    ("k2", 17),
    ("k3", 6),
    ("k3_minus_e", 19),
    ("c_minus4", 8),
    ("e1", 0),
    ("e2", 0),
    ("e3", 0),
)


@dataclass(frozen=True)
class ClaimResult:
    claim: str
    status: str
    evidence: dict
    wall_time_ms: int = field(default=0, compare=False)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _potential_subject(name: str) -> OrientedGraph:
    if name == "k1":
        return OrientedGraph(1, ())
    if name == "k2":
        return OrientedGraph(2, ((0, 1),))
    if name == "k3":
        return fixture("c3")
    if name == "k3_minus_e":
        return directed_path(3)
    return fixture(name)


def verify_potential_table():
    """Check every tabulated potential value; returns per-entry results."""
    rows = []
    for name, expected in POTENTIAL_TABLE:
        actual = potential(_potential_subject(name))
        rows.append({"graph": name, "expected": expected, "actual": actual,
                     "ok": actual == expected})
    return rows


def _critical(name: str):
    g = fixture(name)
    report = is_pushably_k_critical(g, 3)
    witnesses_ok = report.verdict == VERDICT_CRITICAL and all(
        cert.verify(g.delete_arc(arc)) for arc, cert in report.arc_witnesses
    )
    # ``fixture`` hands out only graphs that passed their load gate, the
    # comparison with ``FACTS[name]``, so the claim reports that gate
    evidence = {
        "fixture": name,
        "verdict": report.verdict,
        "arc_witnesses": len(report.arc_witnesses),
        "witnesses_verified": witnesses_ok,
        "gates": dict(FACTS[name]),
        "gates_ok": True,
    }
    return witnesses_ok, evidence


# configurations whose published reductions are global arguments, not
# local extendability; they are reported, never machine-checked, except
# where the argument bottoms out in one of the local configurations
PROOF_LEVEL_CONFIGS = {
    "P1": None,
    "P2": "C16",
    "P3": None,
    "P4": "C15",
    "P5": "C16",
    "P6": "C16",
    "P7": None,
    "P8": "C15",
    "P9": None,
    "P10": None,
}


def _config(cid: str):
    checks = [verify_configuration(gadget) for gadget in gadgets_for(cid)]
    evidence = {"config": cid, "gadgets": [c.to_json_dict() for c in checks]}
    return all(c.ok for c in checks), evidence


def _negative_control():
    control = verify_configuration(negative_control_gadget())
    evidence = {"expected": "fail", "observed": control.to_json_dict()}
    return (not control.ok) and control.counterexample is not None, evidence


def _proof_level_notes():
    notes = {
        name: {
            "machine_checked": False,
            "status": "proof-level, not machine-checked"
            + (f"; reduces to {local}" if local else ""),
        }
        for name, local in PROOF_LEVEL_CONFIGS.items()
    }
    return True, {"notes": notes}


def _reconstruction(name: str):
    inventories = verify_split_vertex_reconstructions((name,))
    evidence = {
        "source": name,
        "inventory": [inv.to_json_dict() for inv in inventories],
    }
    return all(inv.ok for inv in inventories), evidence


def _fig6():
    report = verify_fig6_coloring()
    return report.ok, report.to_json_dict()


def _lpq_labelings():
    rows = []
    at = fixture("at_c3")
    for p in range(1, 6):
        for q in range(1, p + 1):
            labeling = at_c3_labeling(p, q)
            check = check_lpq_labeling(at, labeling)
            ok = check.ok and labeling.span == 2 * p + 3 * q
            rows.append({"p": p, "q": q, "span": labeling.span, "ok": ok})
    return all(row["ok"] for row in rows), {"rows": rows}


def _lpq_span_2_1():
    at = fixture("at_c3")
    labels = sorted(set(at_c3_labeling(2, 1).labels))
    span = lpq_span_search(at, 2, 1, VARIANT_ORIENTED)
    dipath_span = lpq_span_search(at, 2, 1, VARIANT_TWO_DIPATH)
    ok = labels == [0, 1, 3, 4, 6, 7] and dipath_span <= span <= 7
    evidence = {
        "labels": labels,
        "oriented_span": span,
        "two_dipath_span": dipath_span,
    }
    return ok, evidence


def random_classifiable_graph(rng: random.Random) -> OrientedGraph:
    """A random oriented graph whose chain decomposition exists.

    Built by subdividing the edges of a random simple graph with minimum
    degree 3, so every 2-vertex sits inside an open chain by construction.
    """
    while True:
        k = rng.randint(4, 7)
        edges = [
            (a, b)
            for a in range(k)
            for b in range(a + 1, k)
            if rng.random() < 0.75
        ]
        degs = [0] * k
        for a, b in edges:
            degs[a] += 1
            degs[b] += 1
        if not edges or min(degs) < 3:
            continue
        # per edge, its length and then each of its arcs' directions
        lengths, forward = [], []
        for _ in edges:
            lengths.append(rng.randint(1, 4))
            forward += [rng.random() < 0.5 for _ in range(lengths[-1])]
        kernel = Kernel.subdivided(k, edges, lengths)
        steps = [step for path in kernel.paths for step in zip(path, path[1:])]
        arcs = tuple((u, v) if f else (v, u) for (u, v), f in zip(steps, forward))
        return OrientedGraph(kernel.n, arcs)


def _two_vertices_at_zero(g: OrientedGraph, report) -> bool:
    """Whether every 2-vertex ends a discharging audit at charge 0.

    ``discharging_audit`` checks the rest of the charge identity itself
    (the initial total is -2 * potential, and discharging keeps it) and
    raises ``SelfCheckError`` when it fails.
    """
    return all(
        report.final[v] == 0 for v in range(g.vertex_count) if g.degree(v) == 2
    )


def _discharge_fixtures():
    rows = []
    for name in sorted(builtin_graphs()):
        g = fixture(name)
        try:
            report = discharging_audit(g)
        except UnclassifiableGraphError as exc:
            rows.append({"graph": name, "classifiable": False, "reason": str(exc)})
            continue
        two_zero = _two_vertices_at_zero(g, report)
        rows.append(
            {
                "graph": name,
                "classifiable": True,
                "total_initial": report.total_initial,
                "total_final": report.total_final,
                "minus_twice_potential": -2 * potential(g),
                "two_vertices_at_zero": two_zero,
                "ok": two_zero,
            }
        )
    # an unclassifiable fixture is listed with its reason, not failed
    return all(row.get("ok", True) for row in rows), {"rows": rows}


DISCHARGE_SAMPLES = 100
DISCHARGE_SEED = 20240917


def _discharge_random():
    rng = random.Random(DISCHARGE_SEED)
    failures = []
    for _ in range(DISCHARGE_SAMPLES):
        g = random_classifiable_graph(rng)
        if not _two_vertices_at_zero(g, discharging_audit(g)):
            failures.append({"arcs": [list(a) for a in g.arcs]})
    return not failures, {
        "samples": DISCHARGE_SAMPLES, "seed": DISCHARGE_SEED, "failures": failures
    }


def _each(prefix: str, keys, check):
    """One row per key: the claim ``prefix.key``, checked by ``check(key)``."""
    return [(f"{prefix}.{key}", partial(check, key)) for key in keys]


# every suite's (claim, check) rows in claim order; each suite lists its
# rows when it runs, so the config claims follow CONFIG_IDS at that time
_SUITES = {
    "potentials": lambda: [
        (f"potential.{row['graph']}", lambda row=row: (row["ok"], row))
        for row in verify_potential_table()
    ],
    "configs": lambda: _each("config", CONFIG_IDS, _config) + [
        ("config.negative_control", _negative_control),
        ("config.proof_level_notes", _proof_level_notes),
    ],
    "exceptions": lambda: _each("critical", EXCEPTION_NAMES + ("f",), _critical),
    "reconstruction": lambda: _each(
        "reconstruction", ("e1", "e2", "e3"), _reconstruction
    ),
    "fig6": lambda: [("fig6.coloring", _fig6)],
    "lpq": lambda: [
        ("lpq.builtin_labelings", _lpq_labelings),
        ("lpq.span_2_1", _lpq_span_2_1),
    ],
    "discharge": lambda: [
        ("discharge.fixtures", _discharge_fixtures),
        ("discharge.random", _discharge_random),
    ],
}
SUITE_NAMES = tuple(_SUITES)


def _run_one_suite(name: str) -> list[ClaimResult]:
    results = []
    for claim, check in _SUITES[name]():
        started = time.monotonic()
        ok, evidence = check()
        elapsed_ms = int((time.monotonic() - started) * 1000)
        status = "pass" if ok else "fail"
        results.append(ClaimResult(claim, status, evidence, elapsed_ms))
    return results


def run_suites(names=("all",), jobs: int = 1) -> list[ClaimResult]:
    """Run suites, optionally in parallel; claim order stays fixed.

    A suite named more than once runs once, at its first place.  An empty
    list of names is a ``ConfigError``: a report that checks nothing must
    not read ok.
    """
    wanted = list(SUITE_NAMES) if "all" in names else list(dict.fromkeys(names))
    if not wanted:
        raise ConfigError(f"no suite named; name one of {SUITE_NAMES} or 'all'")
    for name in wanted:
        if name not in _SUITES:
            raise UnknownSuiteError(f"unknown suite {name!r}; have {SUITE_NAMES}")
    if type(jobs) is not int or jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    if jobs > 1 and len(wanted) > 1:
        from multiprocessing import get_context

        with get_context("fork").Pool(min(jobs, len(wanted))) as pool:
            chunks = pool.map(_run_one_suite, wanted)
    else:
        chunks = [_run_one_suite(name) for name in wanted]
    return [result for chunk in chunks for result in chunk]


def write_report(results, out_dir: str) -> dict:
    """Write evidence files plus the run report; returns the report dict.

    evidence/<claim>/evidence.json holds the deterministic material; the
    report carries the per-claim timing alongside status and paths.
    """
    evidence_root = os.path.join(out_dir, "evidence")
    claims = []
    for result in results:
        claim_dir = os.path.join(evidence_root, result.claim)
        os.makedirs(claim_dir, exist_ok=True)
        evidence_path = os.path.join(claim_dir, "evidence.json")
        with open(evidence_path, "w", encoding="utf-8") as fh:
            json.dump(result.evidence, fh, sort_keys=True, indent=1)
            fh.write("\n")
        claims.append(
            {
                "claim": result.claim,
                "status": result.status,
                "evidence_path": os.path.relpath(evidence_path, out_dir),
                "wall_time_ms": result.wall_time_ms,
            }
        )
    report = {"claims": claims, "ok": all(r.passed for r in results)}
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
        fh.write("\n")
    verdicts = {
        "claims": [
            {k: c[k] for k in ("claim", "status", "evidence_path")} for c in claims
        ],
        "ok": report["ok"],
    }
    with open(os.path.join(out_dir, "verdicts.json"), "w", encoding="utf-8") as fh:
        json.dump(verdicts, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return report
