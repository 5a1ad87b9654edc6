"""One entry point per computer-checkable claim, grouped into suites.

Each claim produces a status plus machine-checkable evidence (witness
certificates, counterexamples, inventories), never a bare boolean.  The
evidence content is deterministic; wall-clock timings live only in the
run summary so reports can be compared byte for byte across runs.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from .configs import (
    CONFIG_IDS,
    gadgets_for,
    negative_control_gadget,
    verify_configuration,
)
from .crit import VERDICT_CRITICAL, is_pushably_k_critical
from .density import mad_exact
from .discharge import discharging_audit
from .errors import ConfigError, UnclassifiableGraphError, UnknownSuiteError
from .fixtures import builtin_graphs, fixture
from .graph import OrientedGraph, directed_path, girth, potential
from .lpq import (
    VARIANT_ORIENTED,
    VARIANT_TWO_DIPATH,
    at_c3_labeling,
    check_lpq_labeling,
    lpq_span_search,
)
from .reconstruct import verify_fig6_coloring, verify_split_vertex_reconstructions

SUITE_NAMES = (
    "potentials",
    "configs",
    "exceptions",
    "reconstruction",
    "fig6",
    "lpq",
    "discharge",
)

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


def _claim(name: str, ok: bool, evidence: dict, started: float) -> ClaimResult:
    return ClaimResult(
        claim=name,
        status="pass" if ok else "fail",
        evidence=evidence,
        wall_time_ms=int((time.monotonic() - started) * 1000),
    )


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


def suite_potentials() -> list[ClaimResult]:
    out = []
    for row in verify_potential_table():
        started = time.monotonic()
        out.append(
            _claim(f"potential.{row['graph']}", row["ok"], row, started)
        )
    return out


def suite_exceptions() -> list[ClaimResult]:
    out = []
    gates = {
        # c_minus4's mad/girth pair witnesses that the sparse-graph
        # coloring guarantee needs both its girth and density hypotheses
        "c_minus4": {"n": 4, "m": 4, "girth": 4, "mad": "2"},
        "e1": {"n": 13, "m": 15, "girth": 6, "mad": "30/13"},
        "e2": {"n": 13, "m": 15, "girth": 6, "mad": "30/13"},
        "e3": {"n": 13, "m": 15, "girth": 6, "mad": "30/13"},
        "f": {"n": 12, "m": 14, "potential": -2},
    }
    for name in ("c_minus4", "e1", "e2", "e3", "f"):
        started = time.monotonic()
        g = fixture(name)
        report = is_pushably_k_critical(g, 3)
        witnesses_ok = report.verdict == VERDICT_CRITICAL and all(
            cert.verify(g.delete_arc(arc)) for arc, cert in report.arc_witnesses
        )
        gate = dict(gates[name])
        gate_ok = g.vertex_count == gate["n"] and g.arc_count == gate["m"]
        if "girth" in gate:
            gate_ok = gate_ok and girth(g) == gate["girth"]
            gate_ok = gate_ok and str(mad_exact(g)) == gate["mad"]
        if "potential" in gate:
            gate_ok = gate_ok and potential(g) == gate["potential"]
        evidence = {
            "fixture": name,
            "verdict": report.verdict,
            "arc_witnesses": len(report.arc_witnesses),
            "witnesses_verified": witnesses_ok,
            "gates": gate,
            "gates_ok": gate_ok,
        }
        out.append(_claim(f"critical.{name}", witnesses_ok and gate_ok, evidence, started))
    return out


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


def suite_configs() -> list[ClaimResult]:
    out = []
    for cid in CONFIG_IDS:
        started = time.monotonic()
        checks = [verify_configuration(gadget) for gadget in gadgets_for(cid)]
        ok = all(c.ok for c in checks)
        evidence = {"config": cid, "gadgets": [c.to_json_dict() for c in checks]}
        out.append(_claim(f"config.{cid}", ok, evidence, started))
    started = time.monotonic()
    control = verify_configuration(negative_control_gadget())
    evidence = {"expected": "fail", "observed": control.to_json_dict()}
    out.append(
        _claim(
            "config.negative_control",
            (not control.ok) and control.counterexample is not None,
            evidence,
            started,
        )
    )
    started = time.monotonic()
    notes = {
        name: {
            "machine_checked": False,
            "status": "proof-level, not machine-checked"
            + (f"; reduces to {local}" if local else ""),
        }
        for name, local in PROOF_LEVEL_CONFIGS.items()
    }
    out.append(_claim("config.proof_level_notes", True, {"notes": notes}, started))
    return out


def suite_reconstruction() -> list[ClaimResult]:
    out = []
    for name in ("e1", "e2", "e3"):
        started = time.monotonic()
        inventories = verify_split_vertex_reconstructions((name,))
        ok = all(inv.ok for inv in inventories)
        evidence = {
            "source": name,
            "inventory": [inv.to_json_dict() for inv in inventories],
        }
        out.append(_claim(f"reconstruction.{name}", ok, evidence, started))
    return out


def suite_fig6() -> list[ClaimResult]:
    started = time.monotonic()
    report = verify_fig6_coloring()
    return [_claim("fig6.coloring", report.ok, report.to_json_dict(), started)]


def suite_lpq() -> list[ClaimResult]:
    out = []
    started = time.monotonic()
    rows = []
    all_ok = True
    at = fixture("at_c3")
    for p in range(1, 6):
        for q in range(1, p + 1):
            labeling = at_c3_labeling(p, q)
            check = check_lpq_labeling(at, labeling)
            ok = check.ok and labeling.span == 2 * p + 3 * q
            all_ok = all_ok and ok
            rows.append({"p": p, "q": q, "span": labeling.span, "ok": ok})
    out.append(
        _claim("lpq.builtin_labelings", all_ok, {"rows": rows}, started)
    )
    started = time.monotonic()
    labeling21 = at_c3_labeling(2, 1)
    labels = sorted(set(labeling21.labels))
    span = lpq_span_search(at, 2, 1, VARIANT_ORIENTED)
    dipath_span = lpq_span_search(at, 2, 1, VARIANT_TWO_DIPATH)
    ok = labels == [0, 1, 3, 4, 6, 7] and span is not None and span <= 7
    ok = ok and dipath_span is not None and dipath_span <= span
    evidence = {
        "labels": labels,
        "oriented_span": span,
        "two_dipath_span": dipath_span,
    }
    out.append(_claim("lpq.span_2_1", ok, evidence, started))
    return out


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
        arcs = []
        nxt = k
        for a, b in edges:
            t = rng.randint(0, 3)
            stops = [a] + list(range(nxt, nxt + t)) + [b]
            nxt += t
            for u, v in zip(stops, stops[1:]):
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
        return OrientedGraph(nxt, tuple(arcs))


def _two_vertices_at_zero(g: OrientedGraph, report) -> bool:
    """Whether every 2-vertex ends a discharging audit at charge 0.

    ``discharging_audit`` checks the rest of the charge identity itself
    (the initial total is -2 * potential, and discharging keeps it) and
    raises ``SelfCheckError`` when it fails.
    """
    return all(
        report.final[v] == 0 for v in range(g.vertex_count) if g.degree(v) == 2
    )


def suite_discharge(samples: int = 100, seed: int = 20240917) -> list[ClaimResult]:
    out = []
    started = time.monotonic()
    rows = []
    all_ok = True
    for name in sorted(builtin_graphs()):
        g = fixture(name)
        try:
            report = discharging_audit(g)
        except UnclassifiableGraphError as exc:
            rows.append({"graph": name, "classifiable": False, "reason": str(exc)})
            continue
        two_zero = _two_vertices_at_zero(g, report)
        all_ok = all_ok and two_zero
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
    out.append(_claim("discharge.fixtures", all_ok, {"rows": rows}, started))

    started = time.monotonic()
    rng = random.Random(seed)
    checked = 0
    failures = []
    while checked < samples:
        g = random_classifiable_graph(rng)
        if not _two_vertices_at_zero(g, discharging_audit(g)):
            failures.append({"arcs": [list(a) for a in g.arcs]})
        checked += 1
    evidence = {"samples": checked, "seed": seed, "failures": failures}
    out.append(_claim("discharge.random", not failures, evidence, started))
    return out


_SUITE_RUNNERS = {
    "potentials": suite_potentials,
    "configs": suite_configs,
    "exceptions": suite_exceptions,
    "reconstruction": suite_reconstruction,
    "fig6": suite_fig6,
    "lpq": suite_lpq,
    "discharge": suite_discharge,
}


def _run_one_suite(name: str) -> list[ClaimResult]:
    return _SUITE_RUNNERS[name]()


def run_suites(names=("all",), jobs: int = 1) -> list[ClaimResult]:
    """Run suites, optionally in parallel; claim order stays fixed."""
    wanted = list(SUITE_NAMES) if "all" in names else list(names)
    for name in wanted:
        if name not in _SUITE_RUNNERS:
            raise UnknownSuiteError(f"unknown suite {name!r}; have {SUITE_NAMES}")
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    if jobs > 1 and len(wanted) > 1:
        from multiprocessing import get_context

        with get_context("fork").Pool(min(jobs, len(wanted))) as pool:
            chunks = pool.map(_run_one_suite, wanted)
    else:
        chunks = [_run_one_suite(name) for name in wanted]
    results = []
    for chunk in chunks:
        results.extend(chunk)
    return results


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
