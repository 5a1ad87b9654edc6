"""The benchmark's three workloads, their inputs and their output checks.

Each workload function takes the imported ``pushcrit`` package, the seed,
a scratch directory and whether to run the independent output checks; it
runs closed-loop (one call at a time, jobs=1) and returns a dict with
``ref_s`` (first workload call to checked verdict, set-up excluded, in
reference seconds: see hostclock.py), the raw ``wall_s`` and ``cpu_s`` of
that region, the latency of each operation in reference ms, the number of
operations attempted and failed, one message per failure, and a digest of
the answers.  A failure
is an exception, a wrong verdict, a certificate that fails ``verify`` or
a digest mismatch.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from fractions import Fraction

from hostclock import HostClock

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as _fh:
    PINNED = json.load(_fh)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def records_digest(records) -> str:
    """Digest of enumeration records, one sorted-key JSON line each."""
    return sha256_text(
        "".join(json.dumps(r.to_json_dict(), sort_keys=True) + "\n" for r in records)
    )


def tree_digests(out_dir: str) -> dict[str, str]:
    """sha256 of verdicts.json and of every evidence.json, by relative path."""
    paths = ["verdicts.json"]
    evidence_root = os.path.join(out_dir, "evidence")
    for claim in sorted(os.listdir(evidence_root)):
        paths.append(f"evidence/{claim}/evidence.json")
    out = {}
    for rel in paths:
        with open(os.path.join(out_dir, rel), "rb") as fh:
            out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _result(clock, latencies_ms, failures, attempted, answers_sha256, **info):
    return {
        "ref_s": clock.ref_seconds(),
        "wall_s": clock.wall_s,
        "cpu_s": clock.cpu_s,
        "host_factor": clock.host_factor(),
        "answers_sha256": answers_sha256,
        "latencies_ms": latencies_ms,
        "attempted": attempted,
        "failed": len({f.split(":", 1)[0] for f in failures}),
        "failures": failures,
        "info": info,
    }


# -- bound-n8 ------------------------------------------------------------------

BOUND_N = 8


def bound_n8(pc, seed: int, scratch: str, check: bool) -> dict:
    """find_critical(8, jobs=1) then verify_density_bound, against pins."""
    failures = []
    with HostClock() as clock:
        try:
            records = pc.find_critical(BOUND_N, jobs=1)
            report = pc.verify_density_bound(records)
            digest = records_digest(records)
        except Exception as exc:  # a crash is a failed operation, not a crash here
            records, report, digest = [], None, None
            failures.append(f"find_critical: {type(exc).__name__}: {exc}")
    if report is not None:
        if len(records) != 16:
            failures.append(f"find_critical: {len(records)} classes, expected 16")
        if not report.ok:
            failures.append("find_critical: density bound reported violated")
        if report.exceptions_found != ("c_minus4",):
            failures.append(
                f"find_critical: exceptions {report.exceptions_found}, "
                "expected ('c_minus4',)"
            )
        if digest != PINNED["bound-n8"]["records_sha256"]:
            failures.append("find_critical: records digest mismatch")
    return _result(clock, [clock.ref_seconds() * 1000.0], failures, 1, digest,
                   classes=len(records))


# -- verify-paper --------------------------------------------------------------

# C13 (279,936 cases, ~76 s on a 2-vCPU Xeon at 2.0 GHz) and C12 (46,656
# cases, ~12 s) are left out: with them one repetition takes ~95 s, and the
# benchmark's whole time budget (ten-plus runs of every workload) cannot
# hold that.  The other fourteen configurations, C11 being the same
# star-of-centers tree shape, keep the configuration verifier at about
# nine tenths of the workload.
SKIPPED_CONFIGS = ("C12", "C13")


def verify_paper(pc, seed: int, scratch: str, check: bool) -> dict:
    """run_suites(("all",), jobs=1) plus write_report, against pinned digests."""
    from pushcrit import verify

    verify.CONFIG_IDS = tuple(
        c for c in verify.CONFIG_IDS if c not in SKIPPED_CONFIGS
    )
    out_dir = os.path.join(scratch, "verify-out")
    pinned = PINNED["verify-paper"]
    failures = []
    with HostClock() as clock:
        try:
            results = pc.run_suites(("all",), jobs=1)
            pc.write_report(results, out_dir)
            digests = tree_digests(out_dir)
        except Exception as exc:
            results, digests = [], {}
            failures.extend(f"{rel}: {type(exc).__name__}: {exc}" for rel in pinned)
        if digests:
            for rel in sorted(set(pinned) | set(digests)):
                if digests.get(rel) != pinned.get(rel):
                    failures.append(f"{rel}: digest mismatch")
            for r in results:
                if not r.passed:
                    failures.append(f"evidence/{r.claim}/evidence.json: status {r.status}")
            control = [r for r in results if r.claim == "config.negative_control"]
            if not control or control[0].evidence["observed"]["ok"]:
                failures.append(
                    "evidence/config.negative_control/evidence.json: control did not fail"
                )
    shutil.rmtree(out_dir, ignore_errors=True)
    return _result(clock, [clock.ref_seconds() * 1000.0], failures, len(pinned),
                   sha256_text(json.dumps(digests, sort_keys=True)),
                   claims=len(results))


# -- queries -------------------------------------------------------------------

# every tenth input is symmetric, each SYMMETRIC shape four times.  Random
# sparse inputs now and then make one search a hundred times dearer than
# the rest, so the work of one seed's stream differs from another's; at
# 80 inputs by up to 13%, and the sum over 320 averages that down.  With
# four rounds the tail (11th slowest operation) falls among the four
# canonical forms of 2xK3,3, ranked 9..12 behind the eight of 4xC3 and
# 3xC6, not on the edge between them and the band of ~250 ms operations
# below (spider and 3xC5 canonical forms, 20-vertex mad)
QUERY_INPUTS = 320
VERBS = ("color", "chromatic-push", "chromatic-oriented", "mad", "canon",
         "extract-critical")
# greedy extraction makes one exhaustive AT(C3) search per arc; from 17
# vertices on a single input can take seconds (up to ~5 s measured at 20
# vertices), so one unlucky seed would swing wall_s by half; it is asked
# of the inputs up to 16 vertices (six of the eight symmetric ones and about
# half the sparse ones)
EXTRACT_MAX_N = 16
MIN_N, MAX_N = 10, 22
MIN_AVG_DEGREE, MAX_AVG_DEGREE = 2.2, 4.5
BIG_AUT = 1000


def _random_orientation(rng, edges):
    return tuple((a, b) if rng.random() < 0.5 else (b, a) for a, b in edges)


def _directed_cycle(rng, length):
    return length, tuple((i, (i + 1) % length) for i in range(length))


def _spider(rng, legs, length):
    """A star whose rays are paths of ``length`` edges, randomly oriented."""
    edges = []
    nxt = 1
    for _ in range(legs):
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return nxt, _random_orientation(rng, edges)


def _complete_bipartite(rng, a, b):
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return a + b, _random_orientation(rng, edges)


def _hypercube(rng, dim):
    size = 1 << dim
    edges = [(v, v ^ (1 << b)) for v in range(size) for b in range(dim)
             if v < v ^ (1 << b)]
    return size, _random_orientation(rng, edges)


def _copies(rng, count, build, *args):
    """``count`` disjoint copies of one oriented graph, all oriented alike.

    Alike, because the search kernel does not split components: with two
    differently oriented copies of Q3 one pushable chromatic number took
    77 s, backtracking through every coloring of the copy that fits while
    the other needs more colors.
    """
    n, arcs = build(rng, *args)
    return count * n, tuple(
        (c * n + t, c * n + h) for c in range(count) for t, h in arcs
    )


# (label, builder, |Aut| of the underlying graph).  canonical_form closes
# the whole group at ~40 us per element: ~1.2 s for 4xC3, ~0.3 s for the
# four groups of 5e3..1e4, which the 20-vertex subset-DP mad queries match
# in cost.  query_tail_ms, the 11th slowest of the pooled operations, thus
# falls inside a broad band of like operations rather than on the edge
# between two unlike groups.
SYMMETRIC = (
    ("2xC5", lambda rng: _copies(rng, 2, _directed_cycle, 5), 200),
    ("3xC5", lambda rng: _copies(rng, 3, _directed_cycle, 5), 6000),
    ("3xC6", lambda rng: _copies(rng, 3, _directed_cycle, 6), 10368),
    ("4xC3", lambda rng: _copies(rng, 4, _directed_cycle, 3), 31104),
    ("spider7x3", lambda rng: _spider(rng, 7, 3), 5040),
    ("2xQ3", lambda rng: _copies(rng, 2, _hypercube, 3), 4608),
    ("2xK3,3", lambda rng: _copies(rng, 2, _complete_bipartite, 3, 3), 10368),
    ("Q4", lambda rng: _hypercube(rng, 4), 384),
)


def _sparse(rng, n, avg):
    """Hamiltonian cycle on a random vertex order plus random chords."""
    m = min(n * (n - 1) // 2, max(n, round(avg * n / 2)))
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[(i + 1) % n]))) for i in range(n)}
    while len(edges) < m:
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    return n, _random_orientation(rng, sorted(edges))


def make_query_inputs(pc, seed: int):
    """The seeded input stream: [(label, OrientedGraph)].

    Random sparse graphs cycle through n = 10..22, so both paths of
    mad_exact (subset DP up to 20 vertices, max-flow above) run on every
    seed, and their average degrees are spread evenly over 2.2..4.5 with
    seeded jitter, so every seed asks a like mix; each block of ten inputs
    ends with one symmetric graph, and every symmetric shape appears once
    in each round of eight, in seeded order, under a seeded labeling and
    orientation.  No input is filtered.
    """
    sparse_count = QUERY_INPUTS - QUERY_INPUTS // 10
    rng = random.Random(seed)
    shapes = []
    inputs = []
    sparse_index = 0
    for i in range(QUERY_INPUTS):
        if i % 10 == 9:
            if not shapes:
                shapes = list(SYMMETRIC)
                rng.shuffle(shapes)
            label, build, _aut = shapes.pop()
            n, arcs = build(rng)
        else:
            n = MIN_N + sparse_index % (MAX_N - MIN_N + 1)
            avg = MIN_AVG_DEGREE + (MAX_AVG_DEGREE - MIN_AVG_DEGREE) * (
                sparse_index + rng.random()) / sparse_count
            sparse_index += 1
            label = f"sparse{n}"
            n, arcs = _sparse(rng, n, avg)
        perm = list(range(n))
        rng.shuffle(perm)
        g = pc.OrientedGraph(n, tuple((perm[t], perm[h]) for t, h in arcs))
        inputs.append((label, g))
    return inputs


def inputs_digest(pc, inputs) -> str:
    return sha256_text("".join(pc.serialize_graph(g) for _, g in inputs))


def input_shares(inputs) -> dict:
    """Shares of the two input properties optimisations depend on."""
    from pushcrit.canon import canonical_data, closure
    from pushcrit.errors import IncompatibleInputError

    big_aut = 0
    for _, g in inputs:
        _, _, gens = canonical_data(g.adjacency_masks)
        try:
            closure(g.vertex_count, gens, limit=BIG_AUT - 1)
        except IncompatibleInputError:
            big_aut += 1
    flow = sum(1 for _, g in inputs if g.vertex_count > 20)
    return {
        "aut_ge_1000_share": big_aut / len(inputs),
        "n_gt_20_share": flow / len(inputs),
    }


def _ask(pc, verb, g):
    if verb == "color":
        return pc.find_pushable_homomorphism(g, pc.directed_cycle(3))
    if verb == "chromatic-push":
        return pc.pushable_chromatic_number(g, 6)
    if verb == "chromatic-oriented":
        return pc.oriented_chromatic_number(g, 6)
    if verb == "mad":
        return pc.mad_exact(g)
    if verb == "canon":
        return pc.canonical_form(g)
    return pc.extract_critical_subgraph(g, 3)


def brute_force_mad(g) -> Fraction:
    """max over vertex subsets of 2|E(S)|/|S|, by a sweep of all subsets."""
    adj = g.adjacency_masks
    best = Fraction(0)
    for subset in range(1, 1 << g.vertex_count):
        size = subset.bit_count()
        twice_edges = sum(
            (adj[v] & subset).bit_count()
            for v in range(g.vertex_count)
            if subset >> v & 1
        )
        if Fraction(twice_edges, size) > best:
            best = Fraction(twice_edges, size)
    return best


def _check_answers(pc, rng, g, answers) -> list[str]:
    """Failed verbs for one input, as 'verb: reason'."""
    bad = []
    cert = answers.get("color")
    chi_p = answers.get("chromatic-push")
    chi_o = answers.get("chromatic-oriented")
    colorable = chi_p is not None and chi_p <= 3
    if "color" in answers:
        if cert is not None and not cert.verify(g):
            bad.append("color: certificate fails verify")
        if (cert is not None) != colorable and "chromatic-push" in answers:
            bad.append("color: disagrees with the pushable chromatic number")
    if "chromatic-push" in answers and "chromatic-oriented" in answers:
        if chi_p is not None and chi_o is not None and not chi_p <= chi_o <= 2 * chi_p:
            bad.append(f"chromatic-oriented: {chi_o} outside [{chi_p}, {2 * chi_p}]")
        if chi_o is not None and chi_p is None:
            bad.append("chromatic-push: none although an oriented coloring exists")
    if "mad" in answers:
        mad = answers["mad"]
        if mad < Fraction(2 * g.arc_count, g.vertex_count):
            bad.append("mad: below 2m/n")
        if g.vertex_count <= 12 and mad != brute_force_mad(g):
            bad.append("mad: differs from the brute-force sweep")
    if "canon" in answers:
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        pushed = {v for v in range(g.vertex_count) if rng.random() < 0.5}
        twin = pc.push_vertices(g, pushed).relabel(perm)
        if pc.canonical_form(twin) != answers["canon"]:
            bad.append("canon: form changes under relabel and push")
    if "extract-critical" in answers:
        sub = answers["extract-critical"]
        if (sub is None) != (cert is not None) and "color" in answers:
            bad.append("extract-critical: disagrees with color")
        if sub is not None:
            report = pc.is_pushably_k_critical(sub, 3)
            if report.verdict != "critical" or not all(
                w.verify(sub.delete_arc(arc)) for arc, w in report.arc_witnesses
            ):
                bad.append("extract-critical: result is not verified 3-critical")
            if sub.arc_count > g.arc_count:
                bad.append("extract-critical: result larger than its input")
    return bad


def _answer_text(verb, answer) -> str:
    if answer is None:
        return "none"
    if verb == "color":
        return f"{sorted(answer.push_set)}{answer.mapping}"
    if verb == "canon":
        return answer.hex()
    if verb == "extract-critical":
        return f"{answer.vertex_count}{answer.arcs}"
    return str(answer)


def queries(pc, seed: int, scratch: str, check: bool) -> dict:
    """The seeded stream of single-graph questions.

    The independent checks run outside the timed region, only when
    ``check`` is set; the answers digest lets the caller require that
    unchecked repetitions answered exactly as a checked one.
    """
    inputs = make_query_inputs(pc, seed)
    answers = []
    failures = []
    spans = []
    with HostClock() as clock:
        for index, (label, g) in enumerate(inputs):
            got = {}
            for verb in VERBS:
                if verb == "extract-critical" and g.vertex_count > EXTRACT_MAX_N:
                    continue
                q0 = clock.stamp()
                try:
                    got[verb] = _ask(pc, verb, g)
                except Exception as exc:
                    failures.append(
                        f"{index}/{verb}: {label}: {type(exc).__name__}: {exc}")
                spans.append((q0, clock.stamp()))
            answers.append(got)
    latencies = [clock.ref_seconds(a, b) * 1000.0 for a, b in spans]
    check_rng = random.Random(seed ^ 0x5EED)
    for index, ((label, g), got) in enumerate(zip(inputs, answers)):
        if not check:
            break
        try:
            bad = _check_answers(pc, check_rng, g, got)
        except Exception as exc:
            bad = [f"check: {type(exc).__name__}: {exc}"]
        failures.extend(f"{index}/{msg}" for msg in bad)
    answers_sha256 = sha256_text("\n".join(
        f"{verb}={_answer_text(verb, a)}" for got in answers for verb, a in got.items()
    ))
    info = {"inputs_sha256": inputs_digest(pc, inputs), "inputs": len(inputs)}
    info.update(input_shares(inputs))
    return _result(clock, latencies, failures, len(latencies), answers_sha256, **info)


WORKLOADS = {
    "bound-n8": bound_n8,
    "verify-paper": verify_paper,
    "queries": queries,
}
