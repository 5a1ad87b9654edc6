"""The pushcrit benchmark: one command for every workload and metric.

Usage (from the repository root):

    python3 perfbench/run.py --workload bound-n8 --seed 1 --seconds 15 --trace 0

Repetitions run one after another, each in a fresh interpreter.  Their
number is fixed by ``--seconds`` (REPETITIONS_AT_15_S, scaled), never by
how fast they go, so a parent and a change measure the same samples; with
``--trace 1`` untraced and traced repetitions alternate, at least one of
each.  The untraced repetitions give the
end-to-end metrics; the traced ones give the per-layer metrics.  The first
repetition runs the independent output checks; every other one must give
the same answers digest.  Times are reported in reference seconds
(hostclock.py): the workload's CPU time rescaled by the host's speed
measured while it runs, so that the drift of a shared host does not show
as a change; the raw wall and CPU times are printed and kept beside
them.  Set-up is raw wall time.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric with its
unit, the failures, and the environment.  Everything, spans included, is
also written under ``.bench_out/`` at the repository root.

Exit status: 0 when every output checked out, 1 when some operation
failed, 2 when the benchmark could not run (no pushcrit sources, a
repetition crashed or timed out); no result line is printed in that case.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# repetitions per 15 s of --seconds; one measures about 8 (bound-n8), 6
# (verify-paper) and 24 (queries) reference seconds (see hostclock.py),
# which on a 2-vCPU Xeon at 2.0 GHz take 1.0-1.8x that in wall time
REPETITIONS_AT_15_S = {"bound-n8": 1, "verify-paper": 2, "queries": 1}
SETUP_SAMPLES = 9
DEADLINE_S = 170.0  # one invocation must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "cpu_ref_s": "s",
    "peak_rss_mib": "MiB",
    "query_p50_ref_ms": "ms",
    "query_tail_ref_ms": "ms",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def cpu_times():
    """(steal, total) jiffies over all CPUs, or None where unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return fields[7], sum(fields[:8])


def steal_share(before, after):
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def spawn(workload: str, seed: int, mode: str, started: float,
          check: bool = False) -> dict:
    """One worker process; returns its JSON result plus timing fields."""
    scratch = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchError("out of time before the repetition started")
    stat0 = cpu_times()
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, workload, str(seed), mode, scratch,
             str(int(check))],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} repetition timed out after {exc.timeout:.0f} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    stat1 = cpu_times()
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{mode} repetition exited {proc.returncode}: {tail}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # set-up stays in raw wall time: it is imports and interpreter start,
    # which the calibration bursts do not track (rescaled, ten spawns in a
    # row spread 0.28 instead of 0.15)
    result["setup_s"] = result.pop("setup_end") - t_spawn
    result["steal_share"] = steal_share(stat0, stat1)
    result["mode"] = mode
    return result


def tail_of(values):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile); with fewer than 11 samples no percentile
    qualifies, and the slowest sample is returned as percentile 100.
    """
    ordered = sorted(values)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def latency_metrics(reps):
    """(p50, tail, tail description) over the operations of all repetitions.

    bound-n8 and verify-paper make one operation (the whole call) per
    repetition, so there p50 is the median repetition.
    """
    pooled = [v for r in reps for v in r["latencies_ms"]]
    value, pct = tail_of(pooled)
    return statistics.median(pooled), value, f"p{pct:.2f} of {len(pooled)} operations"


def environment(reps) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = reps[0]["versions"] if reps else {}
    return {
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "steal_share_per_repetition": [r["steal_share"] for r in reps],
    }


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    # warm-up: byte-code caches and the page cache, as a user's second run has
    spawn(workload, seed, "setup", started)
    modes = ("run", "trace") if trace else ("run",)
    count = max(len(modes), round(REPETITIONS_AT_15_S[workload] * seconds / 15))
    reps = [
        spawn(workload, seed, modes[i % len(modes)], started, check=i == 0)
        for i in range(count)
    ]
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup", started)["setup_s"])

    plain = [r for r in reps if r["mode"] == "run"]
    traced = [r for r in reps if r["mode"] == "trace"]
    failures = [f for r in reps for f in r["failures"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if len({r["answers_sha256"] for r in reps}) != 1:
        failures.append("answers: repetitions of one seed answered differently")
        failed += 1

    p50, tail, tail_note = latency_metrics(plain)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "cpu_ref_s": statistics.median(r["ref_s"] for r in plain),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
        "query_p50_ref_ms": p50,
        "query_tail_ref_ms": tail,
    }
    per_layer = {}
    for name in traced[0]["layers"] if traced else ():
        values = [r["layers"][name] for r in traced]
        per_layer[name] = statistics.median(values)
        if unit_of(name) == "count" and len(set(values)) != 1:
            failures.append(f"trace: count {name} differs between repetitions")
            failed += 1
    if traced:
        per_layer["trace.overhead_frac"] = (
            statistics.median(r["ref_s"] for r in traced) / end_to_end["cpu_ref_s"] - 1.0
        )
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "repetitions": len(plain),
        "traced_repetitions": len(traced),
        "setup_samples": setups,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "query_tail": tail_note,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures,
        "info": plain[0]["info"],
        "environment": environment(reps),
        "raw": {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        },
        "ref_s": [r["ref_s"] for r in plain],
        "walls": [r["wall_s"] for r in plain],
        "host_factors": [r["host_factor"] for r in plain],
        "traced_ref_s": [r["ref_s"] for r in traced],
        "spans": [dict(r["trace"], rep=i) for i, r in enumerate(traced)],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(REPETITIONS_AT_15_S))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pushcrit", "__init__.py")):
        print(f"perfbench: no pushcrit sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)

    print(f"workload {res['workload']}  seed {res['seed']}  "
          f"repetitions {res['repetitions']} untraced, {res['traced_repetitions']} traced")
    for name, value in res["end_to_end"].items():
        print(f"  {name:<18} {value:12.4f} {END_TO_END_UNITS[name]}")
    raw = res["raw"]
    print(f"  raw (not rescaled): wall_s {raw['wall_s']:.4f}  cpu_s {raw['cpu_s']:.4f}"
          f"; host factor per repetition "
          + " ".join(f"{f:.3f}" for f in res["host_factors"]))
    print(f"  {'failed_frac':<16} {res['failed_frac']:12.4f}"
          f"   ({res['failed']} of {res['attempted']} operations)")
    print(f"  query_tail_ref_ms is {res['query_tail']}")
    for name, value in res["per_layer"].items():
        print(f"  {name:<36} {value:14.6g}")
    print(f"  inputs {json.dumps(res['info'])}")
    print(f"  environment {json.dumps(res['environment'])}")
    for failure in res["failures"][:20]:
        print(f"  FAILED {failure}")

    if args.trace:
        metrics = {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in res["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in res["end_to_end"].items()
        }
    correct = res["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(".s") or name.endswith("self_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
