"""One repetition of one workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED MODE SCRATCH CHECK
MODE is ``setup`` (import and builtin_graphs only), ``run`` or ``trace``;
CHECK is 1 to run the workload's independent output checks.
Prints one JSON object as its last line of standard output.

A fresh interpreter per repetition matters: module caches
(enumeration._LEVEL_CACHE and the lru_caches on target_index, tournaments
and builtin_graphs) would otherwise let a second repetition skip
generation and set-up.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# set-up: interpreter start (the parent notes the spawn time) to pushcrit
# imported and its fixtures built
sys.path.insert(0, SRC)
import pushcrit  # noqa: E402

pushcrit.builtin_graphs()
SETUP_END = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402


def main(argv) -> int:
    workload, seed, mode, scratch = argv[1], int(argv[2]), argv[3], argv[4]
    check = argv[5] == "1"
    if os.path.dirname(os.path.abspath(pushcrit.__file__)) != os.path.join(SRC, "pushcrit"):
        print(f"pushcrit imported from {pushcrit.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    out = {"setup_end": SETUP_END}
    if mode != "setup":
        sys.path.insert(0, HERE)
        import numpy
        import scipy
        import tracing
        import workloads

        tracer = None
        if mode == "trace":
            tracer = tracing.Tracer()
            tracing.install(tracer)
        os.makedirs(scratch, exist_ok=True)
        result = workloads.WORKLOADS[workload](pushcrit, seed, scratch, check)
        result["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracing.layer_metrics(tracer)
            result["trace"] = tracer.span_records()
        out.update(result)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
