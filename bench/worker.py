"""One workload run in a fresh interpreter, so every nassoc cache starts cold.

    python3 bench/worker.py --workload tables --seed 1 [--size tiny] [--trace]
                            [--setup-only] [--spans FILE]

Prints one JSON line: the monotonic clock when the inputs were ready (the
driver subtracts its own clock at spawn to get set-up time) and the speed
factor measured right after, the wall seconds of the timed part both as
measured and rescaled to the reference speed (see speed.py), its CPU
seconds, peak RSS, the output check, and with --trace the per-layer metrics.
Exits 2 when the nassoc sources are not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="file for the span dump of a traced run")
    args = ap.parse_args(argv)

    if not (SRC / "nassoc" / "__init__.py").is_file():
        print(f"worker: no nassoc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import speed
    import workloads

    inputs = workloads.generate(args.workload, args.seed, args.size)
    import nassoc

    if Path(nassoc.__file__).resolve().parent != (SRC / "nassoc").resolve():
        print(f"worker: imported nassoc from {nassoc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(f"{args.workload}:seed={args.seed}:size={args.size}")
        tracer.install()
        with tracer.span("bench.setup"):
            state = workloads.prepare(inputs)
    else:
        state = workloads.prepare(inputs)
    ready = time.monotonic()
    setup_factor = speed.speed_factor()
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_factor": setup_factor}))
        return 0

    sampler = speed.Sampler()
    sampler.start()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    if tracer is not None:
        with tracer.span("bench.run"):
            outputs = workloads.execute(args.workload, state)
    else:
        outputs = workloads.execute(args.workload, state)
    wall1, cpu1 = time.perf_counter(), time.process_time()
    sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failed, mismatches = workloads.check(inputs, outputs)
    result = {
        "ready": ready,
        "setup_factor": setup_factor,
        "wall_s": sampler.rescaled(wall0, wall1),
        "raw_wall_s": wall1 - wall0,
        "cpu_s": cpu1 - cpu0,
        "slowdown": sampler.slowdown(),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
