"""Benchmark driver for nassoc: timed workload runs in fresh worker processes.

    python3 bench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1       # every workload in turn

The driver is one process with no threads.  It starts one worker at a time
(bench/worker.py, a fresh interpreter, so the process-global nassoc caches
are cold as they are for a command-line user) and waits for it to end.

--trace 0 repeats the workload while a further repetition still fits in
--seconds (at least once), adds set-up-only workers, and reports the medians
of wall_s, setup_s and peak_rss_mb.  The two times are rescaled to a
reference machine speed measured by a probe in the worker (speed.py); the
times as measured are printed and recorded next to them.  --trace 1 runs one
untraced and one traced worker and reports the per-layer metrics of the
traced one, its span file under .bench_out/, and the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  The exit code
is 1 when any output check fails and 2 when the nassoc sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS, PROCESS_METRICS  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_ONLY_PER_REP = 3
# one run, every worker included, ends well inside the 180 s a run may take
RUN_BUDGET_S = 170


class WorkerFailed(RuntimeError):
    pass


def _worker(workload, seed, size, deadline, *, trace=False, setup_only=False, spans=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--size", size]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ)
    env.pop("NASSOC_DEGREE_CAP", None)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - spawned)
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker for {workload} ran past the run budget of {RUN_BUDGET_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker for {workload} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["raw_setup_s"] = result["ready"] - spawned
    result["setup_s"] = result["raw_setup_s"] * result["setup_factor"]
    result["elapsed_s"] = time.monotonic() - spawned
    return result


def _timed_run(workload, seed, seconds, size, deadline):
    """Repeat while one more repetition fits in `seconds`; the machine's speed
    drifts over tens of seconds, so set-up-only workers are spread between
    the repetitions instead of being run back to back."""
    reps, setup_workers = [], []
    start = time.monotonic()
    while True:
        for _ in range(SETUP_ONLY_PER_REP):
            setup_workers.append(_worker(workload, seed, size, deadline, setup_only=True))
        reps.append(_worker(workload, seed, size, deadline))
        typical = statistics.median(r["elapsed_s"] for r in reps)
        if time.monotonic() - start + typical > seconds:
            break
    for _ in range(SETUP_ONLY_PER_REP):
        setup_workers.append(_worker(workload, seed, size, deadline, setup_only=True))
    setups = setup_workers + reps
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(w["setup_s"] for w in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    samples = {
        "wall_s": [r["wall_s"] for r in reps],
        "raw_wall_s": [r["raw_wall_s"] for r in reps],
        "slowdown": [r["slowdown"] for r in reps],
        "setup_s": [w["setup_s"] for w in setups],
        "raw_setup_s": [w["raw_setup_s"] for w in setups],
    }
    return reps, metrics, {"samples": samples}


def _traced_run(workload, seed, size, deadline):
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}-{size}.json"
    plain = _worker(workload, seed, size, deadline)
    traced = _worker(workload, seed, size, deadline, trace=True, spans=spans)
    values = dict(traced["layers"])
    values.update(
        {
            "proc.cpu_s": plain["cpu_s"],
            "proc.wait_s": plain["raw_wall_s"] - plain["cpu_s"],
            "proc.slowdown": plain["slowdown"],
            "trace.untraced_wall_s": plain["wall_s"],
            "trace.traced_wall_s": traced["wall_s"],
            "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        }
    )
    units = {**LAYER_METRICS, **PROCESS_METRICS}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return [plain, traced], metrics, {"spans": str(spans.relative_to(ROOT))}


def metadata() -> dict:
    """Facts recorded with every result; none of them is a metric."""
    sha = "unknown"
    git = ROOT / ".git"
    if git.is_dir():
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.is_file():
                sha = ref_file.read_text().strip()
            elif (git / "packed-refs").is_file():
                for line in (git / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref):
                        sha = line.split()[0]
        else:
            sha = head
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "nassoc").rglob("*.py")))
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_lines": src_lines,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
    }


def run_workload(workload, seed, seconds, trace, size):
    deadline = time.monotonic() + RUN_BUDGET_S
    if trace:
        workers, metrics, extra = _traced_run(workload, seed, size, deadline)
    else:
        workers, metrics, extra = _timed_run(workload, seed, seconds, size, deadline)
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": int(trace),
        "meta": metadata(),
        "result": result,
        "fail_ratio": failed / attempted,
        "mismatches": [m for w in workers for m in w["mismatches"]],
        **extra,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-seed{seed}-{size}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return record


def _report(record):
    result = record["result"]
    print(f"workload {record['workload']}  seed {record['seed']}  size {record['size']}  trace {record['trace']}")
    print("meta " + json.dumps(record["meta"]))
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':<40} {record['fail_ratio']:.6g} ({result['failed']} of {result['attempted']} operations failed)")
    samples = record.get("samples")
    if samples:
        raw = {k: statistics.median(v) for k, v in samples.items() if k.startswith("raw_") or k == "slowdown"}
        print("  as measured, before rescaling: " + "  ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    for m in record["mismatches"]:
        print(f"mismatch {json.dumps(m)}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0, help="measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full", help="tiny runs a small slice, for tests")
    args = ap.parse_args(argv)

    if not (SRC / "nassoc" / "__init__.py").is_file():
        print(f"run.py: the nassoc sources are not at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
            _report(record)
            records.append(record)
    except WorkerFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        final = records[0]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {
                f"{r['workload']}.{name}": m for r in records for name, m in r["result"]["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
