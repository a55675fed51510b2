"""foamlib benchmark: time to verdict on exact jobs, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a foamlib checkout; foamlib is imported from its
`src/`, nothing is installed.  Each round runs in a fresh interpreter
(worker.py), because a `foamlib` user pays the import and the warm-up of
its caches on every call, and a warm process would turn repeated jobs
into `lru_cache` hits.  Rounds repeat, whole, until their jobs have taken
S seconds, counted in scaled time (the sum of their wall_s), so the
number of rounds does not hang on the host's speed; at least one round
always runs.

--trace 0 prints the end-to-end metrics: wall_s (median round time, the
sum of its job times, set-up and checks excluded), job_p50_ms and
job_p90_ms (over every job of every round), setup_s (median of at least
SETUP_SAMPLES set-ups, topped up by set-up-only interpreters) and
peak_rss_mb (largest resident set of any process of the run).  Every
time is scaled to a fixed host speed by the worker (hostspeed.py); the
unscaled round times go to stderr.

--trace 1 alternates traced and untraced rounds of the same seed and
prints the per-layer metrics (medians over traced rounds) plus
tracing_overhead_s, the traced minus the untraced median wall_s.  The
spans of each traced round are written to perfbench/out/.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  Exit status 0 means the run completed; a wrong answer
makes correct false but still exits 0.  Exit 2: the checkout has no
foamlib to benchmark, or bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0  # every run, and every process it starts, ends within this


class RoundFailed(RuntimeError):
    pass


def run_worker(workload, seed, deadline, trace_out=None, setup_only=False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    if setup_only:
        cmd.append("--setup-only")
    # the seed also fixes string hashing, so set orders repeat per seed
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RoundFailed("no time left for another round")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise RoundFailed(f"{workload} round timed out") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RoundFailed(f"{workload} round exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, deadline):
    rounds = []
    while not rounds or sum(r["wall_s"] for r in rounds) < args.seconds:
        rounds.append(run_worker(args.workload, args.seed, deadline))
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(args.workload, args.seed, deadline,
                                 setup_only=True)["setup_s"])
    job_ms = [1000.0 * s for r in rounds for s in r["job_s"]]
    walls = [r["wall_s"] for r in rounds]
    print(f"# {len(rounds)} round(s), {len(job_ms)} job times, "
          f"{len(setups)} set-ups; unscaled round times "
          + " ".join(f"{r['raw_wall_s']:.3f}" for r in rounds) + " s",
          file=sys.stderr)
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "job_p50_ms": metric(statistics.median(job_ms), "ms"),
        "job_p90_ms": metric(statistics.quantiles(job_ms, n=10)[8], "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    return rounds, metrics


def per_layer(args, deadline):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    traced, plain = [], []
    while not traced or sum(r["wall_s"] for r in traced) < args.seconds:
        path = out_dir / f"trace-{args.workload}-{args.seed}-{len(traced)}.json"
        traced.append(run_worker(args.workload, args.seed, deadline, trace_out=path))
        plain.append(run_worker(args.workload, args.seed, deadline))
    overhead = (statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in plain))
    metrics = {}
    for m in spec:
        name = m["name"]
        if name == "tracing_overhead_s":
            value = overhead
        else:
            value = statistics.median(r["layers"][name] for r in traced)
        metrics[name] = metric(value, m["unit"])
    return traced + plain, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "foamlib" / "__init__.py").is_file():
        print(f"error: no foamlib sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    oracles.self_test()
    try:
        if args.trace:
            rounds, metrics = per_layer(args, deadline)
        else:
            rounds, metrics = end_to_end(args, deadline)
    except RoundFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wrong = sorted({w for r in rounds for w in r["wrong"]})
    for w in wrong:
        print(f"# wrong answer: {w}", file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
