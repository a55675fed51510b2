"""One round of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace-out FILE]
                                [--setup-only]

Set-up (importing foamlib, building backends, generating inputs) is timed
first; then every job is called and timed on its own, and checked after
its timed region.  Every time is scaled to a fixed host speed, sampled
while the round runs (hostspeed.py).  The last line of stdout is one JSON
object with the round's figures; run.py starts this script and reads
that line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

LAYER_METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace-out", help="trace this round and write spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workdir = HERE / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    speed = HostSpeed()
    speed.start()
    try:
        return run_round(args, workdir, speed)
    finally:
        speed.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def run_round(args, workdir: Path, speed: HostSpeed) -> int:
    end_setup = speed.region()
    sys.path.insert(0, str(ROOT / "src"))
    import foamlib
    from foamlib import cli, mftrace, surfgen, sylfoam, tqft2d, webgal, wreathrep  # noqa: F401

    if not Path(foamlib.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"foamlib imported from {foamlib.__file__}, not from src/")
    tracer = None
    if args.trace_out:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.active = True
    jobs = workloads.build(args.workload, args.seed, workdir)
    setup = end_setup()
    if tracer:
        tracer.active = False
    if args.setup_only:
        print(json.dumps({"setup_s": speed.scaled(*setup)}))
        return 0

    timed, failed, wrong = [], [], []
    for job in jobs:
        if tracer:
            tracer.active = True
        end_job = speed.region()
        try:
            answer = job.call()
        except Exception:
            timed.append(end_job())
            if tracer:
                tracer.active = False
            failed.append(job.name)
            print(f"FAILED {job.name} ({job.known_fault or 'unexpected'}):\n"
                  + traceback.format_exc(limit=2), file=sys.stderr)
            continue
        timed.append(end_job())
        if tracer:
            tracer.active = False
        try:
            ok = job.check(answer)
        except Exception:
            print(f"CHECK RAISED {job.name}:\n{traceback.format_exc(limit=3)}",
                  file=sys.stderr)
            ok = False
        if not ok:
            if job.known_fault:
                failed.append(job.name)
                print(f"FAILED {job.name} ({job.known_fault})", file=sys.stderr)
            else:
                wrong.append(job.name)
                print(f"WRONG {job.name}", file=sys.stderr)

    job_s = [speed.scaled(*t) for t in timed]
    result = {
        "setup_s": speed.scaled(*setup),
        "wall_s": sum(job_s),
        "job_s": job_s,
        "raw_wall_s": sum(seconds for _, _, seconds in timed),
        "attempted": len(jobs),
        "failed": len(failed),
        "wrong": wrong,
    }
    if tracer:
        result["layers"] = tracer.metrics(m["name"] for m in LAYER_METRICS
                                          if m["name"] != "tracing_overhead_s")
        tracer.dump(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
