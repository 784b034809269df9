#!/usr/bin/env python3
"""normclust benchmark: four closed-loop workloads with independent checks.

    python3 bench/run.py [--workload separate|threshold|kcluster|balltree|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``.  One workload runs in this process: set-up (import, norms, the
first round's inputs, warm-up) is timed three times, then rounds of the same
operations (on inputs translated afresh each round, see workloads.py) run
one after another until ``--seconds`` have passed, at least three rounds per
input block.  After every operation the fixed reference computation of
hostspeed.py is timed too; an operation's time in a round is taken as a
multiple of the reference's median time in that round (unit ``ref``), and
its median over the rounds enters the metrics.  Every output is checked
after its round, outside the timed calls.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics, or with ``--trace 1`` the per-layer metrics of a traced
run).  The exit code is 1 when a check failed or an operation raised, 2 when
the program cannot be imported.  ``--workload all`` runs each workload in
its own process.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# closed loop, single-threaded: keep numerical libraries on one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("separate", "threshold", "kcluster", "balltree")
SETUP_REPEATS = 3
MIN_ROUNDS = 3     # per block
IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import normclust, normclust.cli\n"
    "print(time.perf_counter() - t0)\n"
)


def import_program():
    """Import normclust from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    try:
        import normclust
    except ImportError as exc:
        print(f"cannot import normclust from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(normclust.__file__).resolve().is_relative_to(SRC):
        print(f"normclust was imported from {normclust.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def import_seconds() -> float:
    """Median import time of the package in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                             check=True, capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_workload(args) -> int:
    import_program()
    import numpy as np
    from checks import CheckFailed
    from hostspeed import reference_ns
    from workloads import WORKLOADS

    workdir = HERE / ".out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t_import = import_seconds()
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload = WORKLOADS[args.workload](args.seed, workdir)
            workload.setup()
            setups.append(time.perf_counter() - t0)
        setup_s = t_import + statistics.median(setups)

        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()

        # per block and operation, one time per round of that block, as a
        # multiple of the reference computation's median time in that round
        op_ref = [[[] for _ in range(workload.ops_per_round)] for _ in range(workload.BLOCKS)]
        round_ns, ref_ns = [], []
        attempted = failed = 0
        correct = True
        start = time.perf_counter()
        rounds = 0
        while rounds < MIN_ROUNDS * workload.BLOCKS or time.perf_counter() - start < args.seconds:
            gc.collect()
            ops = workload.round(rounds)
            result, done, times, refs = None, [], [], []
            while True:
                try:
                    op = ops.send(result)
                except StopIteration:
                    break
                attempted += 1
                span = tracer.begin("op", op.label) if tracer else None
                t0 = time.perf_counter_ns()
                try:
                    result = op.call()
                    ok = True
                except Exception:
                    result, ok = None, False
                    failed += 1
                    print(f"operation {op.label} failed:\n{traceback.format_exc()}", file=sys.stderr)
                dt = time.perf_counter_ns() - t0
                if tracer:
                    tracer.end(span)
                refs.append(reference_ns())
                times.append(dt if ok else None)
                if ok:
                    done.append((op, result))
            ref = statistics.median(refs)
            for slot, dt in enumerate(times):
                if dt is not None:
                    op_ref[rounds % workload.BLOCKS][slot].append(dt / ref)
            round_ns.append(sum(dt for dt in times if dt is not None))
            ref_ns.append(ref)
            for op, result in done:
                try:
                    op.check(result)
                except CheckFailed as exc:
                    correct = False
                    print(f"check of {op.label} failed (round {rounds}): {exc}", file=sys.stderr)
            rounds += 1
        elapsed = time.perf_counter() - start
        if attempted != rounds * workload.ops_per_round:
            raise RuntimeError(f"{attempted} operations in {rounds} rounds, "
                               f"expected {workload.ops_per_round} per round")

        # each operation's median over the rounds of its block
        op_med = np.array([statistics.median(rs) for block in op_ref for rs in block if rs])
        wall_ref = float(op_med.sum()) / workload.BLOCKS
        print(f"workload={args.workload} seed={args.seed} trace={args.trace} rounds={rounds} "
              f"ops_per_round={workload.ops_per_round} attempted={attempted} failed={failed} "
              f"correct={str(correct).lower()} measured_s={elapsed:.1f} "
              f"round_s_median={statistics.median(round_ns) / 1e9:.4f} "
              f"ref_ms_median={statistics.median(ref_ns) / 1e6:.4f} wall_ref={wall_ref:.1f}")
        if tracer:
            tracer.uninstall()
            tracer.write(HERE / ".out" / f"trace-{args.workload}-seed{args.seed}.npz")
            metrics = tracer.layer_metrics(rounds)
        else:
            tail_q = 100.0 * (workload.ops_per_round - 10) / workload.ops_per_round
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_ref": (wall_ref, "ref"),
                "op_ref_p50": (float(np.percentile(op_med, 50)), "ref"),
                "op_ref_tail": (float(np.percentile(op_med, tail_q)), "ref"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            print(f"op_ref_tail is the p{tail_q:.2f} of {len(op_med)} operations' median times")
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0 if correct and failed == 0 else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own process; the last line combines their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        worst = max(worst, proc.returncode)
        if proc.returncode == 2 or not lines:
            continue
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    if worst == 2:
        return 2
    print(json.dumps(combined))
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
