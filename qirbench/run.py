"""Checked benchmark of qir: campaign, sweep and minimize workloads.

Usage, from the root of the repository:

    python3 qirbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0
    python3 qirbench/run.py --workload sweep --seed 1 --seconds 30 --trace 1

The run builds its inputs from ``--seed``, repeats whole rounds of one
workload (``workloads.py``) for ``--seconds`` in this process with one
worker, checks every round's outputs against numpy references
(``checks.py``) after the timed phase, and prints as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones: ``ops_per_s``
(operations attempted per second spent in qir, scaled to nominal machine
speed by ``calibration.py``), ``setup_s`` and ``peak_rss_mb``. With
``--trace 1`` the rounds run first untraced and then traced
(``tracer.py``) for half the time each, and the metrics are the per-layer
ones. qir is imported from ``src/`` of the checkout and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import calibration
import checks
from tracer import Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".qirbench_out")
SETUP_SAMPLES = 5
PROBE_SHARE = 0.05


def import_qir():
    """qir from ``src/`` of this checkout; an installed copy would measure other code."""
    if not os.path.isfile(os.path.join(SRC, "qir", "__init__.py")):
        raise SystemExit(f"qirbench: no qir sources at {os.path.relpath(SRC, os.getcwd())}/qir")
    sys.path.insert(0, SRC)
    import qir

    if not os.path.abspath(qir.__file__).startswith(os.path.join(SRC, "qir") + os.sep):
        raise SystemExit(f"qirbench: imported qir from {qir.__file__}, not from {SRC}")
    return qir


def git_sha() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(qir) -> str:
    import numpy
    import scipy

    return (f"backend={qir.backend.backend_name()} git={git_sha()} nproc={os.cpu_count()} "
            f"python={platform.python_version()} numpy={numpy.__version__} scipy={scipy.__version__}")


def run_rounds(workload, seconds: float):
    """Whole rounds until ``seconds`` have passed, with speed probes after each unit.

    The probes after a unit take at least PROBE_SHARE of its time, so that
    their mean weighs the machine's speed over the run as the units do.

    Returns (rounds, attempted, failed, nominal seconds, seconds): the time
    spent in the units, scaled by NOMINAL_S over the probe's mean time, and
    as measured.
    """
    unit_s, probes = 0.0, []
    rounds = failed = 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        for k in range(workload.units):
            t0 = time.perf_counter()
            failed += workload.run_unit(k)
            unit = time.perf_counter() - t0
            unit_s += unit
            probed = 0.0
            while not probed or probed < PROBE_SHARE * unit:
                probes.append(calibration.probe())
                probed += probes[-1]
        rounds += 1
    speed = calibration.NOMINAL_S / statistics.fmean(probes)
    return rounds, rounds * workload.ops_per_round, failed, unit_s * speed, unit_s


def setup_seconds(args, workload) -> list[float]:
    """Process start to first timed operation, measured on fresh processes.

    A sweep's draws, found from the reference in this process, are handed
    on, so that the fresh processes time qir's set-up and not the benchmark's.
    """
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    if getattr(workload, "draws", None) is not None:
        cmd += ["--draws", ",".join(map(str, workload.draws))]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            code = child.wait(timeout=60)
        if line != "ready\n" or code != 0:
            raise RuntimeError(f"set-up process exited {code} after {line!r}")
        samples.append(elapsed)
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up and warm up, print 'ready' and exit (times setup_s)")
    parser.add_argument("--draws", help="sweep: the draw of each seeded slot, comma-separated "
                                        "(found from the reference when left out)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    qir = import_qir()
    out_dir = os.path.join(OUT_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](qir, args.seed, out_dir)
        if args.draws is not None:
            workload.draws = [int(d) for d in args.draws.split(",")]
        workload.setup()
        workload.warm_up()
        if args.setup_only:
            print("ready", flush=True)
            return 0

        print(environment(qir))
        metrics, note = {}, ""
        if args.trace:
            plain, attempted, failed, plain_s, _ = run_rounds(workload, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced, traced_ops, traced_failed, traced_s, _ = run_rounds(workload, args.seconds / 2)
            finally:
                tracer.remove()
            for name, (value, unit) in tracer.metrics(traced, traced_ops).items():
                metrics[name] = {"value": value, "unit": unit}
            overhead = (traced_s / traced) / (plain_s / plain) - 1.0
            note = (f"rounds untraced {plain} traced {traced}, nominal seconds per round "
                    f"{plain_s / plain:.4f} untraced, {traced_s / traced:.4f} traced, "
                    f"tracing overhead {overhead:+.1%}")
            attempted, failed = attempted + traced_ops, failed + traced_failed
        else:
            rounds, attempted, failed, nominal_s, wall_s = run_rounds(workload, args.seconds)
            metrics["ops_per_s"] = {"value": attempted / nominal_s, "unit": "1/s"}
            note = (f"rounds {rounds} of {workload.ops_per_round} ops in {workload.units} units, "
                    f"{wall_s:.3f} s in units ({attempted / wall_s:.3f} ops/s as timed), "
                    f"{nominal_s:.3f} s nominal")

        correct = True
        try:
            workload.check()
        except checks.CheckFailed as exc:
            correct = False
            print(f"CHECK FAILED: {exc}")
        if not args.trace:
            setups = setup_seconds(args, workload)
            metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
            metrics["peak_rss_mb"] = {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
            note += ", setup samples " + " ".join(f"{s:.3f}" for s in setups)
        if getattr(workload, "draws", None) is not None:
            note += f", seeded sweeps redrawn for a rising irr(X): {sum(workload.draws)}"
        print(note)
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(OUT_ROOT)
        except OSError:  # another run's directory is still there
            pass


if __name__ == "__main__":
    sys.exit(main())
