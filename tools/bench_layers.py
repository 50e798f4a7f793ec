"""Per-layer timings of qir's eigendecomposition paths, as JSON.

Usage, from the root of the repository:

    python3 tools/bench_layers.py --src src --repeats 7
    python3 tools/bench_layers.py --src src --compiled path/to/_jacobi.<ext>

``--src`` is the qir source tree to import, so that two checkouts can be
measured by the same harness. ``--compiled`` registers a compiled Jacobi
kernel, a shared object built from a tree's ``src/qir/_jacobi.c`` (for
example ``gcc -O2 -shared -fPIC -I<python include> src/qir/_jacobi.c -o
_jacobi<EXT_SUFFIX>``), and measures on it instead of the Python kernel:
its stack entry, qir's one kernel call, loops over the slices in C.
Each case reports the best and the median of ``--repeats`` wall times per
operation (``best_s``, ``median_s``); one operation's kernel work from
``linalg.kernel_counts``, ``{n: [calls, slices, rotations]}`` (a call is
one stack, a slice one eigendecomposition),
and its eigendecompositions and rotations summed over n; and the best time
per rotation in us (``us_per_rotation``; it includes the checks and
entropy work around the kernel, so it is a kernel figure only for the
``kernel`` and ``full_size`` cases). Measure a tree older than
``kernel_counts`` with that tree's own copy of the tool.

One invocation is not a stable measurement on a shared machine: compare
two trees by the median over five or more invocations per tree,
alternating between the trees, of each case's ``median_s``. The best of
one invocation moves with a single quiet spell; on a shared 2-core VM
the best-of values of an unchanged case read up to 2x apart between
invocations.

Cases:
- ``kernel``: the eigendecompositions of one 21-point monitoring sweep at
  (d_A, d_B) = (3, 2), as ``herm_eig`` one matrix at a time (``loop``)
  and as one ``_stack_eigenvalues`` call (``stack``): the 20 monitored
  6 x 6 states, and the 147 2 x 2 B marginals and blocks, as ``_blocks``
  gives them (``linalg`` hands the kernel their Hermitian part); and
  ``kernel.stack.monitored_6x6_k210``, one call on 210 monitored 6 x 6
  states, 10 random states at (3, 2) each monitored at the 21 grid
  points: the size of a batched campaign chunk;
- ``entropy_bundle``: one bundle with X and Y for each of the 12 pairs
  d_A in 2..5, d_B in 1..3 (one operation is all 12);
- ``bundle_2x2``: one bundle with X and Y at (2, 2), the size the
  ``minimize`` workload evaluates, so that a slowdown of a lone small
  bundle is not lost in the 12-pair sum;
- ``full_size``: ``herm_eig`` of the induced-mixed state of each of the 12
  pairs, n = d_A * d_B from 2 to 15 (one operation is all 12): the
  full-size eigendecompositions that dominate a campaign trial; and
  ``kernel.loop.n<n>``, those at n = 3, 6, 9 and 15 alone;
- ``sweep``: ``monitoring_sweep`` over a 21-point grid at (3, 2);
- ``minimize-simplex``: the slacks of the 25 vertices of the initial
  simplex of one eq11 search at (2, 2), the first batch ``_nelder_mead``
  yields: one vertex at a time (``per_point``, 25 batches of one) and as
  the one batch the search makes of them (``batch``);
- ``minimize-restarts``: ``minimize_slack("eq11", 2, 2)`` with 4 restarts
  of 60 evaluations, stepped side by side (``side_by_side``, no target)
  and one at a time (``one_at_a_time``, ``target=-inf``, which no slack
  reaches): the same points and result, in 36 passes or in 4 x 36; and
  ``minimize-restarts.eq16_3x2_r50``: ``minimize_slack("eq16", 3, 2)``
  with 50 restarts of 100 evaluations, side by side: a search whose
  driver work grows with the restarts, and whose passes of up to 256
  points hand the kernel stacks of 6 x 6 states and their monitored images;
- ``small_stack``: ``_stack_eigenvalues`` of the first k = 1..8 of 8
  induced-mixed densities, routed through the Python kernel's stacked
  body (``stacked``) or its loop over the slices (``per_slice``), at n = 4
  (rank 1, as ``minimize`` builds them, and full rank), 6 and 9: the
  crossover table that sets ``_jacobi_py.SMALL_STACK``, the largest stack
  run slice by slice. On the compiled kernel both run the same C. The
  Python kernel runs a stack of n <= 2 with neither body, unrolled;
- ``campaign.chunk``: ``run_campaign_records`` over the 12 pairs with all
  seven relations, one worker: the benchmark's unit (12 induced-mixed
  trials, one per pair, seed 88) and the two 2520-trial campaigns of
  acceptance criteria 3+4 (haar-pure seed 1001, induced-mixed seed 1002).

``cases(qir)`` takes the package, so it can build the cases of a tree
loaded under another module name, beside a second tree, for paired
timing in one process.
"""

from __future__ import annotations

import argparse
import importlib.machinery
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np


def load_qir(src: str, compiled: str | None):
    sys.path.insert(0, os.path.abspath(src))
    import qir
    from qir import backend

    if compiled:
        loader = importlib.machinery.ExtensionFileLoader("qir._jacobi", compiled)
        spec = importlib.util.spec_from_file_location("qir._jacobi", compiled, loader=loader)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        backend._KERNELS["compiled"] = module
        backend.set_backend("compiled")
    else:
        backend.set_backend("python")
    return qir


def measure(linalg, fn, repeats: int) -> dict:
    fn()  # warm-up
    start = linalg.kernel_counts()
    fn()
    counts = linalg.kernel_counts(start)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    best = min(times)
    rotations = sum(r for _, _, r in counts.values())
    return {
        "best_s": best,
        "median_s": statistics.median(times),
        "kernel_counts": counts,
        "eigendecompositions": sum(slices for _, slices, _ in counts.values()),
        "rotations": rotations,
        "us_per_rotation": 1e6 * best / rotations if rotations else None,
    }


def sweep_inputs(qir):
    state = qir.random_mixed(3, 2, 6, (20, 0))
    return qir.random_basis(3, (21, 0)), qir.random_basis(3, (22, 0)), state


def simplex_vertices(qir) -> np.ndarray:
    """The 25 vertices of the initial simplex of ``minimize_slack("eq11", 2, 2, ..., seed=7)``."""
    return next(qir.explore._nelder_mead(qir._rng.spawn_rng(7, 0).standard_normal(24), 1e-9, 1e-12, 25))


# the small_stack shapes: (d_a, d_b, rank) of the induced-mixed densities, rank 1 as minimize builds them
SMALL_STACK_SHAPES = {"n4_rank1": (2, 2, 1), "n4": (2, 2, 4), "n6": (3, 2, 6), "n9": (3, 3, 9)}


def through(linalg, kernel, entry: str, ms: np.ndarray) -> np.ndarray:
    """``linalg._stack_eigenvalues(ms)`` on one body of the Python ``kernel``: ``per_slice`` runs
    ``_rotate`` on each slice, ``stacked`` runs ``_rotate_stack`` on all of them."""
    small = kernel.SMALL_STACK
    kernel.SMALL_STACK = len(ms) if entry == "per_slice" else 0
    try:
        return linalg._stack_eigenvalues(ms)
    finally:
        kernel.SMALL_STACK = small


def small_stack_cases(qir) -> dict:
    """``small_stack.<shape>.k<k>.<entry>`` for k = 1..8, on the first k of 8 densities of each shape."""
    out = {}
    for name, (d_a, d_b, rank) in SMALL_STACK_SHAPES.items():
        ms = np.array([qir.random_mixed(d_a, d_b, rank, (26, j)).rho for j in range(8)])
        for k in range(1, 9):
            for entry in ("stacked", "per_slice"):
                key = f"small_stack.{name}.k{k}.{entry}"
                out[key] = lambda e=entry, m=ms[:k]: through(qir.linalg, qir._jacobi_py, e, m)
    return out


# the campaign.chunk cases: (trials, seed, ensemble) over the 12 acceptance pairs and all seven
# relations; the benchmark's unit (one trial per pair) and the two criteria 3+4 campaigns
CAMPAIGNS = {"unit_12": (12, 88, "induced-mixed"), "criteria_haar_2520": (2520, 1001, "haar-pure"),
             "criteria_mixed_2520": (2520, 1002, "induced-mixed")}


def campaign_cases(qir) -> dict:
    """``campaign.chunk.<name>``: ``run_campaign_records`` of each of ``CAMPAIGNS``, one worker."""
    dims = tuple((d_a, d_b) for d_a in (2, 3, 4, 5) for d_b in (1, 2, 3))
    relations = ("eq5", "eq7", "eq8", "eq9", "eq10", "eq11", "eq16")
    out = {}
    for name, (trials, seed, ensemble) in CAMPAIGNS.items():
        cfg = qir.explore.CampaignConfig(dims, trials, seed, relations, ensemble)
        out[f"campaign.chunk.{name}"] = lambda c=cfg: qir.explore.run_campaign_records(c)
    return out


def cases(qir):
    """Every case, built from the package ``qir``: the tree it names by any module name."""
    explore, linalg = qir.explore, qir.linalg
    _blocks, entropy_bundle = qir.channels._blocks, qir.relations.entropy_bundle

    grid = np.linspace(0.0, 1.0, 21)
    x, y, state = sweep_inputs(qir)
    vertices = simplex_vertices(qir)
    restarts = dict(restarts=4, seed=7, max_evals=60)
    rhos = np.array([qir.monitor(y, eps, state).rho for eps in grid])
    big = rhos[1:]
    chunk = np.array([qir.monitor(y, eps, qir.random_mixed(3, 2, 6, (27, j))).rho for j in range(10) for eps in grid])
    marginals = np.einsum("kijil->kjl", rhos.reshape(len(rhos), 3, 2, 3, 2))[:, None]
    small = np.concatenate([marginals, _blocks(x.vectors, rhos, 3, 2), _blocks(y.vectors, rhos, 3, 2)],
                           axis=1).reshape(-1, 2, 2)
    bundles = []
    for k, (d_a, d_b) in enumerate((a, b) for a in (2, 3, 4, 5) for b in (1, 2, 3)):
        bundles.append((qir.random_basis(d_a, (23, k)), qir.random_mixed(d_a, d_b, d_a * d_b, (24, k)),
                        qir.random_basis(d_a, (25, k))))

    return {
        "kernel.loop.monitored_6x6_k20": lambda: [linalg.herm_eig(m) for m in big],
        "kernel.loop.blocks_2x2_k147": lambda: [linalg.herm_eig(m) for m in small],
        "entropy_bundle.12_pairs": lambda: [entropy_bundle(bx, rho, by) for bx, rho, by in bundles],
        "bundle_2x2": lambda: entropy_bundle(*bundles[1]),
        "full_size.12_pairs": lambda: [linalg.herm_eig(rho.rho) for _, rho, _ in bundles],
        **{f"kernel.loop.n{rho.dim}": (lambda m=rho.rho: linalg.herm_eig(m))
           for _, rho, _ in bundles if (rho.d_a, rho.d_b) in ((3, 1), (3, 2), (3, 3), (5, 3))},
        "sweep.3x2_21_points": lambda: qir.monitoring_sweep(x, y, state, grid),
        "kernel.stack.monitored_6x6_k20": lambda: linalg._stack_eigenvalues(big),
        "kernel.stack.blocks_2x2_k147": lambda: linalg._stack_eigenvalues(small),
        "kernel.stack.monitored_6x6_k210": lambda: linalg._stack_eigenvalues(chunk),
        "minimize-simplex.per_point": lambda: [explore._point_slacks("eq11", 2, 2, v[None], 1e-9)
                                               for v in vertices],
        "minimize-simplex.batch": lambda: explore._point_slacks("eq11", 2, 2, vertices, 1e-9),
        "minimize-restarts.side_by_side": lambda: qir.minimize_slack("eq11", 2, 2, **restarts),
        "minimize-restarts.one_at_a_time": lambda: qir.minimize_slack("eq11", 2, 2, target=-math.inf,
                                                                      **restarts),
        "minimize-restarts.eq16_3x2_r50": lambda: qir.minimize_slack("eq16", 3, 2, restarts=50, seed=7,
                                                                     max_evals=100),
        **small_stack_cases(qir),
        **campaign_cases(qir),
    }


def git_sha(src: str) -> str:
    """HEAD of the tree holding ``src``, with ``+dirty`` when ``src`` differs from it."""
    try:
        sha = subprocess.run(["git", "-C", src, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
        clean = subprocess.run(["git", "-C", src, "diff", "--quiet", "HEAD", "--", "."]).returncode == 0
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha if clean else sha + "+dirty"


def scipy_version() -> str | None:
    """The installed scipy's version, or None: qir does not need scipy."""
    try:
        import scipy
    except ImportError:
        return None
    return scipy.__version__


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src")
    parser.add_argument("--compiled", help="compiled _jacobi extension to measure on")
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    qir = load_qir(args.src, args.compiled)
    from qir import backend, linalg

    results = {name: measure(linalg, fn, args.repeats) for name, fn in sorted(cases(qir).items())}
    print(json.dumps({
        "backend": backend.backend_name(),
        "sha": git_sha(args.src),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version(),
        "repeats": args.repeats,
        "cases": results,
    }, indent=2))


if __name__ == "__main__":
    main()
