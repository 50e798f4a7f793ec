"""Smoke tests of ``tools/bench_layers.py`` and ``qirbench/kernels.py`` against this tree."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import qir
from qir import _jacobi_py, backend, linalg

ROOT = Path(__file__).resolve().parents[1]


def load_bench_layers():
    path = ROOT / "tools" / "bench_layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_bench_layers_cases_run_on_the_python_kernel():
    tool = load_bench_layers()
    name = backend.backend_name()
    backend.set_backend("python")
    try:
        for case in tool.cases(qir).values():
            case()
    finally:
        backend.set_backend(name)


def test_bench_layers_builds_the_cases_of_a_tree_loaded_under_another_name():
    # two trees side by side: the cases of this tree loaded as qir_side run on
    # qir_side's kernel and counters, and qir's own counters do not move
    tool = load_bench_layers()
    path = ROOT / "src" / "qir"
    spec = importlib.util.spec_from_file_location("qir_side", path / "__init__.py",
                                                  submodule_search_locations=[str(path)])
    side = importlib.util.module_from_spec(spec)
    sys.modules["qir_side"] = side
    try:
        spec.loader.exec_module(side)
        side.backend.set_backend("python")
        cases = tool.cases(side)
        mine, theirs = linalg.kernel_counts(), side.linalg.kernel_counts()
        for case in ("campaign.chunk.unit_12", "minimize-simplex.batch", "small_stack.n6.k6.stacked",
                     "bundle_2x2", "sweep.3x2_21_points"):
            cases[case]()
        assert linalg.kernel_counts() == mine
        assert side.linalg.kernel_counts(theirs)[15][:2] == (2, 2)  # the unit's (5, 3) state, and monitored
    finally:
        for name in [name for name in sys.modules if name == "qir_side" or name.startswith("qir_side.")]:
            del sys.modules[name]


def calls_and_slices(result):
    """A case's per-n kernel calls and slices, rotations left out."""
    return {n: (calls, slices) for n, (calls, slices, _) in result["kernel_counts"].items()}


def test_bench_layers_minimize_simplex_takes_its_states_in_one_stacked_call():
    # the 25 vertices of an eq11 2 x 2 simplex: 25 states of 4 x 4 and their
    # 125 B marginals and blocks of 2 x 2, in 2 kernel calls as one batch; one
    # vertex at a time, a call for each state and one for its 5 blocks
    tool = load_bench_layers()
    cases = tool.cases(qir)
    for case, counts in (("minimize-simplex.batch", {4: (1, 25), 2: (1, 125)}),
                         ("minimize-simplex.per_point", {4: (25, 25), 2: (25, 125)})):
        result = tool.measure(linalg, cases[case], repeats=1)
        assert (calls_and_slices(result), result["eigendecompositions"]) == (counts, 150), case


def test_bench_layers_minimize_restarts_side_by_side_takes_a_quarter_of_the_passes():
    # 4 restarts of 60 evaluations, 36 passes each (the 25-point simplex, then
    # 35 single points); a pass takes 2 kernel calls, its 4 x 4 states and then
    # their 2 x 2 B marginals and blocks, and so does the check of the best point
    tool = load_bench_layers()
    cases = tool.cases(qir)
    runs = {case: tool.measure(linalg, cases[f"minimize-restarts.{case}"], repeats=1)
            for case in ("side_by_side", "one_at_a_time")}
    calls = {case: {n: c for n, (c, _) in calls_and_slices(run).items()} for case, run in runs.items()}
    assert calls == {"side_by_side": {4: 36 + 1, 2: 36 + 1}, "one_at_a_time": {4: 4 * 36 + 1, 2: 4 * 36 + 1}}
    assert runs["side_by_side"]["eigendecompositions"] == runs["one_at_a_time"]["eigendecompositions"]
    assert runs["side_by_side"]["rotations"] == runs["one_at_a_time"]["rotations"]


def test_bench_layers_small_stack_runs_each_body(restore_backend, monkeypatch):
    # k slices run _rotate k times or _rotate_stack once, in one kernel call with
    # the same rotations, whatever SMALL_STACK says; it comes back after each call
    tool = load_bench_layers()
    backend.set_backend("python")
    bodies = []

    def recorded(body):
        run = getattr(_jacobi_py, body)

        def recording(*args):
            bodies.append(body)
            return run(*args)

        return recording

    for body in ("_rotate", "_rotate_stack"):
        monkeypatch.setattr(_jacobi_py, body, recorded(body))
    small = _jacobi_py.SMALL_STACK
    cases = tool.cases(qir)
    for shape, (d_a, d_b, _) in tool.SMALL_STACK_SHAPES.items():
        assert d_a * d_b >= 3, shape  # the Python kernel runs n <= 2 unrolled, with neither body
        for k in (1, small + 1, 8):
            runs = {}
            for entry, ran in (("stacked", ["_rotate_stack"]), ("per_slice", ["_rotate"] * k)):
                bodies.clear()
                runs[entry] = tool.measure(linalg, cases[f"small_stack.{shape}.k{k}.{entry}"], repeats=1)
                assert bodies == ran * 3, (shape, k, entry)  # warm-up, counted run, one repeat
                assert _jacobi_py.SMALL_STACK == small
            assert runs["stacked"]["kernel_counts"] == runs["per_slice"]["kernel_counts"], (shape, k)
            assert calls_and_slices(runs["stacked"]) == {d_a * d_b: (1, k)}, (shape, k)


def test_bench_layers_runs_as_a_script():
    # main() on this tree: each case's eigendecompositions and rotations are
    # the sums over n of its per-n counts, and its best time is at most its median
    done = subprocess.run(
        [sys.executable, "tools/bench_layers.py", "--src", "src", "--repeats", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["backend"] == "python" and report["repeats"] == 2
    assert len(report["cases"]) > 80
    for case, result in report["cases"].items():
        counts = result["kernel_counts"].values()
        assert counts, case
        assert result["eigendecompositions"] == sum(slices for _, slices, _ in counts), case
        assert result["rotations"] == sum(rotations for _, _, rotations in counts), case
        assert 0 < result["best_s"] <= result["median_s"], case


def test_kernel_table_runs_from_the_repo_root():
    # builds the shipped C in a temporary directory and checks both twins against
    # LAPACK, or prints why it skipped; either way it exits 0
    done = subprocess.run(
        [sys.executable, "qirbench/kernels.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith(("jacobi_eigh, median of", "kernel table skipped:")), done.stdout
