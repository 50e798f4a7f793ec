"""Smoke tests of ``tools/bench_layers.py`` and ``qirbench/kernels.py`` against this tree."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import qir
from qir import backend, linalg

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


def test_bench_layers_minimize_simplex_takes_its_states_in_one_stacked_call():
    # the 25 vertices of an eq11 2 x 2 simplex: 25 states of 4 x 4 and their
    # 125 B marginals and blocks of 2 x 2, in 2 stacked calls as one batch; one
    # vertex at a time, each state alone runs jacobi_eigh and its 5 blocks a stack
    tool = load_bench_layers()
    entries = backend.jacobi_eigh, backend.jacobi_eigh_stack
    with tool.Counter(backend) as counter:
        cases = tool.cases(qir)
        for case, calls in (("minimize-simplex.batch", {"jacobi_eigh": 0, "jacobi_eigh_stack": 2}),
                            ("minimize-simplex.per_point", {"jacobi_eigh": 25, "jacobi_eigh_stack": 25})):
            result = tool.measure(counter, cases[case], repeats=1)
            assert (result["kernel_calls"], result["eigendecompositions"]) == (calls, 150), case
    assert (backend.jacobi_eigh, backend.jacobi_eigh_stack) == entries  # the counter puts the entries back


def test_bench_layers_minimize_restarts_side_by_side_takes_a_quarter_of_the_passes():
    # 4 restarts of 60 evaluations, 36 passes each (the 25-point simplex, then
    # 35 single points); a pass takes 2 kernel calls, its states and then their
    # B marginals and blocks, and so does the check of the best point. Side by
    # side, a pass holds 4 states, more than SMALL_STACK, so both calls are
    # stacked; one at a time, the state of a single point runs jacobi_eigh
    tool = load_bench_layers()
    assert linalg.SMALL_STACK < 4
    with tool.Counter(backend) as counter:
        cases = tool.cases(qir)
        runs = {case: tool.measure(counter, cases[f"minimize-restarts.{case}"], repeats=1)
                for case in ("side_by_side", "one_at_a_time")}
    assert runs["side_by_side"]["kernel_calls"] == {"jacobi_eigh": 1, "jacobi_eigh_stack": 2 * 36 + 1}
    assert runs["one_at_a_time"]["kernel_calls"] == {"jacobi_eigh": 4 * 35 + 1,
                                                     "jacobi_eigh_stack": 4 * (36 + 1) + 1}
    assert runs["side_by_side"]["eigendecompositions"] == runs["one_at_a_time"]["eigendecompositions"]
    assert runs["side_by_side"]["rotations"] == runs["one_at_a_time"]["rotations"]


def test_bench_layers_small_stack_runs_each_entry():
    # k slices make k jacobi_eigh calls or one stacked call, with the same
    # rotations, whatever SMALL_STACK says; it comes back after each call
    tool = load_bench_layers()
    small = linalg.SMALL_STACK
    with tool.Counter(backend) as counter:
        cases = tool.cases(qir)
        for shape in tool.SMALL_STACK_SHAPES:
            for k in (1, small + 1, 8):
                runs = {entry: tool.measure(counter, cases[f"small_stack.{shape}.k{k}.{entry}"], repeats=1)
                        for entry in ("stacked", "per_slice")}
                assert runs["stacked"]["kernel_calls"] == {"jacobi_eigh": 0, "jacobi_eigh_stack": 1}
                assert runs["per_slice"]["kernel_calls"] == {"jacobi_eigh": k, "jacobi_eigh_stack": 0}
                assert runs["stacked"]["rotations"] == runs["per_slice"]["rotations"], (shape, k)
                assert linalg.SMALL_STACK == small


def test_kernel_table_runs_from_the_repo_root():
    # builds the shipped C in a temporary directory and checks both twins against
    # LAPACK, or prints why it skipped; either way it exits 0
    done = subprocess.run(
        [sys.executable, "qirbench/kernels.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith(("jacobi_eigh, median of", "kernel table skipped:")), done.stdout
