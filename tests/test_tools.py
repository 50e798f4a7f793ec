"""Smoke tests of ``tools/bench_layers.py`` and ``qirbench/kernels.py`` against this tree."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import qir
from qir import backend

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
    # 125 B marginals and blocks of 2 x 2, in 2 kernel calls as one batch and
    # in 25 + 25 one vertex at a time
    tool = load_bench_layers()
    entries = backend.jacobi_eigh, backend.jacobi_eigh_stack
    with tool.Counter(backend) as counter:
        cases = tool.cases(qir)
        for case, calls in (("minimize-simplex.batch", 2), ("minimize-simplex.per_point", 50)):
            result = tool.measure(counter, cases[case], repeats=1)
            assert (result["kernel_calls"], result["eigendecompositions"]) == (calls, 150), case
    assert (backend.jacobi_eigh, backend.jacobi_eigh_stack) == entries  # the counter puts the entries back


def test_bench_layers_minimize_restarts_side_by_side_takes_a_quarter_of_the_passes():
    # 4 restarts of 60 evaluations, 36 passes each (the 25-point simplex, then
    # 35 single points); a pass takes 2 kernel calls, its states and then their
    # B marginals and blocks, and so does the check of the best point
    tool = load_bench_layers()
    with tool.Counter(backend) as counter:
        cases = tool.cases(qir)
        runs = {case: tool.measure(counter, cases[f"minimize-restarts.{case}"], repeats=1)
                for case in ("side_by_side", "one_at_a_time")}
    assert runs["side_by_side"]["kernel_calls"] == 2 * 36 + 2
    assert runs["one_at_a_time"]["kernel_calls"] == 2 * 4 * 36 + 2
    assert runs["side_by_side"]["eigendecompositions"] == runs["one_at_a_time"]["eigendecompositions"]
    assert runs["side_by_side"]["rotations"] == runs["one_at_a_time"]["rotations"]


def test_kernel_table_runs_from_the_repo_root():
    # builds the shipped C in a temporary directory and checks both twins against
    # LAPACK, or prints why it skipped; either way it exits 0
    done = subprocess.run(
        [sys.executable, "qirbench/kernels.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith(("jacobi_eigh, median of", "kernel table skipped:")), done.stdout
