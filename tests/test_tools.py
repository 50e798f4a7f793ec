"""Smoke tests of ``tools/bench_layers.py`` and ``qirbench/kernels.py`` against this tree."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import qir
from qir import backend

ROOT = Path(__file__).resolve().parents[1]


def test_bench_layers_cases_run_on_the_python_kernel():
    path = ROOT / "tools" / "bench_layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    name = backend.backend_name()
    backend.set_backend("python")
    try:
        for case in tool.cases(qir).values():
            case()
    finally:
        backend.set_backend(name)


def test_kernel_table_runs_from_the_repo_root():
    # builds the shipped C in a temporary directory and checks both twins against
    # LAPACK, or prints why it skipped; either way it exits 0
    done = subprocess.run(
        [sys.executable, "qirbench/kernels.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith(("jacobi_eigh, median of", "kernel table skipped:")), done.stdout
