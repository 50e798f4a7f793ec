"""Smoke test of ``tools/bench_layers.py`` against this tree."""

import importlib.util
from pathlib import Path

import qir
from qir import backend


def test_bench_layers_cases_run_on_the_python_kernel():
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_layers.py"
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
