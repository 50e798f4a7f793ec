"""Kernel selection: compiled Jacobi core when available, pure Python otherwise.

The choice is made at import; ``set_backend`` switches it at runtime.
"""

import numpy as np

from . import _jacobi_py
from .errors import ConfigError

try:
    from . import _jacobi  # compiled extension, built by setup.py
except ImportError:  # pragma: no cover - depends on the build
    _jacobi = None

_KERNELS = {"python": _jacobi_py}
if _jacobi is not None:
    _KERNELS["compiled"] = _jacobi

_active = "compiled" if _jacobi is not None else "python"


def backend_name() -> str:
    """Name of the kernel currently in use: 'compiled' or 'python'."""
    return _active


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(_KERNELS))


def set_backend(name: str) -> None:
    """Switch kernels at runtime (used by tests and benchmarks)."""
    global _active
    if name not in _KERNELS:
        raise ConfigError(f"unknown backend {name!r}; choices: {sorted(_KERNELS)}")
    _active = name


def jacobi_eigh(a, v, max_rotations):
    return _KERNELS[_active].jacobi_eigh(a, v, max_rotations)


def jacobi_eigh_stack(a, v, max_rotations):
    """Per-slice ``jacobi_eigh`` of ``(k, n, n)`` stacks; ``(rotations, converged)`` arrays.

    Each kernel has its own stack entry: the Python kernel runs the slices
    together, the compiled one loops over them in C. Each slice gets the
    bits ``jacobi_eigh`` gives it. ``linalg._jacobi`` calls it only for
    stacks of more than ``linalg.SMALL_STACK`` slices: the Python kernel's
    stacked call costs more than one ``jacobi_eigh`` call per slice below
    about 3 to 5 slices (README, "Backends").
    """
    rotations, converged = _KERNELS[_active].jacobi_eigh_stack(a, v, max_rotations)
    return np.asarray(rotations, dtype=np.int64), np.asarray(converged, dtype=bool)
