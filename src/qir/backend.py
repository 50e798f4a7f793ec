"""Kernel selection: compiled Jacobi core when available, pure Python otherwise.

The choice is made at import; ``set_backend`` switches it at runtime.
``jacobi_eigh_stack`` is the one entry to the active kernel, on one
``(k, m, n)`` buffer with m = n (spectra) or 2n (eigenvectors too), and
``linalg._jacobi`` its one caller.
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


def jacobi_eigh_stack(b, max_rotations):
    """Diagonalize each slice of a ``(k, m, n)`` buffer in place; ``(rotations, converged)`` arrays.

    Each slice is a Hermitian matrix, or one with n identity rows below it that
    turn into its eigenvectors; any other m is a ``ValueError``. Whatever k:
    the Python kernel runs up to ``_jacobi_py.SMALL_STACK`` slices one at a
    time and more all at once, two or more of n <= 2 unrolled, and the
    compiled one loops over them in C. Each slice gets the bits of the
    kernel's one-matrix ``jacobi_eigh``, which qir itself does not call.
    """
    rotations, converged = _KERNELS[_active].jacobi_eigh_stack(b, max_rotations)
    return np.asarray(rotations, dtype=np.int64), np.asarray(converged, dtype=bool)
