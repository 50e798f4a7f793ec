import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sysconfig
from pathlib import Path

import numpy as np
import pytest

import qir
from qir import backend
from qir.channels import _blocks
from qir.states import BipartiteState


# the compiled twin, built from the shipped C source by the compiled_kernel fixture if need be
needs_compiled = pytest.mark.usefixtures("compiled_kernel")


@pytest.fixture
def restore_backend():
    name = backend.backend_name()
    yield
    backend.set_backend(name)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def random_hermitian(rng, n, scale=1.0):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (z + z.conj().T) / 2.0


def random_density(rng, n, rank=None):
    """Random density matrix via a normalized Wishart factor."""
    rank = rank or n
    z = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    m = z @ z.conj().T
    return m / np.trace(m).real


def marginal_a(state):
    """A marginal of a state, by ``np.einsum`` over the A-outer index layout."""
    return np.einsum("ijkj->ik", state.rho.reshape(state.d_a, state.d_b, state.d_a, state.d_b))


def marginal_b(state):
    """B marginal of a state, by ``np.einsum`` over the A-outer index layout."""
    return np.einsum("ijik->jk", state.rho.reshape(state.d_a, state.d_b, state.d_a, state.d_b))


def blocks(x, state):
    """The d_a diagonal blocks p_i sigma_i of a state in the frame of ``x``."""
    return _blocks(x.vectors, state.rho[None], state.d_a, state.d_b)[0]


def purity(state):
    return float(np.trace(state.rho @ state.rho).real)


def as_state(m):
    """A density matrix of size n >= 2 as a state with d_a = n and d_b = 1."""
    return BipartiteState(len(m), 1, m)


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The compiled Jacobi twin, built from the shipped ``_jacobi.c`` when not installed.

    The build goes to a pytest temp directory. The module is registered as
    backend "compiled" and as the attribute ``qir._jacobi``; the active
    backend is left as it is. Skips when gcc or the Python headers are
    missing.
    """
    if "compiled" in backend.available_backends():
        return backend._KERNELS["compiled"]
    gcc = shutil.which("gcc")
    include = sysconfig.get_paths()["include"]
    if gcc is None or not os.path.isfile(os.path.join(include, "Python.h")):
        pytest.skip("compiled kernel not built and no gcc or Python headers to build it")
    source = Path(qir.__file__).with_name("_jacobi.c")
    target = tmp_path_factory.mktemp("kernel") / ("_jacobi" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run(
        [gcc, "-O2", "-Wall", "-Werror", "-shared", "-fPIC", f"-I{include}", str(source), "-o", str(target)],
        check=True,
        capture_output=True,
    )
    loader = importlib.machinery.ExtensionFileLoader("qir._jacobi", str(target))
    spec = importlib.util.spec_from_file_location("qir._jacobi", target, loader=loader)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    qir._jacobi = module
    backend._KERNELS["compiled"] = module
    return module
